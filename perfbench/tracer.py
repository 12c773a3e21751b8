"""Per-layer spans around ``ctda``'s public functions, applied from outside.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper under every name that any ``ctda`` module holds for it
(``scoring`` keeps its own ``build_dtm``, ``cli`` its own ``load_csv``, and
so on), so that calls between modules open child spans.  Nothing under
``src/`` is edited.

Spans are not stored one by one: each closing span adds its self time
(duration minus the time covered by its children) and one call to its
function's totals, and a few functions also feed work counters.  Those
totals are all the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "dataio", "equalizer", "fusion", "baselines", "stats", "coupling", "scoring")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counters, fed after the span has closed: name -> hook(totals, args,
# kwargs, result).  ``totals`` is the dict of counters of one function.
def _rows(t, args, kwargs, result):
    t["rows"] = t.get("rows", 0) + len(result)


def _cells(t, args, kwargs, result):
    t["cells"] = t.get("cells", 0) + int(result.images.size)


def _channel_temp(t, args, kwargs, result):
    # apply_channel_to_dataset materialises an (n, pixels, K) float64 array.
    dataset = _arg(args, kwargs, 0, "dataset")
    channel = _arg(args, kwargs, 1, "channel")
    mb = dataset.images.size * channel.n_outputs * 8 / 2**20
    t["temp_mb"] = max(t.get("temp_mb", 0.0), mb)


def _online_window(t, args, kwargs, result):
    histories = _arg(args, kwargs, 1, "squared_errors")
    window = _arg(args, kwargs, 2, "window")
    t["values_read"] = t.get("values_read", 0) + sum(len(h) for h in histories)
    t["values_used"] = t.get("values_used", 0) + sum(min(len(h), window) for h in histories)


def _items(t, args, kwargs, result):
    t["items"] = t.get("items", 0) + len(result)


HOOKS = {
    "dataio.load_csv": _rows,
    "dataio.load_images_csv": _cells,
    "dataio.apply_channel_to_dataset": _channel_temp,
    "fusion.online_alpha_update": _online_window,
    "scoring.score_dataset": _items,
}


class Tracer:
    """Wrappers for the public functions of ``ctda``'s layers."""

    def __init__(self):
        self.totals: dict = {}
        self._stack: list = []  # child time covered so far, one entry per open span
        self._wrappers: dict = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"ctda.{layer}"]
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        self._bound: list = []  # (module, attribute, original)

    def _wrap(self, qualname: str, fn):
        stack = self._stack
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                t = self.totals.get(qualname)
                if t is None:
                    t = self.totals[qualname] = {"self_s": 0.0, "calls": 0}
                t["self_s"] += duration - covered
                t["calls"] += 1
            if hook is not None:
                hook(t, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._bound:
            return
        for modname, module in list(sys.modules.items()):
            if modname != "ctda" and not modname.startswith("ctda."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def take(self) -> dict:
        """Return the totals gathered since the last call and start afresh."""
        totals, self.totals = self.totals, {}
        return totals
