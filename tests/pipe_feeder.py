"""A pipe fed by a writer thread, for tests of readers on non-seekable input."""

import os
import threading
from contextlib import contextmanager


@contextmanager
def fed_pipe(data: bytes):
    """Yield the ``/dev/fd/N`` path of a pipe's read end while a thread writes
    ``data`` into it and closes it, so ``data`` may exceed the pipe buffer.
    The read end is closed on exit, which unblocks a writer left waiting."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join()
