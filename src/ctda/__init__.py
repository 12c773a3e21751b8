"""Communication-style tools for data analytics.

Two tool families share this package:

* tap-delay-line equalizers fitted between time series, with
  diversity-combining fusion of per-channel estimates and linear-regression
  baselines (``equalizer``, ``fusion``, ``baselines``);
* divergence transition matrices, information-coupling solutions and
  per-symbol score functions for separating noisy discrete observations
  (``stats``, ``coupling``, ``scoring``).

``dataio`` holds the shared series/image containers and generators, and
``cli`` exposes the whole pipeline as subcommands.
"""

__version__ = "0.1.0"

from .stats import (  # noqa: E402
    Channel,
    DiscreteDistribution,
    binary_symmetric_channel,
    channel_output,
    empirical_distribution,
    exact_mutual_information,
    identity_channel,
    parametric_channel,
    uniform_distribution,
)
from .dataio import (  # noqa: E402
    ImageDataset,
    TimeSeries,
    align,
    apply_channel_to_dataset,
    gen_fir_series,
    gen_two_class_images,
    load_csv,
    split,
)
from .equalizer import (  # noqa: E402
    EqualizerModel,
    fit_weights,
    infer,
    lms_update,
    predict_next,
    select_length,
)
from .fusion import (  # noqa: E402
    FusionModel,
    fuse,
    mrc_weights_inverse_mse,
    mrc_weights_lmmse,
    online_alpha_update,
    online_inverse_mse_weights,
    select_channels,
)
from .baselines import LinearModel, fit_bayes, fit_ols, predict  # noqa: E402
from .coupling import (  # noqa: E402
    CouplingSolution,
    Dtm,
    ScoreTable,
    build_dtm,
    local_mi_approx,
    optimal_directions,
    perturb_distribution,
    replace_direction,
    score_table,
    sequence_score,
    solve_coupling,
    tensor_dtm,
)
from .scoring import (  # noqa: E402
    ScoredItem,
    build_image_scorer,
    error_vs_noise_curve,
    learn_pooled_source,
    recover_source_input,
    score_dataset,
    score_dataset_per_pixel,
    separation_error,
)

__all__ = [
    "__version__",
    "Channel",
    "DiscreteDistribution",
    "binary_symmetric_channel",
    "channel_output",
    "empirical_distribution",
    "exact_mutual_information",
    "identity_channel",
    "parametric_channel",
    "uniform_distribution",
    "ImageDataset",
    "TimeSeries",
    "align",
    "apply_channel_to_dataset",
    "gen_fir_series",
    "gen_two_class_images",
    "load_csv",
    "split",
    "EqualizerModel",
    "fit_weights",
    "infer",
    "lms_update",
    "predict_next",
    "select_length",
    "FusionModel",
    "fuse",
    "mrc_weights_inverse_mse",
    "mrc_weights_lmmse",
    "online_alpha_update",
    "online_inverse_mse_weights",
    "select_channels",
    "LinearModel",
    "fit_bayes",
    "fit_ols",
    "predict",
    "CouplingSolution",
    "Dtm",
    "ScoreTable",
    "build_dtm",
    "local_mi_approx",
    "optimal_directions",
    "perturb_distribution",
    "replace_direction",
    "score_table",
    "sequence_score",
    "solve_coupling",
    "tensor_dtm",
    "ScoredItem",
    "build_image_scorer",
    "error_vs_noise_curve",
    "learn_pooled_source",
    "recover_source_input",
    "score_dataset",
    "score_dataset_per_pixel",
    "separation_error",
]
