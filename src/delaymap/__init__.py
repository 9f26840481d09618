"""delaymap: delay-coordinate reconstruction and information dimension.

From a single scalar series, recover a usable state space: pick the delay
at the first local minimum of the average mutual information, pick the
embedding dimension where false nearest neighbors die out, embed, and
measure the Shannon entropy / information dimension of the reconstructed
cloud by box partitioning.  Synthetic generators with known answers are
included for validation, and the `delaymap` command drives everything
from the shell.

Each public name is imported from its submodule on first use, so
`import delaymap` loads neither numpy nor any estimator, and changes
nothing in the process environment.
"""

import importlib

from ._version import __version__

_PUBLIC = {  # submodule -> the public names it defines
    "series": ("TimeSeries", "SeriesStats", "load_csv", "series_from_text", "stats"),
    # delay via mutual information
    "mutual": (
        "JointHistogram", "MICurve", "DelaySelection", "joint_histogram",
        "mutual_information", "histogram_mutual_information", "marginal_entropies",
        "ami_curve", "first_local_minimum", "default_max_lag",
    ),
    "embedding": ("EmbeddingParams", "PointCloud", "delay_embed", "cloud_from_points"),
    # dimension via false neighbors
    "neighbors": (
        "FnnParams", "FnnEntry", "FnnCurve", "DimensionSelection",
        "fnn_fraction", "embedding_dimension",
    ),
    # entropy and information dimension
    "boxdim": (
        "BoxHistogram", "EntropyScaling", "DimensionEstimate", "partition_boxes",
        "shannon_entropy", "entropy_scaling", "information_dimension",
        "default_r_ladder", "reference_r",
    ),
    # synthetic systems
    "generators": ("generate", "henon", "logistic", "lorenz", "sine", "white_noise"),
    "pipeline": ("PipelineConfig", "PipelineReport", "run_pipeline", "parse_key_value_config"),
    "errors": (
        "DelayMapError", "SeriesLoadError", "DegenerateSeriesError",
        "NoAdmissibleNeighborError", "DivergenceError", "ScalingFitError",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
