"""delaymap: delay-coordinate reconstruction and information dimension.

From a single scalar series, recover a usable state space: pick the delay
at the first local minimum of the average mutual information, pick the
embedding dimension where false nearest neighbors die out, embed, and
measure the Shannon entropy / information dimension of the reconstructed
cloud by box partitioning.  Synthetic generators with known answers are
included for validation, and the `delaymap` command drives everything
from the shell.
"""

from ._version import __version__
from .boxdim import (
    BoxHistogram,
    DimensionEstimate,
    EntropyScaling,
    default_r_ladder,
    entropy_scaling,
    information_dimension,
    partition_boxes,
    reference_r,
    shannon_entropy,
)
from .embedding import (
    EmbeddingParams,
    PointCloud,
    cloud_from_points,
    delay_embed,
    project,
)
from .errors import (
    DegenerateSeriesError,
    DelayMapError,
    DivergenceError,
    NoAdmissibleNeighborError,
    ScalingFitError,
    SeriesLoadError,
)
from .generators import (
    GeneratorSpec,
    generate,
    henon,
    logistic,
    lorenz,
    sine,
    white_noise,
)
from .mutual import (
    DelaySelection,
    JointHistogram,
    MICurve,
    ami_curve,
    default_max_lag,
    first_local_minimum,
    histogram_mutual_information,
    joint_histogram,
    marginal_entropies,
    mutual_information,
)
from .neighbors import (
    DimensionSelection,
    FnnCurve,
    FnnEntry,
    FnnParams,
    embedding_dimension,
    fnn_fraction,
)
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    parse_key_value_config,
    run_pipeline,
)
from .series import SeriesStats, TimeSeries, load_csv, series_from_text, stats

__all__ = [
    "__version__",
    # series
    "TimeSeries", "SeriesStats", "load_csv", "series_from_text", "stats",
    # delay via mutual information
    "JointHistogram", "MICurve", "DelaySelection", "joint_histogram",
    "mutual_information", "histogram_mutual_information", "marginal_entropies",
    "ami_curve", "first_local_minimum", "default_max_lag",
    # embedding
    "EmbeddingParams", "PointCloud", "delay_embed", "cloud_from_points", "project",
    # dimension via false neighbors
    "FnnParams", "FnnEntry", "FnnCurve", "DimensionSelection",
    "fnn_fraction", "embedding_dimension",
    # entropy and information dimension
    "BoxHistogram", "EntropyScaling", "DimensionEstimate", "partition_boxes",
    "shannon_entropy", "entropy_scaling", "information_dimension",
    "default_r_ladder", "reference_r",
    # synthetic systems
    "GeneratorSpec", "generate", "henon", "logistic", "lorenz", "sine", "white_noise",
    # pipeline
    "PipelineConfig", "PipelineReport", "run_pipeline", "parse_key_value_config",
    # errors
    "DelayMapError", "SeriesLoadError", "DegenerateSeriesError",
    "NoAdmissibleNeighborError", "DivergenceError", "ScalingFitError",
]
