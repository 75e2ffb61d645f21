"""Radar-based grain-surface classification toolkit.

Simulates stepped-frequency CW backscatter from parametric silo scenes,
extracts transform/texture features over six method chains, trains
one-vs-one SVMs with an SMO dual solver, and scores everything with
stratified k-fold cross-validation.
"""

from .errors import (
    AliasingError,
    ConfigError,
    ConvergenceError,
    CorruptDatasetError,
    DataError,
    DegenerateTrainingError,
    DimensionMismatchError,
    GrainsortError,
    InvalidParameterError,
)
from .radar import (
    RadarParams,
    ScattererCloud,
    SiloScene,
    SurfaceClass,
    backscatter,
    generate_dataset,
    max_unambiguous_range,
    range_resolution,
    synth_surface,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "ConfigError",
    "ConvergenceError",
    "CorruptDatasetError",
    "DataError",
    "DegenerateTrainingError",
    "DimensionMismatchError",
    "GrainsortError",
    "InvalidParameterError",
    "RadarParams",
    "ScattererCloud",
    "SiloScene",
    "SurfaceClass",
    "backscatter",
    "generate_dataset",
    "max_unambiguous_range",
    "range_resolution",
    "synth_surface",
    "__version__",
]
