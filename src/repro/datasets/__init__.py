"""Dataset substrate: synthetic stand-ins for the paper's 24 datasets."""

from repro.datasets.loaders import (
    load_raw,
    raw_file_info,
    save_raw,
    stream_raw_chunks,
)
from repro.datasets.registry import (
    DATASETS,
    DEFAULT_ELEMENTS,
    DatasetSpec,
    PaperStats,
    dataset_names,
    generate_dataset,
    get_dataset,
    improvable_dataset_names,
)
from repro.datasets.synthetic import (
    NOISE_KINDS,
    autocorrelated_indices,
    build_particle_ids,
    build_repetitive,
    build_structured,
    noise_column,
    smooth_pattern_values,
)

__all__ = [
    "load_raw",
    "raw_file_info",
    "save_raw",
    "stream_raw_chunks",
    "DATASETS",
    "DEFAULT_ELEMENTS",
    "DatasetSpec",
    "PaperStats",
    "dataset_names",
    "generate_dataset",
    "get_dataset",
    "improvable_dataset_names",
    "NOISE_KINDS",
    "autocorrelated_indices",
    "build_particle_ids",
    "build_repetitive",
    "build_structured",
    "noise_column",
    "smooth_pattern_values",
]
