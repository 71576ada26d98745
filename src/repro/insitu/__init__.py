"""In-situ substrate: simulation driver and checkpoint/restart store."""

from repro.insitu.checkpoint import CheckpointRecord, CheckpointStore
from repro.insitu.staging import (
    StageTiming,
    StagingReport,
    StagingSimulator,
    StorageModel,
    raw_writer,
)
from repro.insitu.retention import RetentionPolicy, apply_retention
from repro.insitu.simulation import FieldSimulation, SimulationConfig

__all__ = [
    "RetentionPolicy",
    "apply_retention",
    "StageTiming",
    "StagingReport",
    "StagingSimulator",
    "StorageModel",
    "raw_writer",
    "CheckpointRecord",
    "CheckpointStore",
    "FieldSimulation",
    "SimulationConfig",
]
