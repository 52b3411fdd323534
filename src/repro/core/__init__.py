"""The clustered out-of-order timing core and its public API."""

from .config import (CLUSTER_PRESETS, ProcessorConfig, derive_preset,
                     make_config)
from .processor import Processor
from .simulator import simulate
from .snapshot import (SNAPSHOT_VERSION, SnapshotError, SnapshotMeta,
                       read_snapshot_meta, restore_executor,
                       restore_processor, save_executor, save_processor)
from .stats import SimResult, SimStats

__all__ = ["CLUSTER_PRESETS", "ProcessorConfig", "derive_preset",
           "make_config", "Processor",
           "simulate", "SimResult", "SimStats",
           "SNAPSHOT_VERSION", "SnapshotError",
           "SnapshotMeta", "read_snapshot_meta", "restore_executor",
           "restore_processor", "save_executor", "save_processor"]
