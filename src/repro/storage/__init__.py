"""Out-of-core storage layer: profile files, the partition files' cost model, disk model, cache."""

from repro.storage.disk_model import DiskModel, DISK_PRESETS
from repro.storage.io_stats import IOStats
from repro.storage.memory_manager import MemoryBudget, PartitionCache
from repro.storage.partition_store import PartitionStore
from repro.storage.profile_store import OnDiskProfileStore

__all__ = [
    "DiskModel",
    "DISK_PRESETS",
    "IOStats",
    "MemoryBudget",
    "PartitionCache",
    "PartitionStore",
    "OnDiskProfileStore",
]
