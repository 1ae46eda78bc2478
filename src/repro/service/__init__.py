"""Always-on serving runtime over the out-of-core KNN engine.

The batch engine computes ``G(t+1)`` from ``G(t)``; this package keeps a
process *serving* ``G(t)`` while that happens — snapshot-isolated queries,
bounded (load-shedding) ingestion, and a supervised refresh loop that
recovers from crashes without ever taking the query path down.  See
``docs/serving.md``.
"""

from repro.service.admission import AdmissionController, AdmissionResult
from repro.service.health import HealthStatus, build_health
from repro.service.loadgen import LoadGenerator, PhaseReport, dense_set_batch
from repro.service.runtime import (DeadlineExceeded, ServiceUnavailable,
                                   ServingRuntime)
from repro.service.snapshot import SnapshotView
from repro.service.supervisor import RefreshSupervisor

__all__ = [
    "AdmissionController",
    "AdmissionResult",
    "DeadlineExceeded",
    "HealthStatus",
    "LoadGenerator",
    "PhaseReport",
    "RefreshSupervisor",
    "ServiceUnavailable",
    "ServingRuntime",
    "SnapshotView",
    "build_health",
    "dense_set_batch",
]
