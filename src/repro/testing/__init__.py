"""Deterministic fault injection for robustness tests and benchmarks.

The package is shipped with the library (not under ``tests/``) so that the
engine, the stores and the serving runtime can consult an injected
:class:`~repro.testing.faults.FaultPlan` through ``EngineConfig.fault_plan``
without importing anything test-only.
"""

from repro.testing.faults import (ITERATION_CRASH_POINTS,
                                  SERVICE_CRASH_POINTS, FaultPlan,
                                  InjectedCrash, InjectedIOError)

__all__ = ["FaultPlan", "InjectedCrash", "InjectedIOError",
           "ITERATION_CRASH_POINTS", "SERVICE_CRASH_POINTS"]
