"""Keeping the hypervisor and the allocator out of the numbers.

Two measures, both taken by the parent before any clock starts (the third,
the yardstick, is taken during the run: see ``yardstick.py``):

* **Pre-fault.**  In this sandbox the first touch of a guest page is paid
  to the host, and the host takes idle pages back: touching 270 MB took
  2.8 s, then 0.23 s three times in a row, and between the runs of a sweep
  it took 0.12-0.25 s or 0.8-6.8 s depending on what the host had
  reclaimed.  The parent therefore maps, touches and unmaps 1.5x the
  workload's peak RSS; the pages go back to the guest kernel already backed
  by the host, and the child's first touches are cheap.  The seconds this
  took are logged as a note, never as a metric.
* **Pinned allocator.**  glibc's dynamic mmap threshold and trimming make
  large numpy temporaries alternate between fresh mmaps (every page faults
  again) and the heap, depending on allocation history.  Each workload runs
  in a fresh child started with :data:`ALLOCATOR`, so temporaries come from
  a heap that only grows.  (The prototype behind the issue measured phase-2
  maxima of the drift workload at 0.28-2.10 s without and 0.15-0.16 s with
  these settings, the median unchanged.)
"""

from __future__ import annotations

import mmap
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict

#: glibc malloc settings of the measurement child.
ALLOCATOR = {
    "MALLOC_MMAP_THRESHOLD_": "33554432",    # 32 MiB: numpy temporaries stay on the heap
    "MALLOC_TRIM_THRESHOLD_": "4294967295",  # never give the heap back mid-run
    "MALLOC_TOP_PAD_": "268435456",          # grow the heap 256 MiB at a time
}

#: The parent touches this multiple of the workload's peak RSS.
PREFAULT_FACTOR = 1.5


def prefault(num_bytes: int) -> float:
    """Map, touch and unmap ``num_bytes``; returns the seconds it took."""
    start = time.perf_counter()
    if num_bytes > 0:
        region = mmap.mmap(-1, num_bytes)
        try:
            for offset in range(0, num_bytes, mmap.PAGESIZE):
                region[offset] = 1
        finally:
            region.close()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: the child is started by vfork, and
    at exec the kernel folds the *parent's* high-water mark — which includes
    the pre-fault region — into the child's ``ru_maxrss``.  ``VmHWM``
    belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_environment(scratch: Path) -> Dict[str, str]:
    """The child's environment: the caller's, the pinned allocator, and a
    temporary directory inside the checkout so nothing is written outside it."""
    env = dict(os.environ)
    env.update(ALLOCATOR)
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def describe() -> Dict[str, object]:
    """What the numbers were measured on (recorded next to every result set)."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # the parent never needs numpy
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "allocator": dict(ALLOCATOR),
        "prefault_factor": PREFAULT_FACTOR,
    }


if __name__ == "__main__":
    import json
    json.dump(describe(), sys.stdout, indent=2)
    print()
