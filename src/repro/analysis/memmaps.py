"""Rule ``memmap-hygiene``: writable memory maps belong to the storage layer.

The entire zero-copy story (PR 2/9) rests on one contract: everything
outside ``repro/storage`` sees profile bytes through **read-only** mmap
views.  A writable map handed to a scoring kernel could silently corrupt
the store underneath every other reader — no checksum would catch it
until the next verification pass, and the parity walls would chase a
phantom.  This rule rejects ``np.memmap`` opens with a
writable mode (``r+``/``w+``, or no mode at all — NumPy's default is
``r+``) and ``mmap.mmap`` opens without ``ACCESS_READ``/``PROT_READ``,
anywhere outside the allowed storage modules.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterable, List, Optional

from repro.analysis.effects import _chain_of
from repro.analysis.findings import Finding, Severity
from repro.analysis.sources import CodeIndex, dotted_chain

RULE_ID = "memmap-hygiene"

_WRITABLE_NUMPY_MODES = ("r+", "w+")
_DEFAULT_ALLOWED = ("repro.storage", "repro.storage.*")


def _numpy_memmap_mode(call: ast.Call) -> Optional[str]:
    """The mode of an ``np.memmap`` call; None means "defaulted" (r+)."""
    if len(call.args) >= 3 and isinstance(call.args[2], ast.Constant):
        return call.args[2].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            return kw.value.value
    return None


def _mmap_is_readonly(call: ast.Call, index: CodeIndex, module: str) -> bool:
    for kw in call.keywords:
        chain = dotted_chain(kw.value)
        canonical = (index.canonical_chain(module, chain)
                     if chain is not None else None)
        if kw.arg == "access" and canonical is not None:
            return canonical.endswith("ACCESS_READ")
        if kw.arg == "prot" and canonical is not None:
            return "PROT_WRITE" not in canonical
    return False  # mmap.mmap defaults to a writable shared mapping


def check(index: CodeIndex,
          allowed_modules: Iterable[str] = _DEFAULT_ALLOWED) -> List[Finding]:
    allowed = tuple(allowed_modules)
    findings: List[Finding] = []
    for source in index.sources:
        if any(fnmatch.fnmatch(source.module, pattern)
               for pattern in allowed):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _chain_of(node, index, source.module)
            if chain == "numpy.memmap":
                mode = _numpy_memmap_mode(node)
                if mode is None or mode in _WRITABLE_NUMPY_MODES:
                    shown = mode if mode is not None else "r+ (the default)"
                    findings.append(Finding(
                        rule_id=RULE_ID, path=source.path, line=node.lineno,
                        severity=Severity.ERROR,
                        message=(f"writable np.memmap (mode={shown}) outside "
                                 "repro/storage — zero-copy views handed "
                                 "out of the storage layer must be "
                                 "read-only (mode='r')")))
            elif chain == "mmap.mmap":
                if not _mmap_is_readonly(node, index, source.module):
                    findings.append(Finding(
                        rule_id=RULE_ID, path=source.path, line=node.lineno,
                        severity=Severity.ERROR,
                        message=("writable mmap.mmap outside repro/storage "
                                 "— pass access=mmap.ACCESS_READ (or "
                                 "prot=mmap.PROT_READ) or move the map "
                                 "into the storage layer")))
    return findings
