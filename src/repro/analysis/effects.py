"""Blocking-call detection for one function body.

The lock rule needs to know whether a function can park its thread before
it can reason about what its callers inherit: it propagates ``blocking``
through the call graph.  Detection is syntactic — a canonicalised dotted
call chain (import aliases rewritten, so ``from os import fsync`` and
``os.fsync`` are one thing) matched against the lists below.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.sources import CodeIndex, FunctionInfo, dotted_chain

#: Calls that park the calling thread — forbidden under a hot lock.
_BLOCKING_CALLS = ("os.fsync", "time.sleep", "os.wait", "os.waitpid",
                   "select.select")
_BLOCKING_PREFIXES = ("subprocess.",)
#: ``x.join()`` / ``x.wait()`` block when the receiver looks like a thread,
#: process, pool or event; a bare ``", ".join(...)`` does not.
_BLOCKING_METHODS = frozenset({"join", "wait", "acquire", "get"})
_BLOCKING_RECEIVER_HINTS = ("thread", "proc", "pool", "worker", "event",
                            "future", "barrier", "supervisor")


@dataclass(frozen=True)
class Effect:
    """One blocking call found in a function body."""

    line: int
    description: str


def _chain_of(call: ast.Call, index: CodeIndex, module: str) -> Optional[str]:
    chain = dotted_chain(call.func)
    if chain is None:
        return None
    return index.canonical_chain(module, chain)


def _receiver_hint(call: ast.Call) -> str:
    """Lower-cased name of the attribute-call receiver's last segment."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return ""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr.lower()
    if isinstance(value, ast.Name):
        return value.id.lower()
    return ""


def _call_effects(call: ast.Call, index: CodeIndex, module: str,
                  resolved: Optional[FunctionInfo]) -> List[Effect]:
    effects: List[Effect] = []
    chain = _chain_of(call, index, module)
    line = call.lineno
    if chain is not None and (
            chain in _BLOCKING_CALLS
            or any(chain.startswith(p) for p in _BLOCKING_PREFIXES)):
        effects.append(Effect(line, f"blocking call {chain}()"))
    if resolved is None and isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in _BLOCKING_METHODS:
            hint = _receiver_hint(call)
            if any(token in hint for token in _BLOCKING_RECEIVER_HINTS):
                effects.append(Effect(
                    line, f"blocking call .{attr}() on '{hint}'"))
    return effects


def blocking_effects(info: FunctionInfo, index: CodeIndex) -> List[Effect]:
    """Every blocking call in one function body (nested defs included)."""
    effects: List[Effect] = []
    for call, resolved in index.calls_of(info):
        effects.extend(_call_effects(call, index, info.module, resolved))
    return effects
