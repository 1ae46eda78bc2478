"""Rule ``lock-discipline``: no lock-order cycles, no blocking under hot locks.

The serving layer (PR 8/9) is a small web of locks — ``_engine_lock``,
``_view_lock``, ``_stats_lock``, the admission and snapshot ``_lock``s —
with two conventions that nothing checked until now:

* two locks must always be taken in a consistent order (a holds→acquires
  cycle between threads is a potential deadlock);
* a *hot* lock (one on the query/ingestion path) must never be held across
  a call that can park the thread: ``fsync``, thread/process joins,
  subprocess waits, engine iteration.  A reader stalled behind such a hold
  violates the snapshot-isolation latency contract the serving bench
  proves.

The rule catalogues every ``self.X = threading.Lock()`` (and module-level
lock) in the tree, walks each function with a held-lock stack over its
``with`` blocks, and follows calls (strict resolution plus the unique-name
fallback — a missed edge here hides a real deadlock) to build the
holds→acquires graph.  Cycles and same-lock re-entry are errors; blocking
effects reachable under a hot lock are errors unless suppressed with a
written reason at the call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.effects import blocking_effects
from repro.analysis.findings import Finding, Severity
from repro.analysis.sources import CodeIndex, FunctionInfo, dotted_chain

RULE_ID = "lock-discipline"

_LOCK_CONSTRUCTORS = ("threading.Lock", "threading.RLock",
                      "threading.Condition", "threading.Semaphore",
                      "threading.BoundedSemaphore")


@dataclass(frozen=True)
class LockId:
    """Identity of one lock: ``Class.attr`` within a module, or a module
    global.  ``short`` is what hot-lock configuration matches against."""

    module: str
    owner: Optional[str]          # class name, or None for module-level
    attr: str

    @property
    def short(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr

    def __str__(self) -> str:
        return (f"{self.module}.{self.short}")


def _constructor_chain(node: ast.AST, index: CodeIndex,
                       module: str) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    chain = dotted_chain(node.func)
    if chain is None:
        return None
    return index.canonical_chain(module, chain)


def catalog_locks(index: CodeIndex) -> Dict[str, LockId]:
    """Every lock binding in the tree, keyed ``module.Class.attr``.

    Reentrant kinds (RLock) are catalogued too — they participate in
    ordering cycles even though same-lock re-entry is legal for them.
    """
    locks: Dict[str, LockId] = {}
    for source in index.sources:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            chain = _constructor_chain(node.value, index, source.module)
            if chain not in _LOCK_CONSTRUCTORS:
                continue
            target = node.targets[0]
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                owner = _enclosing_class(source.tree, node)
                if owner is not None:
                    lock = LockId(source.module, owner, target.attr)
                    locks[str(lock)] = lock
            elif isinstance(target, ast.Name):
                lock = LockId(source.module, None, target.id)
                locks[str(lock)] = lock
    return locks


def _enclosing_class(tree: ast.Module, needle: ast.AST) -> Optional[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if sub is needle:
                    return node.name
    return None


def _lock_of_with_item(item: ast.withitem, info: FunctionInfo,
                       locks: Dict[str, LockId]) -> Optional[LockId]:
    expr = item.context_expr
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == "self" and info.class_name):
        key = f"{info.module}.{info.class_name}.{expr.attr}"
        return locks.get(key)
    if isinstance(expr, ast.Name):
        return locks.get(f"{info.module}.{expr.id}")
    return None


def _direct_acquisitions(info: FunctionInfo,
                         locks: Dict[str, LockId]) -> List[Tuple[LockId, int]]:
    out = []
    for node in ast.walk(info.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lock = _lock_of_with_item(item, info, locks)
                if lock is not None:
                    out.append((lock, node.lineno))
    return out


def _closure(per_function: Dict[str, Set],
             call_graph: Dict[str, Set[str]]) -> Dict[str, Set]:
    """Fixpoint union of ``per_function`` values over the call graph."""
    closed = {name: set(values) for name, values in per_function.items()}
    changed = True
    while changed:
        changed = False
        for name, callees in call_graph.items():
            bucket = closed.setdefault(name, set())
            before = len(bucket)
            for callee in callees:
                bucket.update(closed.get(callee, ()))
            if len(bucket) != before:
                changed = True
    return closed


@dataclass
class _Edge:
    held: LockId
    acquired: LockId
    path: object
    line: int
    note: str


class _HeldWalker(ast.NodeVisitor):
    """Walk one function body tracking the stack of held catalogued locks."""

    def __init__(self, info: FunctionInfo, index: CodeIndex,
                 locks: Dict[str, LockId],
                 acquire_closure: Dict[str, Set[str]],
                 blocking_closure: Dict[str, Set[str]],
                 hot_locks: FrozenSet[str]):
        self.info = info
        self.index = index
        self.locks = locks
        self.acquire_closure = acquire_closure
        self.blocking_closure = blocking_closure
        self.hot_locks = hot_locks
        self.held: List[LockId] = []
        self.edges: List[_Edge] = []
        self.findings: List[Finding] = []
        self._direct_blocking = {
            effect.line: effect.description
            for effect in blocking_effects(info, index)
        }

    def _is_hot(self, lock: LockId) -> bool:
        return lock.short in self.hot_locks or str(lock) in self.hot_locks

    def visit_With(self, node: ast.With) -> None:
        acquired = [lock for item in node.items
                    for lock in [_lock_of_with_item(item, self.info,
                                                    self.locks)]
                    if lock is not None]
        for lock in acquired:
            for held in self.held:
                self.edges.append(_Edge(held, lock, self.info.source.path,
                                        node.lineno,
                                        f"in {self.info.qualname}"))
            if lock in self.held:
                self.findings.append(Finding(
                    rule_id=RULE_ID, path=self.info.source.path,
                    line=node.lineno, severity=Severity.ERROR,
                    message=(f"'{lock.short}' re-acquired while already "
                             f"held in {self.info.qualname} — "
                             "threading.Lock is not reentrant, this "
                             "deadlocks the thread against itself")))
        self.held.extend(acquired)
        self.generic_visit(node)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            resolved = self.index.resolve_call(node, self.info)
            if resolved is not None:
                for lock_key in self.acquire_closure.get(
                        resolved.qualname, ()):
                    lock = self.locks[lock_key]
                    for held in self.held:
                        self.edges.append(_Edge(
                            held, lock, self.info.source.path, node.lineno,
                            f"{self.info.qualname} -> {resolved.qualname}"))
                    if lock in self.held:
                        self.findings.append(Finding(
                            rule_id=RULE_ID, path=self.info.source.path,
                            line=node.lineno, severity=Severity.ERROR,
                            message=(f"'{lock.short}' re-acquired via call "
                                     f"to {resolved.qualname} while already "
                                     f"held in {self.info.qualname} — "
                                     "self-deadlock")))
            hot_held = [lock for lock in self.held if self._is_hot(lock)]
            if hot_held:
                descriptions = []
                if node.lineno in self._direct_blocking:
                    descriptions.append(self._direct_blocking[node.lineno])
                if resolved is not None:
                    for reason in sorted(self.blocking_closure.get(
                            resolved.qualname, ())):
                        descriptions.append(
                            f"{reason} (via {resolved.qualname})")
                for description in descriptions[:1]:
                    self.findings.append(Finding(
                        rule_id=RULE_ID, path=self.info.source.path,
                        line=node.lineno, severity=Severity.ERROR,
                        message=(f"{description} while holding hot lock "
                                 f"'{hot_held[0].short}' — the serving "
                                 "path must never park a thread under "
                                 "this lock")))
        self.generic_visit(node)


def _find_cycles(edges: Iterable[_Edge]) -> List[Tuple[List[str], _Edge]]:
    """Elementary cycles of the holds→acquires graph (one witness each)."""
    graph: Dict[str, Dict[str, _Edge]] = {}
    for edge in edges:
        held, acquired = str(edge.held), str(edge.acquired)
        if held == acquired:
            continue  # re-entry findings are produced at the site instead
        graph.setdefault(held, {}).setdefault(acquired, edge)
    cycles: List[Tuple[List[str], _Edge]] = []
    seen_cycles: Set[FrozenSet[str]] = set()

    def dfs(start: str, node: str, trail: List[str]) -> None:
        for nxt, edge in graph.get(node, {}).items():
            if nxt == start and len(trail) > 1:
                key = frozenset(trail)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append((trail + [start], edge))
            elif nxt not in trail and nxt > start:
                dfs(start, nxt, trail + [nxt])

    for start in sorted(graph):
        dfs(start, start, [start])
    return cycles


def check(index: CodeIndex, hot_locks: Iterable[str] = ()) -> List[Finding]:
    """Run the lock-discipline rule.

    ``hot_locks`` are ``Class.attr`` shorthands (or full
    ``module.Class.attr`` ids) naming the locks on the serving path.
    """
    locks = catalog_locks(index)
    hot = frozenset(hot_locks)
    direct_acquires: Dict[str, Set[str]] = {}
    blocking: Dict[str, Set[str]] = {}
    call_graph: Dict[str, Set[str]] = {}
    for qualname, info in index.functions.items():
        direct_acquires[qualname] = {
            str(lock) for lock, _line in _direct_acquisitions(info, locks)}
        blocking[qualname] = {
            effect.description for effect in blocking_effects(info, index)}
        call_graph[qualname] = {
            resolved.qualname
            for _call, resolved in index.calls_of(info)
            if resolved is not None}
    acquire_closure = _closure(direct_acquires, call_graph)
    blocking_closure = _closure(blocking, call_graph)

    findings: List[Finding] = []
    edges: List[_Edge] = []
    for info in index.functions.values():
        walker = _HeldWalker(info, index, locks, acquire_closure,
                             blocking_closure, hot)
        walker.visit(info.node)
        findings.extend(walker.findings)
        edges.extend(walker.edges)

    for cycle, witness in _find_cycles(edges):
        pretty = " -> ".join(node.rsplit(".", 2)[-2] + "."
                             + node.rsplit(".", 2)[-1] for node in cycle)
        findings.append(Finding(
            rule_id=RULE_ID, path=witness.path, line=witness.line,
            severity=Severity.ERROR,
            message=(f"lock acquisition-order cycle {pretty} "
                     f"(witness edge {witness.note}) — two threads taking "
                     "these locks in opposite orders deadlock")))
    return findings
