"""Rule ``purity``: declared-pure entry points must stay pure.

``plan_dirty_schedule`` and ``simulate_schedule`` are re-executed at every
resume and every re-plan — the parity walls only hold
because the same inputs always produce the same plan.  The
:data:`repro.pigraph.scheduler.PURE_FUNCTIONS`
manifest declares that contract; this rule enforces it with a call-graph
walk from each manifest entry, rejecting any reachable wall-clock read,
randomness source, environment read, file I/O or module-global write.

Resolution is strict (see :mod:`repro.analysis.sources`): an edge is only
followed when the callee is unambiguous, so a false edge can never damn a
genuinely pure function.  The cost is that impurity hidden behind an
unresolvable indirection (a callback argument, a method on an unknown
object) is not seen — the manifest's functions take plain data in, plain
data out, which is exactly what keeps them analyzable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.effects import IMPURE_CATEGORIES, function_effects
from repro.analysis.findings import Finding, Severity
from repro.analysis.sources import CodeIndex, FunctionInfo

RULE_ID = "purity"


def _reachable(index: CodeIndex, entry: FunctionInfo
               ) -> List[Tuple[FunctionInfo, Tuple[str, ...]]]:
    """Functions reachable from ``entry`` with one witness call chain each."""
    seen = {entry.qualname}
    order = [(entry, (entry.qualname,))]
    frontier = [(entry, (entry.qualname,))]
    while frontier:
        info, chain = frontier.pop()
        for _call, resolved in index.calls_of(info, unique_fallback=False):
            if resolved is None or resolved.qualname in seen:
                continue
            seen.add(resolved.qualname)
            extended = chain + (resolved.qualname,)
            order.append((resolved, extended))
            frontier.append((resolved, extended))
    return order


def check(index: CodeIndex,
          entry_points: Dict[str, Tuple[str, int]]) -> List[Finding]:
    """Run the purity rule.

    ``entry_points`` maps each declared-pure qualname (or unique qualname
    suffix) to the ``(manifest file, line)`` that registered it, so a
    manifest entry that matches nothing is itself a finding rather than a
    silent no-op.
    """
    findings: List[Finding] = []
    reported = set()
    for declared, (manifest_path, manifest_line) in entry_points.items():
        entry = index.find(declared)
        if entry is None:
            findings.append(Finding(
                rule_id=RULE_ID, path=manifest_path, line=manifest_line,
                severity=Severity.ERROR,
                message=(f"PURE_FUNCTIONS entry '{declared}' matches no "
                         "function in the analyzed tree — fix the manifest "
                         "or the rename that orphaned it")))
            continue
        for info, chain in _reachable(index, entry):
            for effect in function_effects(info, index, unique_fallback=False):
                if effect.category not in IMPURE_CATEGORIES:
                    continue
                key = (info.source.path, effect.line, declared)
                if key in reported:
                    continue
                reported.add(key)
                via = ("" if len(chain) == 1
                       else " via " + " -> ".join(c.rsplit(".", 2)[-1]
                                                  for c in chain[1:]))
                findings.append(Finding(
                    rule_id=RULE_ID, path=info.source.path,
                    line=effect.line, severity=Severity.ERROR,
                    message=(f"declared-pure '{declared.rsplit('.', 1)[-1]}' "
                             f"reaches {effect.description}{via}; pure "
                             "schedule planners must depend on their inputs "
                             "alone")))
    return findings
