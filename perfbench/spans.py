"""Layer spans recorded by wrapping the program's public functions.

The program itself carries no instrumentation. A `Tracer` replaces each
layer function with a timing wrapper at the name its caller looks up
(e.g. `mdrloa.solve_lp`, not `lp.solve_lp`) and restores the originals
when the traced pass ends. Spans stay in memory; `layer_metrics` turns
the spans of one pass into per-layer numbers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from dro_offload import evaluation, lp, mdrloa
from dro_offload.lp import LpStatus

# (module whose global is replaced, attribute, span name)
PATCH_POINTS = (
    (evaluation, "compare_methods", "evaluation.compare"),
    (evaluation, "generate_scenario", "geometry.scenario"),
    (evaluation, "build_ambiguity_sets", "ambiguity.sets"),
    (evaluation, "mdrloa_solve", "mdrloa.solve"),
    (evaluation, "do_solve", "mdrloa.solve"),
    (evaluation, "ro_solve", "mdrloa.solve"),
    (mdrloa, "build_p2", "model.build_p2"),
    (mdrloa, "solve_lp", "lp.solve"),
    (lp, "check_solution", "lp.certify"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level span


@dataclass
class Decision:
    """One (seed, method) solve as seen through the wrappers."""

    method: str
    scenario: object
    lp_count: int = 0
    result: object = None  # SolveResult, or None when the solve raised
    error: BaseException | None = None
    lps: list = field(default_factory=list)  # (LinearProgram, LpSolution), when capturing
    uncertified: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.uncertified > 0


class Tracer:
    """Context manager that records spans of one pass.

    With `capture=True` it also keeps every decision's LPs and solutions
    so the correctness checks can inspect them after the pass.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.spans: list[Span] = []
        self.decisions: list[Decision] = []
        self.lp_infeasible = 0
        self.max_residual = 0.0
        self.max_gap_rel = 0.0
        self.p2_shape = (0, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset_decisions(self) -> None:
        self.decisions.clear()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name == "mdrloa.solve":
                self.decisions.append(Decision(method=func.__name__, scenario=args[0]))
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._stack.append(index)
            try:
                out = func(*args, **kwargs)
            except BaseException as exc:
                if name == "mdrloa.solve":
                    self.decisions[-1].error = exc
                raise
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            self._observe(name, args, out)
            return out

        return wrapper

    def _observe(self, name: str, args, out) -> None:
        if name == "mdrloa.solve":
            self.decisions[-1].result = out
        elif name == "model.build_p2":
            self.p2_shape = (out.num_constraints, out.num_vars)
        elif name == "lp.solve":
            decision = self.decisions[-1]
            decision.lp_count += 1
            if self.capture:
                decision.lps.append((args[0], out))
            if out.status is LpStatus.INFEASIBLE:
                self.lp_infeasible += 1
            elif out.status is LpStatus.OPTIMAL:
                cert = out.certificate
                if cert is None or not cert.ok():
                    decision.uncertified += 1
                if cert is not None:
                    self.max_residual = max(
                        self.max_residual,
                        cert.max_primal_residual,
                        cert.max_dual_residual,
                        cert.max_complementarity,
                    )
                    self.max_gap_rel = max(self.max_gap_rel, cert.duality_gap_rel)

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer totals, self times and counts for one traced pass of `wall` seconds."""
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    count: dict[str, int] = {}
    covered = 0.0
    for s in tracer.spans:
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        count[s.name] = count.get(s.name, 0) + 1
        if s.parent < 0:
            covered += d
        else:
            parent = tracer.spans[s.parent].name
            child[parent] = child.get(parent, 0.0) + d

    def self_time(name: str) -> float:
        return total.get(name, 0.0) - child.get(name, 0.0)

    lp_ms = [1e3 * (s.end - s.start) for s in tracer.spans if s.name == "lp.solve"]
    p50, p90 = np.percentile(lp_ms, [50, 90]) if lp_ms else (0.0, 0.0)
    decisions = tracer.decisions
    n_dec = max(len(decisions), 1)
    return {
        "lp.solves": count.get("lp.solve", 0),
        "lp.solve_s": total.get("lp.solve", 0.0),
        "lp.solve_p50_ms": float(p50),
        "lp.solve_p90_ms": float(p90),
        "lp.infeasible": tracer.lp_infeasible,
        "lp.certify_s": total.get("lp.certify", 0.0),
        "lp.max_residual": tracer.max_residual,
        "lp.max_gap_rel": tracer.max_gap_rel,
        "mdrloa.decisions": len(decisions),
        "mdrloa.solve_s": total.get("mdrloa.solve", 0.0),
        "mdrloa.self_s": self_time("mdrloa.solve"),
        "mdrloa.lp_per_decision": sum(d.lp_count for d in decisions) / n_dec,
        # root-integral dives solve exactly the root and the pinning re-solve
        "mdrloa.root_integral_share": sum(d.lp_count == 2 for d in decisions) / n_dec,
        "mdrloa.failed_share": sum(d.failed for d in decisions) / n_dec,
        "model.build_p2_s": total.get("model.build_p2", 0.0),
        "model.p2_rows": tracer.p2_shape[0],
        "model.p2_cols": tracer.p2_shape[1],
        "geometry.scenario_s": total.get("geometry.scenario", 0.0),
        "ambiguity.sets_s": total.get("ambiguity.sets", 0.0),
        "evaluation.self_s": self_time("evaluation.compare"),
        "evaluation.compare_calls": count.get("evaluation.compare", 0),
        # serial per-seed time / (jobs x wall); every workload runs jobs=1, so the
        # serial time is this pass's own compare_methods time
        "evaluation.parallel_efficiency": total.get("evaluation.compare", 0.0) / wall,
        "trace.unattributed_share": max(wall - covered, 0.0) / wall,
    }
