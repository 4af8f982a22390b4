"""Dense linear-program representation and a deterministic simplex solver.

The solver is a two-phase tableau simplex with a Dantzig pivot rule that
falls back to Bland's rule after a bounded number of iterations, so every
solve terminates and identical inputs give bit-identical outputs. After
the tableau reports optimality, the primal point, dual values, and
reduced costs are recomputed from the final basis with a fresh
factorization to keep residuals tight.

Dual-value convention: the reported dual of an inequality row is the
nonnegative Lagrange multiplier (for both senses of the objective);
equality duals are signed shadow prices of the stated objective sense.
Reduced costs are reported in the stated sense: at optimality a variable
sitting at its lower bound has reduced cost >= 0 for "min" (<= 0 for
"max"), and the opposite at its upper bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError, SolverError

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8  # phase-1 infeasibility threshold, scaled by the largest |b|
_OPT_TOL = 1e-9  # most negative reduced cost still counted as optimal
_BOUND_TOL = 1e-7  # distance at which check_solution treats x as sitting on a bound
RESIDUAL_TOL = 1e-8  # certificate: primal, dual and complementarity residuals
GAP_TOL = 1e-7  # certificate: relative duality gap


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LinearProgram:
    """min/max c'x subject to rows (a, relation, b) and box bounds on x."""

    def __init__(self, objective, sense: str = "min", lower=None, upper=None):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1:
            raise ShapeError("objective must be a vector")
        if not np.isfinite(self.objective).all():
            raise ConfigError("objective coefficients must be finite")
        if sense not in ("min", "max"):
            raise ConfigError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        n = self.objective.size
        self.lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
        self.upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ShapeError("bounds must match the number of variables")
        self._rows: list[np.ndarray] = []
        self._relations: list[str] = []
        self._rhs: list[float] = []

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    @property
    def relations(self) -> list[str]:
        return list(self._relations)

    def row_matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.num_vars))
        return np.vstack(self._rows)

    def rhs_vector(self) -> np.ndarray:
        return np.asarray(self._rhs, dtype=float)

    def add_constraint(self, coeffs, relation: str, rhs: float) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.num_vars,):
            raise ShapeError(
                f"constraint has {coeffs.size} coefficients, expected {self.num_vars}"
            )
        if not np.isfinite(coeffs).all() or not math.isfinite(rhs):
            raise ConfigError("constraint coefficients and rhs must be finite")
        if relation not in _RELATIONS:
            raise ConfigError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        self._rows.append(coeffs)
        self._relations.append(relation)
        self._rhs.append(float(rhs))


@dataclass(frozen=True)
class CertificationReport:
    max_primal_residual: float
    max_dual_residual: float
    max_complementarity: float
    duality_gap_rel: float

    def ok(self) -> bool:
        return (
            self.max_primal_residual <= RESIDUAL_TOL
            and self.max_dual_residual <= RESIDUAL_TOL
            and self.max_complementarity <= RESIDUAL_TOL
            and self.duality_gap_rel <= GAP_TOL
        )


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    certificate: CertificationReport | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# simplex internals
# ---------------------------------------------------------------------------


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _choose_entering(costrow: np.ndarray, bland: bool) -> int | None:
    candidates = np.nonzero(costrow < -_OPT_TOL)[0]
    if candidates.size == 0:
        return None
    if bland:
        return int(candidates[0])
    return int(candidates[np.argmin(costrow[candidates])])


def _choose_leaving(tableau: np.ndarray, basis: list[int], col: int) -> int | None:
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    rows = np.nonzero(column > _PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12]
    # smallest basis index among ties: Bland-compatible and deterministic
    return int(ties[np.argmin([basis[r] for r in ties])])


def _run_simplex(tableau: np.ndarray, basis: list[int], bland_after: int, max_iter: int) -> str:
    """Iterate to optimality. Returns 'optimal' or 'unbounded'."""
    iters = 0
    while True:
        entering = _choose_entering(tableau[-1, :-1], bland=iters >= bland_after)
        if entering is None:
            return "optimal"
        leaving = _choose_leaving(tableau, basis, entering)
        if leaving is None:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
        iters += 1
        if iters > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} iterations")


def _build_tableau(
    a: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: list[int]
) -> np.ndarray:
    m, n = a.shape
    tableau = np.zeros((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[-1, :n] = costs
    for i, col in enumerate(basis):
        if costs[col] != 0.0:
            tableau[-1] -= costs[col] * tableau[i]
    return tableau


class _Transform:
    """Bookkeeping for the reduction to `A x = b, x >= 0` standard form."""

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        a = lp.row_matrix()
        rhs = lp.rhs_vector()
        sign = 1.0 if lp.sense == "min" else -1.0
        c = sign * lp.objective

        # per-variable transform: x = offset + col_sign * t  (+ optional
        # second column for free variables, entering with coefficient -1)
        cols: list[np.ndarray] = []
        costs: list[float] = []
        self.var_main: list[int] = []
        self.var_neg: list[int | None] = []
        self.offset = np.zeros(n)
        self.col_sign = np.ones(n)
        bound_rows: list[tuple[int, float]] = []  # (transformed column, ub)
        for j in range(n):
            lo, hi = lp.lower[j], lp.upper[j]
            if lo > hi:
                raise ConfigError(f"variable {j} has empty bound interval [{lo}, {hi}]")
            if math.isfinite(lo):
                self.offset[j] = lo
                self.var_main.append(len(cols))
                self.var_neg.append(None)
                cols.append(a[:, j].copy())
                costs.append(c[j])
                if math.isfinite(hi):
                    bound_rows.append((len(cols) - 1, hi - lo))
            elif math.isfinite(hi):
                # mirrored: x = hi - t, t >= 0
                self.offset[j] = hi
                self.col_sign[j] = -1.0
                self.var_main.append(len(cols))
                self.var_neg.append(None)
                cols.append(-a[:, j])
                costs.append(-c[j])
            else:
                # free: x = t_plus - t_minus
                self.var_main.append(len(cols))
                self.var_neg.append(len(cols) + 1)
                cols.append(a[:, j].copy())
                costs.append(c[j])
                cols.append(-a[:, j])
                costs.append(-c[j])

        a_t = np.column_stack(cols) if cols else np.zeros((a.shape[0], 0))
        b_t = rhs - a @ self.offset
        relations = lp.relations
        for col, ub in bound_rows:
            extra = np.zeros(a_t.shape[1])
            extra[col] = 1.0
            a_t = np.vstack([a_t, extra])
            b_t = np.append(b_t, ub)
            relations.append(LE)

        self.num_orig_rows = a.shape[0]
        self.row_flip = np.ones(len(relations))
        for r in range(len(relations)):
            if b_t[r] < 0:
                a_t[r] *= -1.0
                b_t[r] *= -1.0
                self.row_flip[r] = -1.0
                relations[r] = {LE: GE, GE: LE, EQ: EQ}[relations[r]]

        # slack/surplus and artificial columns
        n_struct = a_t.shape[1]
        m = a_t.shape[0]
        slack_cols = []
        art_rows = []
        for r, rel in enumerate(relations):
            if rel == LE:
                slack_cols.append((r, 1.0))
            elif rel == GE:
                slack_cols.append((r, -1.0))
                art_rows.append(r)
            else:
                art_rows.append(r)
        a_full = np.zeros((m, n_struct + len(slack_cols) + len(art_rows)))
        a_full[:, :n_struct] = a_t
        basis = [-1] * m
        for k, (r, s) in enumerate(slack_cols):
            a_full[r, n_struct + k] = s
            if s > 0:
                basis[r] = n_struct + k
        self.first_artificial = n_struct + len(slack_cols)
        for k, r in enumerate(art_rows):
            a_full[r, self.first_artificial + k] = 1.0
            basis[r] = self.first_artificial + k

        self.a_full = a_full
        self.b = b_t
        self.costs = np.concatenate([np.asarray(costs), np.zeros(len(slack_cols))])
        self.n_struct = n_struct
        self.n_real = n_struct + len(slack_cols)
        self.basis = basis
        self.sense_sign = sign

    def primal_from(self, t_values: np.ndarray, lp: LinearProgram) -> np.ndarray:
        x = self.offset.copy()
        for j in range(lp.num_vars):
            x[j] += self.col_sign[j] * t_values[self.var_main[j]]
            if self.var_neg[j] is not None:
                x[j] -= t_values[self.var_neg[j]]
        return x


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program, returning a certified status.

    Optimal solutions carry duals, reduced costs, and a residual
    certificate. Raises SolverError on iteration blow-up or on a final
    basis too ill-conditioned to certify.
    """
    tr = _Transform(lp)
    m = tr.a_full.shape[0]
    n_total = tr.a_full.shape[1]
    bland_after = 5 * (m + n_total)
    max_iter = 200 * (m + n_total) + 2000

    basis = list(tr.basis)
    kept = list(range(m))
    a_work = tr.a_full
    b_work = tr.b

    if tr.first_artificial < n_total:
        phase1_costs = np.zeros(n_total)
        phase1_costs[tr.first_artificial:] = 1.0
        tableau = _build_tableau(a_work, b_work, phase1_costs, basis)
        status = _run_simplex(tableau, basis, bland_after, max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise SolverError("phase-1 simplex reported unbounded")
        scale = max(1.0, float(np.abs(b_work).max(initial=0.0)))
        if -tableau[-1, -1] > _FEAS_TOL * scale * 10.0:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # drive artificials out of the basis or drop redundant rows
        drop_rows = []
        for i in range(m):
            if basis[i] >= tr.first_artificial:
                row = tableau[i, : tr.n_real]
                nonzero = np.nonzero(np.abs(row) > 1e-7)[0]
                if nonzero.size:
                    _pivot(tableau, basis, i, int(nonzero[0]))
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep_mask = [i for i in range(m) if i not in drop_rows]
            kept = [kept[i] for i in keep_mask]
            basis = [basis[i] for i in keep_mask]
            a_work = a_work[keep_mask]
            b_work = b_work[keep_mask]

    a_real = a_work[:, : tr.n_real]
    costs = tr.costs

    for _attempt in range(6):
        matrix_b = a_real[:, basis]
        try:
            xb = np.linalg.solve(matrix_b, b_work)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis matrix: {exc}") from exc
        tableau = np.zeros((len(basis) + 1, tr.n_real + 1))
        tableau[:-1, :-1] = np.linalg.solve(matrix_b, a_real)
        tableau[:-1, -1] = xb
        tableau[-1, :-1] = costs - costs[basis] @ tableau[:-1, :-1]
        tableau[-1, -1] = -float(costs[basis] @ xb)
        status = _run_simplex(tableau, basis, bland_after, max_iter)
        if status == "unbounded":
            return LpSolution(status=LpStatus.UNBOUNDED)
        # recompute from the final basis; loop again if roundoff fooled us
        matrix_b = a_real[:, basis]
        xb = np.linalg.solve(matrix_b, b_work)
        y = np.linalg.solve(matrix_b.T, costs[basis])
        reduced = costs - y @ a_real
        if reduced.min(initial=0.0) >= -max(_OPT_TOL * 100.0, 1e-7):
            break
    else:
        raise SolverError("simplex failed to reach a certified optimal basis")

    t_values = np.zeros(tr.n_real)
    t_values[basis] = np.maximum(xb, 0.0)
    x = tr.primal_from(t_values[: tr.n_struct], lp)
    objective_value = float(lp.objective @ x)

    # duals per original constraint row, in the documented convention
    y_rows = np.zeros(tr.a_full.shape[0])
    y_rows[kept] = y
    y_signed = y_rows[: tr.num_orig_rows] * tr.row_flip[: tr.num_orig_rows]
    duals = _dual_signs(lp) * y_signed

    c_min = lp.objective if lp.sense == "min" else -lp.objective
    reduced_orig = c_min - lp.row_matrix().T @ y_signed
    if lp.sense == "max":
        reduced_orig = -reduced_orig

    solution = LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=objective_value,
        duals=duals,
        reduced_costs=reduced_orig,
    )
    return replace(solution, certificate=check_solution(lp, solution))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _dual_signs(lp: LinearProgram) -> np.ndarray:
    """Per-row +-1 mapping min-form multipliers to the documented duals, and back."""
    sign = {LE: -1.0, GE: 1.0, EQ: 1.0 if lp.sense == "min" else -1.0}
    return np.array([sign[rel] for rel in lp.relations])


def check_solution(lp: LinearProgram, solution: LpSolution) -> CertificationReport:
    """Residual report for a claimed-optimal solution."""
    if solution.status is not LpStatus.OPTIMAL:
        raise ConfigError("check_solution requires an Optimal solution")
    x = solution.x
    a = lp.row_matrix()
    rhs = lp.rhs_vector()
    relations = lp.relations
    ax = a @ x if lp.num_constraints else np.zeros(0)

    primal = 0.0
    for r, rel in enumerate(relations):
        if rel == LE:
            primal = max(primal, ax[r] - rhs[r])
        elif rel == GE:
            primal = max(primal, rhs[r] - ax[r])
        else:
            primal = max(primal, abs(ax[r] - rhs[r]))
    finite_lo = np.isfinite(lp.lower)
    finite_hi = np.isfinite(lp.upper)
    if finite_lo.any():
        primal = max(primal, float((lp.lower - x)[finite_lo].max(initial=0.0)))
    if finite_hi.any():
        primal = max(primal, float((x - lp.upper)[finite_hi].max(initial=0.0)))

    # work in min form
    c_min = lp.objective if lp.sense == "min" else -lp.objective
    duals = solution.duals
    y_signed = _dual_signs(lp) * duals
    reduced = solution.reduced_costs if lp.sense == "min" else -solution.reduced_costs

    dual = 0.0
    for r, rel in enumerate(relations):
        if rel != EQ:
            dual = max(dual, -duals[r])
    at_lo = finite_lo & (x <= lp.lower + _BOUND_TOL)
    at_hi = finite_hi & (x >= lp.upper - _BOUND_TOL)
    for j in range(lp.num_vars):
        if at_lo[j] and at_hi[j]:
            continue
        if at_lo[j]:
            dual = max(dual, -reduced[j])
        elif at_hi[j]:
            dual = max(dual, reduced[j])
        else:
            dual = max(dual, abs(reduced[j]))

    comp = 0.0
    for r, rel in enumerate(relations):
        if rel == LE:
            comp = max(comp, abs(duals[r] * (rhs[r] - ax[r])))
        elif rel == GE:
            comp = max(comp, abs(duals[r] * (ax[r] - rhs[r])))
    for j in range(lp.num_vars):
        if reduced[j] > 0 and math.isfinite(lp.lower[j]):
            comp = max(comp, reduced[j] * abs(x[j] - lp.lower[j]))
        elif reduced[j] < 0 and math.isfinite(lp.upper[j]):
            comp = max(comp, -reduced[j] * abs(lp.upper[j] - x[j]))

    primal_obj = float(c_min @ x)
    dual_obj = float(y_signed @ rhs) if lp.num_constraints else 0.0
    for j in range(lp.num_vars):
        if reduced[j] > 0 and math.isfinite(lp.lower[j]):
            dual_obj += reduced[j] * lp.lower[j]
        elif reduced[j] < 0 and math.isfinite(lp.upper[j]):
            dual_obj += reduced[j] * lp.upper[j]
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))

    return CertificationReport(
        max_primal_residual=float(primal),
        max_dual_residual=float(dual),
        max_complementarity=float(comp),
        duality_gap_rel=float(gap),
    )


# ---------------------------------------------------------------------------
# mechanical dualization
# ---------------------------------------------------------------------------


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Explicit dual of a minimization program.

    Finite upper bounds are first materialized as `x_j <= u` rows so the
    primal has only `x >= 0` or free variables. The dual is a
    maximization whose inequality-row multipliers are nonnegative
    variables; strong duality makes its optimum equal the primal's.
    """
    if lp.sense != "min":
        raise ConfigError("dual_of expects a minimization program")
    a = lp.row_matrix()
    rhs = lp.rhs_vector()
    relations = lp.relations
    free = []
    for j in range(lp.num_vars):
        if math.isfinite(lp.lower[j]) and lp.lower[j] != 0.0:
            raise ConfigError("dual_of supports lower bounds of 0 or -inf only")
        free.append(not math.isfinite(lp.lower[j]))
        if math.isfinite(lp.upper[j]):
            row = np.zeros(lp.num_vars)
            row[j] = 1.0
            a = np.vstack([a, row]) if a.size else row[None, :]
            rhs = np.append(rhs, lp.upper[j])
            relations.append(LE)

    m = len(relations)
    obj = np.empty(m)
    lower = np.empty(m)
    col_sign = np.empty(m)
    for r, rel in enumerate(relations):
        if rel == LE:
            obj[r], lower[r], col_sign[r] = -rhs[r], 0.0, -1.0
        elif rel == GE:
            obj[r], lower[r], col_sign[r] = rhs[r], 0.0, 1.0
        else:
            obj[r], lower[r], col_sign[r] = rhs[r], -np.inf, 1.0

    dual = LinearProgram(obj, sense="max", lower=lower, upper=np.full(m, np.inf))
    coeff = a * col_sign[:, None]  # signed multiplier enters stationarity
    for j in range(lp.num_vars):
        dual.add_constraint(coeff[:, j], EQ if free[j] else LE, lp.objective[j])
    return dual
