"""Dense linear-program representation, a deterministic simplex solver, and
the certificate that checks its answer.

A `LinearProgram` is an immutable record of read-only arrays (objective,
constraint matrix, relations, rhs and bounds) for the one class of program
the package builds: minimise c'x over LE and EQ rows, with a finite
[lower, upper] box on every variable. It is validated once when it is
built; `lp.derive(**arrays)` is the program with some arrays replaced,
and validates only those.

The solver is one engine, a bounded dual simplex on a tableau (Chvátal,
Linear Programming, 1983, ch. 10; Koberstein, The dual simplex method,
2005, ch. 4). Box bounds stay out of the tableau: a nonbasic variable
sits at its lower or its upper bound, and a basic one that leaves at its
upper bound is complemented first. Every variable keeps a column, a fixed
one with upper bound 0 that is never priced, so a basis means the same in
every program that differs only in its bounds. Every structural variable
is boxed, so a start is made dual feasible by flips: each boxed column
priced below zero moves to its other bound. Only a slack, which has no
upper bound, cannot be flipped, and no start prices one below zero: a
solve starts only from a basis issued for its program's standard form.
The slack basis and a crash basis keep every slack basic, and a
solution's final basis passed the certify reload, which prices the slacks
too. The dual simplex then runs to primal feasibility or a proof of
infeasibility. The final basis is loaded again to certify it; where
roundoff left a boxed column priced below zero there, the solve flips it
and runs the dual simplex again, up to six attempts. Once no reduced cost
is negative, x_B and the duals get one step of iterative refinement.
Identical inputs give bit-identical outputs. An OPTIMAL result always
passes its certificate (`check_solution`); an optimum that fails it, a
solve past its iteration cap and one still priced below zero after six
attempts raise SolverError.

Dual-value convention: the reported dual of an LE row is its nonnegative
Lagrange multiplier, the amount the optimum falls per unit the rhs rises;
an EQ row's dual is its signed shadow price, d(optimum)/d(rhs). At
optimality a variable at its lower bound has reduced cost >= 0, one at
its upper bound <= 0, and one strictly between them 0.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ShapeError, SolverError

LE, EQ, GE = "<=", "=", ">="  # GE names a row the solver rejects: negate it into an LE row
_RELATIONS = (LE, EQ)

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8  # dual simplex: largest bound violation of x_B, per row relative to max(1, |x_B|)
_OPT_TOL = 1e-9  # flip rule: a boxed column priced below -_OPT_TOL moves to its other bound
# most negative reduced cost the final reload may hold: looser than _OPT_TOL, so that the
# reload's roundoff forces no retry
_CERTIFY_TOL = 1e-7
_BOUND_TOL = 1e-7  # distance at which check_solution treats x as sitting on a bound
RESIDUAL_TOL = 1e-8  # certificate: primal, dual and complementarity residuals
GAP_TOL = 1e-7  # certificate: relative duality gap

_NOT_FINITE = "objective, constraint coefficients and rhs must be finite"


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


def _frozen(values, dtype=float) -> np.ndarray:
    """`values` as an array no one can write to; an input that is already read-only is kept."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _check_bounds(lower: np.ndarray, upper: np.ndarray, n: int) -> None:
    """The one check of a program's bounds: n-vectors of finite numbers, and no empty
    interval."""
    if not lower.shape == upper.shape == (n,):
        raise ShapeError("objective, lower and upper must be vectors of one length")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ConfigError("bounds must be finite numbers: every variable needs a box")
    empty = (lower > upper).nonzero()[0]
    if empty.size:
        j = int(empty[0])
        raise ConfigError(f"variable {j} has empty bound interval [{lower[j]}, {upper[j]}]")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c'x subject to rows `matrix[r] @ x relations[r] rhs[r]`, each LE or EQ, and
    lower <= x <= upper, every bound finite.

    Immutable: the constructor validates every array once and stores it
    read-only. A program that differs from this one in some arrays is
    `lp.derive(**arrays)`: it validates the new arrays alone and shares the
    rest, and new bounds alone share the solver's standard form too.
    `dataclasses.replace` gives a fully validated program that builds its
    own standard form. `matrix=None` means no rows and `lower` defaults to
    0; `upper` has no default.
    """

    sense: ClassVar[str] = "min"

    objective: np.ndarray
    matrix: np.ndarray | None = None
    relations: np.ndarray = ()
    rhs: np.ndarray = ()
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    _form: _StandardForm | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.objective is None:
            raise ShapeError("objective must be a vector of numbers, got None")
        for name in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            value = getattr(self, name)
            if value is None and name == "upper":
                raise ConfigError("upper is required: every variable needs a finite upper bound")
            if value is None:  # the objective, converted first, gives the defaults' length
                n = self.objective.size
                value = {"matrix": np.zeros((0, n)), "lower": np.zeros(n)}[name]
            try:
                value = _frozen(value, str if name == "relations" else float)
            except (TypeError, ValueError) as exc:  # not numbers, or a ragged nesting
                raise ConfigError(f"{name} must be an array of numbers: {exc}") from None
            object.__setattr__(self, name, value)
        n, m = self.objective.size, self.rhs.size
        if self.objective.shape != (n,):
            raise ShapeError("objective, lower and upper must be vectors of one length")
        if self.matrix.shape != (m, n) or not self.relations.shape == self.rhs.shape == (m,):
            raise ShapeError(
                f"constraint matrix {self.matrix.shape}, relations {self.relations.shape} "
                f"and rhs {self.rhs.shape} do not fit {n} variables"
            )
        _check_bounds(self.lower, self.upper, n)
        if not all(np.isfinite(a).all() for a in (self.objective, self.matrix, self.rhs)):
            raise ConfigError(_NOT_FINITE)
        unknown = sorted(set(self.relations.tolist()) - set(_RELATIONS))
        if unknown:
            raise ConfigError(
                f"relations must be one of {_RELATIONS} (a GE row is its negated LE row), "
                f"got {unknown}"
            )

    def derive(self, **arrays) -> LinearProgram:
        """This program with some of its objective, matrix, rhs and bounds replaced: the
        one way a program is derived from another, used by the dive's children and by
        P2's builds from their validated template. Only the new arrays are checked,
        against this program's shapes: bounds as the constructor checks them, an
        objective, a matrix or a rhs for its shape and for finite entries. New bounds
        alone keep the standard form; otherwise the new program builds its own when
        first solved."""
        new = {name: _frozen(value) for name, value in arrays.items()}
        child = object.__new__(LinearProgram)
        vars(child).update(vars(self), **new, _form=None)
        if "lower" in new or "upper" in new:
            _check_bounds(child.lower, child.upper, self.num_vars)
        numbers = [name for name in ("objective", "matrix", "rhs") if name in new]
        if not numbers:
            vars(child)["_form"] = self._standard_form()
        elif any(getattr(child, name).shape != getattr(self, name).shape for name in numbers):
            raise ShapeError("a derived objective, matrix and rhs keep the program's shapes")
        elif not all(np.isfinite(getattr(child, name)).all() for name in numbers):
            raise ConfigError(_NOT_FINITE)
        return child

    def _standard_form(self) -> _StandardForm:
        """The solver's standard form of this program, built on first use."""
        if self._form is None:
            object.__setattr__(self, "_form", _StandardForm(self))
        return self._form

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def num_constraints(self) -> int:
        return self.matrix.shape[0]

    def row_matrix(self) -> np.ndarray:
        """The constraint matrix; the same read-only array as `matrix`."""
        return self.matrix

    def rhs_vector(self) -> np.ndarray:
        """The right-hand sides; the same read-only array as `rhs`."""
        return self.rhs


@dataclass(frozen=True)
class CertificationReport:
    max_primal_residual: float
    max_dual_residual: float
    max_complementarity: float
    duality_gap_rel: float

    def failures(self) -> list[str]:
        """One 'name = value > tolerance' entry per residual over its tolerance."""
        return [
            f"{name} = {value!r} > {tol!r}"
            for name, value, tol in (
                ("max_primal_residual", self.max_primal_residual, RESIDUAL_TOL),
                ("max_dual_residual", self.max_dual_residual, RESIDUAL_TOL),
                ("max_complementarity", self.max_complementarity, RESIDUAL_TOL),
                ("duality_gap_rel", self.duality_gap_rel, GAP_TOL),
            )
            if not value <= tol
        ]

    def ok(self) -> bool:
        return not self.failures()


@dataclass(frozen=True)
class Basis:
    """A simplex basis, for `solve_lp(..., start=...)`, issued for one standard form:
    the final basis of an optimal solution, a start for any program that shares its
    program's form (`derive` with bounds alone), or one built from a program's
    structure (a crash basis).

    `basic` has one column per row and `at_upper` lists the nonbasic columns held at
    their upper bounds. Ids are the solver's columns: the structural ones, then one
    slack per LE row and one artificial per EQ row, each in row order.

    `_factor` ties a basis to the standard form it was issued for, the only form
    that takes it as a start. An optimal solution's basis, whose arrays are
    read-only, carries `(form, inverse, tableau)`: the inverse and the tableau its
    certify step loaded, so that a warm start loads through them instead of
    inverting. A crash basis carries `(form,)` and is inverted. A
    `Basis(basic, at_upper)` built by hand carries no tie, and `solve_lp` rejects it.
    """

    basic: np.ndarray
    at_upper: np.ndarray
    _factor: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    certificate: CertificationReport | None = field(default=None, compare=False)
    basis: Basis | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# simplex internals
# ---------------------------------------------------------------------------
#
# Every tableau column is a variable t in [0, ub]. A nonbasic variable sits
# at 0 or at ub; one at ub is held complemented (t' = ub - t: its column and
# cost negated, the rhs shifted), so the tableau always reads "nonbasic at 0"
# and a column priced below zero is one to flip. `flipped` marks the columns
# held complemented.

_SIDES = np.array([[1.0], [-1.0]])  # check_solution: a variable's lower, then upper side


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot `col` into the basis at `row`: scale the pivot row, then subtract its
    multiples from every other row.

    A tableau of at most 4096 entries, or a pivot column with more than half of its
    entries nonzero, takes the whole-tableau update: one broadcast rank-1 product, the
    pivot row's own multiple zeroed. A sparser column of a larger tableau updates its
    nonzero rows alone. The rule comes from timing both per pivot (timeit, Xeon, NumPy
    2.4): on a 19 x 79 tableau (P2 at 10 x 3) the whole update took about 4.7 µs at any
    density, the nonzero rows 6.7 µs with 2 of 19 nonzero and 9.7 µs with all; on a
    43 x 343 tableau (P2 at 30 x 5) the whole update took about 23 µs, the nonzero rows
    7 µs with 2 of 43 nonzero, 21 µs with half and 36 µs with all. Both give every value
    the same bytes: a row whose entry in the column is zero gets x - 0·y, which is x for
    a tableau's finite entries. Only a -0 may turn +0, and no choice reads a zero's sign,
    nor does any output, which the certify step computes from a fresh load. Each product
    is np.outer's, bit for bit, without its ravels.
    """
    tableau[row] /= tableau[row, col]
    column = tableau[:, col]
    if tableau.size <= 4096 or 2 * np.count_nonzero(column) > column.size:
        update = column[:, None] * tableau[row]
        update[row] = 0.0
        tableau -= update
    else:
        rows = column.nonzero()[0]
        rows = rows[rows != row]
        tableau[rows] -= column[rows, None] * tableau[row]
    column[:] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _flip(tableau: np.ndarray, ub: np.ndarray, flipped: np.ndarray, col: int) -> None:
    """Move nonbasic `col` to its other bound: substitute t = ub - t'."""
    tableau[:, -1] -= ub[col] * tableau[:, col]
    tableau[:, col] *= -1.0
    flipped[col] = not flipped[col]


def _flip_basic(
    tableau: np.ndarray, basis: np.ndarray, ub: np.ndarray, flipped: np.ndarray, row: int
) -> None:
    """Complement the basic variable of `row`, so that leaving at ub reads as leaving at 0."""
    col = basis[row]
    tableau[row, :-1] *= -1.0
    tableau[row, col] = 1.0
    tableau[row, -1] = ub[col] - tableau[row, -1]
    flipped[col] = not flipped[col]


def _dual_simplex(
    tableau: np.ndarray, basis: np.ndarray, ub: np.ndarray, flipped: np.ndarray, max_iter: int
) -> bool:
    """Bounded dual simplex from a dual feasible tableau (Chvátal 1983, ch. 10).

    Returns True once every basic variable is within its bounds, False when the
    program is infeasible: a violated row that no priced column can repair.
    There is no anti-cycling rule: a solve that cycles here ends at `max_iter`
    with SolverError.
    """
    if not basis.size:  # no rows, nothing to repair
        return True
    priced = ub > 0.0
    ub_basic = ub[basis]
    # views: pivots and flips write the tableau in place
    xb, costrow = tableau[:-1, -1], tableau[-1, :-1]
    for _ in range(max_iter):
        # each row against its own |x_B|: one large basic value must not hide a small
        # violation elsewhere
        violation = np.maximum(-xb, xb - ub_basic) / np.maximum(1.0, np.abs(xb))
        row = int(violation.argmax())  # the first largest; a NaN counts as largest
        if violation[row] <= _FEAS_TOL:
            return True
        if xb[row] > ub_basic[row]:  # leaves at its ub: complemented, it leaves at 0
            _flip_basic(tableau, basis, ub, flipped, row)
        alpha = tableau[row, :-1]
        eligible = (priced & (alpha < -_PIVOT_TOL)).nonzero()[0]
        if not eligible.size:
            return False
        ratios = np.maximum(costrow[eligible], 0.0) / -alpha[eligible]
        entering = int(eligible[ratios.argmin()])
        _pivot(tableau, basis, row, entering)
        ub_basic[row] = ub[entering]
    raise SolverError(f"dual simplex exceeded {max_iter} iterations")


@functools.lru_cache(maxsize=64)
def _layout(relations: bytes, kind: str, n: int) -> dict:
    """The part of a standard form that depends only on the relations, given as their
    bytes (`kind` is their dtype), and the number of variables `n`: built once per
    pattern and shared, read-only, by every form with that pattern."""
    eq = np.frombuffer(relations, dtype=kind) == EQ
    m = eq.size
    n_real = n + int((~eq).sum())
    # each row's unit column: the slacks, then the artificials, each in row order
    basis = np.empty(m, dtype=int)
    basis[~eq] = np.arange(n, n_real)
    basis[eq] = np.arange(n_real, n + m)
    ub = np.full(n + m, np.inf)  # the variables' widths come per solve
    ub[n_real:] = 0.0

    layout = {
        # per row, +-1 mapping the multipliers y = c_B B⁻¹ to the documented duals, and back
        "dual_signs": np.where(eq, 1.0, -1.0),
        "basis": basis,
        "ub": ub,
        "ineq": ~eq,
    }
    for value in layout.values():
        value.setflags(write=False)
    return layout


class _StandardForm:
    """Reduction to `A t = b, 0 <= t <= ub` with slack and artificial columns, built
    once per program and shared by every program `derive` makes from it with new
    bounds alone: the columns' widths and the rhs are all a solve adds. Of it, only the matrix and the
    costs depend on the program's numbers; the rest is its `_layout`.

    Variable x_j has column j, t_j = x_j - lower_j in [0, upper_j - lower_j]. Then
    come one +1 slack per LE row and one artificial per EQ row, each in row order; an
    artificial has `ub = 0`. The slacks and artificials form the cold-start basis,
    whose matrix is the identity, loaded by every cold solve.
    """

    def __init__(self, lp: LinearProgram):
        relations, n = lp.relations, lp.num_vars
        vars(self).update(_layout(relations.tobytes(), relations.dtype.str, n))
        self.a_full = np.zeros((lp.num_constraints, self.ub.size))
        self.a_full[:, :n] = lp.matrix
        self.a_full[np.arange(self.basis.size), self.basis] = 1.0  # the unit columns
        self.costs = np.zeros(self.ub.size)
        self.costs[:n] = lp.objective

    def basis_from(self, start: Basis) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """Tableau basis and at-upper columns of `start`, and the inverse and tableau a
        solution's basis carries (None for a basis that names only this form).
        ConfigError unless `start` was issued for this form: a basis tied to it fits
        it, unchecked."""
        if start._factor is None or start._factor[0] is not self:
            raise ConfigError("start basis was not built for this program's standard form")
        basic = np.array(start.basic, dtype=int)  # a copy: pivots write it
        return basic, np.asarray(start.at_upper, dtype=int), start._factor[1:] or None


def _load_tableau(
    tableau, form: _StandardForm, ub, b, basis, flipped, factor=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Write B⁻¹A, x_B, the reduced costs and the objective of `basis` into `tableau`,
    with the nonbasic `flipped` columns at their upper bounds and held complemented, and
    return B⁻¹, the net rhs `b - A_U ub_U` and B (None when `factor` is given). The one
    place a tableau is built from a basis: the cold start (B = I, so B⁻¹ = I and the
    tableau is `[A | b]` exactly), a warm start and the certify step all load here.
    `factor`, the B⁻¹ and the tableau that a certify step on `form` loaded for this
    basis and these flipped columns, stands in for the inverse and for B⁻¹A and the
    reduced costs, which no bound value changes; only x_B and the objective are
    computed."""
    m = basis.size
    at_ub = flipped.nonzero()[0]
    costs = form.costs
    held, rhs, at_ub_cost = costs, b, 0.0  # held: each column's cost as the tableau holds it
    if at_ub.size:
        ub_at = ub[at_ub]
        held = costs.copy()
        held[at_ub] *= -1.0
        rhs = b - form.a_full[:, at_ub] @ ub_at
        at_ub_cost = costs[at_ub] @ ub_at
    matrix_b = None
    if factor is None:
        matrix_b = form.a_full[:, basis]
        try:
            inverse = np.linalg.inv(matrix_b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis matrix: {exc}") from exc
        # one inverse and one product: a solve with n + 1 right-hand sides costs several
        # times more
        tableau[:m, :-1] = inverse @ form.a_full
        tableau[:m, at_ub] *= -1.0
        tableau[-1, :-1] = held - held[basis] @ tableau[:m, :-1]
    else:
        inverse, loaded = factor
        tableau[:, :-1] = loaded[:, :-1]
    tableau[:m, -1] = inverse @ rhs
    tableau[-1, -1] = -float(held[basis] @ tableau[:m, -1] + at_ub_cost)
    return inverse, rhs, matrix_b


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve the program, returning a certified status.

    An OPTIMAL result always passes its certificate: it carries duals,
    reduced costs, that certificate and its final basis. An optimum that
    fails the certificate is not returned; SolverError names each failing
    residual. With `start`, a basis issued for this program's standard form,
    the solve runs from that basis instead of from the slack basis: the final
    basis of a solve on a program that shares the form (`derive` with bounds
    alone), or a crash basis built for it. The returned basis keeps the inverse of its
    final load, so a start from it inverts nothing. Raises SolverError on
    iteration blow-up, on a singular start or on a basis too ill-conditioned
    to certify, and ConfigError on a `start` issued for any other form or
    built by hand.
    """
    form = lp._standard_form()
    n = lp.num_vars
    ub = form.ub.copy()
    ub[:n] = lp.upper - lp.lower
    b = lp.rhs - lp.matrix @ lp.lower
    m, n_total = form.a_full.shape
    max_iter = 200 * (m + n_total) + 2000
    flipped = np.zeros(n_total, dtype=bool)
    tableau = np.zeros((m + 1, n_total + 1))
    costrow = tableau[-1, :-1]  # a view: every load, pivot and flip writes it
    priced = ub > 0.0  # the columns the certify step prices: not the fixed ones
    boxed = priced & (ub < np.inf)  # the columns a flip can move: not the slacks

    # a cold solve starts from the slack basis, issued for this form like any start
    start = start or Basis(form.basis, form.basis[:0], (form,))
    basis, at_ub, factor = form.basis_from(start)
    flipped[at_ub] = True
    _load_tableau(tableau, form, ub, b, basis, flipped, factor)

    for _attempt in range(6):
        # dual feasible: each boxed column priced below zero moves to its other bound
        for col in (boxed & (costrow < -_OPT_TOL)).nonzero()[0]:
            _flip(tableau, ub, flipped, col)
        # primal feasibility does not depend on the costs: False means INFEASIBLE either way
        if not _dual_simplex(tableau, basis, ub, flipped, max_iter):
            return LpSolution(status=LpStatus.INFEASIBLE)
        # certify: reload the final basis, so that roundoff the pivots piled up is gone
        flipped[basis] = False
        inverse, rhs, matrix_b = _load_tableau(tableau, form, ub, b, basis, flipped)
        if costrow[priced].min(initial=0.0) >= -_CERTIFY_TOL:
            break
        # roundoff fooled the pivots: flip and run the dual simplex from the reloaded tableau
    else:
        raise SolverError("simplex failed to reach a certified optimal basis")

    # one step of iterative refinement for x_B and y, through the load's inverse
    at_ub = flipped.nonzero()[0]
    xb = tableau[:m, -1]
    xb = xb + inverse @ (rhs - matrix_b @ xb)
    c_b = form.costs[basis]
    y = c_b @ inverse
    y += (c_b - y @ matrix_b) @ inverse

    t_values = np.zeros(n_total)
    t_values[at_ub] = ub[at_ub]
    t_values[basis] = xb.clip(0.0, ub[basis])
    x = lp.lower + t_values[:n]

    # the returned basis carries this load: its arrays must stay the ones loaded
    basis.setflags(write=False)
    at_ub.setflags(write=False)
    solution = LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=float(lp.objective @ x),
        duals=form.dual_signs * y,  # the documented convention
        reduced_costs=lp.objective - lp.matrix.T @ y,
        basis=Basis(basic=basis, at_upper=at_ub, _factor=(form, inverse, tableau)),
    )
    certificate = check_solution(lp, solution)
    failures = certificate.failures()
    if failures:
        raise SolverError("optimal solution fails its certificate: " + "; ".join(failures))
    # the certificate checks the solution it then completes: set once, before anyone reads it
    object.__setattr__(solution, "certificate", certificate)
    return solution


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def _larger(a, b) -> float:
    """max(0, a, b) as a float, and NaN if a or b is (`max` alone may drop a NaN)."""
    return float("nan") if a != a or b != b else float(max(0.0, a, b))


def check_solution(lp: LinearProgram, solution: LpSolution) -> CertificationReport:
    """Residual report for a claimed-optimal solution.

    With each bound read as a lower bound (x >= lo and -x >= -hi): the primal
    residual is the largest row or bound violation; the dual residual the largest
    negative LE-row dual or reduced cost of the wrong sign (one on both of its
    bounds, a fixed variable, may take any); complementarity the largest
    |dual * slack| or reduced cost times its distance to the bound it prices; the
    gap is relative to max(1, |c'x|). Both sides of every variable are read in one
    pass. A NaN in x, the duals or the reduced costs gives a NaN residual, so the
    certificate fails.
    """
    if solution.status is not LpStatus.OPTIMAL:
        raise ConfigError("check_solution requires an Optimal solution")
    form = lp._standard_form()
    x, duals, rhs, ineq = solution.x, solution.duals, lp.rhs, form.ineq
    excess = lp.matrix @ x - rhs
    # [lower; upper] side of each variable: the point, the bound and the reduced cost,
    # signed so that the bound is a lower one
    point = _SIDES * x
    bound = np.array((lp.lower, -lp.upper))
    reduced = _SIDES * solution.reduced_costs
    below = bound - point
    # the bound a reduced cost prices: the side on which it is positive
    on = reduced > 0
    priced = reduced[on]  # the lower sides' entries, then the upper sides'
    ineq_duals = duals[ineq]

    row_violation = np.where(ineq, excess, np.abs(excess))
    primal = _larger(row_violation.max(initial=0.0), below.max(initial=0.0))
    # a reduced cost positive on a side is a violation unless x sits on that side's
    # bound (a variable on both, a fixed one, may take any)
    wrong_sign = reduced * (point > bound + _BOUND_TOL)
    dual = _larger(-ineq_duals.min(initial=0.0), wrong_sign.max(initial=0.0))
    comp = _larger(
        np.abs(ineq_duals * excess[ineq]).max(initial=0.0),
        (priced * np.abs(below[on])).max(initial=0.0),
    )

    at, k = bound[on], np.count_nonzero(on[0])
    primal_obj = float(lp.objective @ x)
    dual_obj = float(form.dual_signs * duals @ rhs + priced[:k] @ at[:k] + priced[k:] @ at[k:])
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))

    return CertificationReport(
        max_primal_residual=primal,
        max_dual_residual=dual,
        max_complementarity=comp,
        duality_gap_rel=float(gap),
    )
