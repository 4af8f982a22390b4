"""Dense linear-program representation, a deterministic simplex solver, and
the certificate that checks its answer.

A `LinearProgram` is an immutable record of read-only arrays (objective,
constraint matrix, relations, rhs, bounds) plus the objective sense,
validated once when it is built. The solver and the certificate read
those arrays as stored; a program that differs only in its bounds is
`lp.with_bounds(lower, upper)`, which validates only the new bounds.

The solver is a bounded-variable tableau simplex (Chvátal, Linear
Programming, 1983, chs. 8 and 10). Box bounds stay out of the tableau:
the ratio test also stops when a basic variable reaches its upper bound,
or flips the entering variable to its own upper bound without a pivot.
Every variable has a column; one with `lower == upper` gets upper bound
0. GE rows are negated into `<=` rows, every inequality row gets a slack
and every EQ row an artificial with upper bound 0, so the column layout
depends only on the matrix, the relations and which bounds are finite,
and a basis of one program means the same in another that differs from
it only in its bounds. That standard form (the column layout, the
matrix with its slacks and artificials, the costs and the row flips) is
built once per program and shared by every `with_bounds` program with
the same finite bounds; a solve adds only the offsets, the upper bounds
of the columns and the rhs. Only columns with an upper bound above 0 are
priced: fixed variables and artificials never enter (an artificial left
basic on a redundant row gives that row a dual of 0).

Every solve starts from a basis: the slack/artificial basis, whose matrix
is the identity, or the `Basis` given as `start`. A start may be any basis
of this program's columns: a crash basis built from the program's
structure, or the final basis that an optimal solution of a program
differing only in its bounds returns. Every tableau, cold, warm or the
certify step's, comes from one load: the basis matrix is inverted once and
the constraint columns and the rhs are multiplied by that inverse (the
slack basis's inverse is the identity, so a cold tableau is `[A | b]`
exactly). An optimal solution's basis carries its certify load's inverse
and tableau, so a warm start from it on a program sharing the standard
form inverts nothing: B⁻¹A and the reduced costs are the parent's, and
only x_B and the objective are computed. The start is made dual
feasible: a column with a negative reduced cost moves to its upper
bound, or, without one, is priced at 0 (cost modification, Koberstein
2005). A bounded dual simplex
then restores primal feasibility, or proves the program infeasible;
after a bound is tightened, the old optimal basis stays dual feasible and
is usually a few pivots from the new optimum. Phase 2, a primal simplex
on the true costs, finishes the solve. Its pivot rule is Dantzig's,
falling back to Bland's after a bounded number of iterations; the dual
simplex has no such fallback, and a solve that exceeds its iteration cap
raises SolverError. Identical inputs give bit-identical outputs. After
the tableau reports optimality, the final basis and the set of variables
at their upper bounds are loaded again. A negative reduced cost in that
fresh tableau sends phase 2 on from it; otherwise the primal point and the
dual values get one step of iterative refinement through the load's
inverse to keep residuals tight, and the reduced costs follow from the
duals. An OPTIMAL result always passes its certificate (`check_solution`);
an optimum that fails it raises SolverError instead of being returned.

Dual-value convention: the reported dual of an inequality row is the
nonnegative Lagrange multiplier (for both senses of the objective);
equality duals are signed shadow prices of the stated objective sense.
Reduced costs are reported in the stated sense: at optimality a variable
sitting at its lower bound has reduced cost >= 0 for "min" (<= 0 for
"max"), and the opposite at its upper bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ShapeError, SolverError

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8  # dual simplex: largest bound violation of x_B, per row relative to max(1, |x_B|)
_OPT_TOL = 1e-9  # most negative reduced cost still counted as optimal
_CERTIFY_TOL = 1e-7  # the same after the final reload: looser, so that its roundoff forces no retry
_BOUND_TOL = 1e-7  # distance at which check_solution treats x as sitting on a bound
RESIDUAL_TOL = 1e-8  # certificate: primal, dual and complementarity residuals
GAP_TOL = 1e-7  # certificate: relative duality gap


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _frozen(values, dtype=float) -> np.ndarray:
    """`values` as an array no one can write to; an input that is already read-only is kept."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _check_bounds(lower: np.ndarray, upper: np.ndarray, n: int) -> None:
    """The one check of a program's bounds: n-vectors, each lower bound a number below
    +inf, each upper bound one above -inf, and no empty interval."""
    if not lower.shape == upper.shape == (n,):
        raise ShapeError("objective, lower and upper must be vectors of one length")
    # NaN fails both comparisons
    if not ((lower < np.inf) & (upper > -np.inf)).all():
        raise ConfigError("lower bounds must be numbers below +inf and upper bounds above -inf")
    empty = np.flatnonzero(lower > upper)
    if empty.size:
        j = int(empty[0])
        raise ConfigError(f"variable {j} has empty bound interval [{lower[j]}, {upper[j]}]")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max c'x subject to rows `matrix[r] @ x relations[r] rhs[r]` and box bounds on x.

    Immutable: the constructor validates every array once and stores it
    read-only. A program that differs only in its bounds is
    `lp.with_bounds(lower, upper)`: it validates the new bounds alone and
    shares the rest, the solver's standard form included.
    `dataclasses.replace` gives a fully validated program that builds its
    own standard form. `matrix=None` means no rows; `lower` defaults to 0
    and `upper` to +inf.
    """

    objective: np.ndarray
    matrix: np.ndarray | None = None
    relations: np.ndarray = ()
    rhs: np.ndarray = ()
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    sense: str = "min"
    _form: _StandardForm | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = np.size(self.objective)
        defaults = {"matrix": np.zeros((0, n)), "lower": np.zeros(n), "upper": np.full(n, np.inf)}
        for name in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            value = getattr(self, name)
            value = defaults[name] if value is None else value
            object.__setattr__(self, name, _frozen(value, str if name == "relations" else float))
        m = self.rhs.size
        if self.objective.shape != (n,):
            raise ShapeError("objective, lower and upper must be vectors of one length")
        if self.matrix.shape != (m, n) or not self.relations.shape == self.rhs.shape == (m,):
            raise ShapeError(
                f"constraint matrix {self.matrix.shape}, relations {self.relations.shape} "
                f"and rhs {self.rhs.shape} do not fit {n} variables"
            )
        _check_bounds(self.lower, self.upper, n)
        if not all(np.isfinite(a).all() for a in (self.objective, self.matrix, self.rhs)):
            raise ConfigError("objective, constraint coefficients and rhs must be finite")
        if self.sense not in ("min", "max"):
            raise ConfigError(f"sense must be 'min' or 'max', got {self.sense!r}")
        unknown = sorted(set(self.relations.tolist()) - set(_RELATIONS))
        if unknown:
            raise ConfigError(f"relations must be one of {_RELATIONS}, got {unknown}")

    def with_bounds(self, lower, upper) -> LinearProgram:
        """This program with bounds `lower` and `upper`, the only arrays validated. It
        shares every other array, and the standard form too if the same bounds are
        finite; otherwise it builds its own when first solved."""
        lower, upper = _frozen(lower), _frozen(upper)
        _check_bounds(lower, upper, self.num_vars)
        form = self._standard_form()
        child = object.__new__(LinearProgram)
        vars(child).update(
            vars(self), lower=lower, upper=upper, _form=form if form.fits(lower, upper) else None
        )
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
    """A simplex basis, for `solve_lp(..., start=...)`: the final basis of an optimal
    solution, valid for any program with the same matrix, relations and pattern of
    finite bounds, or one built from a program's structure (a crash basis).

    `basic` has one column per row and `at_upper` lists the nonbasic columns held at
    their upper bounds. Ids are the solver's columns: the structural ones, then one
    slack per inequality row and one artificial per EQ row, each in row order.

    An optimal solution's basis, whose arrays are read-only, also carries the inverse
    and the tableau its certify step loaded, tied to the standard form they came
    from: a warm start on a program sharing that form (`with_bounds`) loads through
    them instead of inverting. Any other start, a crash basis, a `Basis(basic,
    at_upper)` built by hand or one from another program, is inverted.
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
# and the entering rule is the textbook one. `flipped` marks the columns held
# complemented.

_FLIP = -1  # _choose_leaving: the entering variable reaches its own bound first


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= np.outer(tableau[rows, col], tableau[row])
    tableau[rows, col] = 0.0
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


def _choose_entering(costrow: np.ndarray, bland: bool) -> int | None:
    # Dantzig: the most negative reduced cost, ties to the lowest index; Bland: the lowest index
    if not costrow.size:
        return None
    col = int(np.argmax(costrow < -_OPT_TOL) if bland else np.argmin(costrow))
    return col if costrow[col] < -_OPT_TOL else None


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, ub: np.ndarray, col: int) -> int | None:
    """Bounded ratio test: the row whose basic variable reaches 0 or its ub first,
    `_FLIP` when the entering variable reaches its own ub first, None if unbounded."""
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    ub_basic = ub[basis]
    down = np.flatnonzero(column > _PIVOT_TOL)
    up = np.flatnonzero((column < -_PIVOT_TOL) & (ub_basic < np.inf))
    rows = np.concatenate([down, up])
    ratios = np.concatenate([rhs[down] / column[down], (ub_basic[up] - rhs[up]) / -column[up]])
    best = ratios.min(initial=np.inf)
    if ub[col] <= best:
        return _FLIP if ub[col] < np.inf else None
    ties = rows[ratios <= best + 1e-12]
    # smallest basis index among ties: Bland-compatible and deterministic
    return int(ties[np.argmin(basis[ties])])


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    ub: np.ndarray,
    flipped: np.ndarray,
    bland_after: int,
    max_iter: int,
) -> bool:
    """Iterate to optimality over the columns with ub > 0. Returns True at an optimum,
    False when the program is unbounded."""
    priced = np.flatnonzero(ub > 0.0)
    # priced columns that form a prefix (nothing fixed) are read through a view, not a copy
    prefix = priced.size > 0 and priced[-1] == priced.size - 1
    view = slice(priced.size) if prefix else priced
    iters = 0
    while True:
        k = _choose_entering(tableau[-1, view], bland=iters >= bland_after)
        if k is None:
            return True
        entering = int(priced[k])
        leaving = _choose_leaving(tableau, basis, ub, entering)
        if leaving is None:
            return False
        if leaving == _FLIP:
            _flip(tableau, ub, flipped, entering)
        else:
            if tableau[leaving, entering] < 0.0:  # the basic variable leaves at its ub
                _flip_basic(tableau, basis, ub, flipped, leaving)
            _pivot(tableau, basis, leaving, entering)
        iters += 1
        if iters > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} iterations")


def _dual_simplex(
    tableau: np.ndarray, basis: np.ndarray, ub: np.ndarray, flipped: np.ndarray, max_iter: int
) -> bool:
    """Bounded dual simplex from a dual feasible tableau (Chvátal 1983, ch. 10).

    Returns True once every basic variable is within its bounds, False when the
    program is infeasible: a violated row that no priced column can repair.
    There is no anti-cycling rule: a solve that cycles here ends at `max_iter`
    with SolverError.
    """
    priced = ub > 0.0
    for _ in range(max_iter):
        xb = tableau[:-1, -1]
        ub_basic = ub[basis]
        # each row against its own |x_B|: one large basic value must not hide a small
        # violation elsewhere
        violation = np.maximum(-xb, xb - ub_basic) / np.maximum(1.0, np.abs(xb))
        if violation.max(initial=0.0) <= _FEAS_TOL:
            return True
        row = int(np.argmax(violation))
        if xb[row] > ub_basic[row]:  # leaves at its ub: complemented, it leaves at 0
            _flip_basic(tableau, basis, ub, flipped, row)
        alpha = tableau[row, :-1]
        eligible = np.flatnonzero(priced & (alpha < -_PIVOT_TOL))
        if not eligible.size:
            return False
        ratios = np.maximum(tableau[-1, eligible], 0.0) / -alpha[eligible]
        _pivot(tableau, basis, row, int(eligible[np.argmin(ratios)]))
    raise SolverError(f"dual simplex exceeded {max_iter} iterations")


class _StandardForm:
    """Reduction to `A t = b, 0 <= t <= ub` with slack and artificial columns: the part
    that depends only on the objective, matrix, relations, sense and which bounds are
    finite. It is built once per program and shared by every program `with_bounds`
    derives from it with the same finite bounds; `bound_values` is all a solve adds.

    Per variable: a finite lower bound gives `x = lower + t` (with `ub = 0`
    when the variable is fixed); only a finite upper bound gives the mirrored
    `x = upper - t`; a free variable gives `x = t_plus - t_minus`. Each GE row
    is negated into a `<=` row, whatever the sign of its rhs. Columns keep the
    variables' order, then come one +1 slack per inequality row and one
    artificial per EQ row, each in row order; an artificial has `ub = 0`. The
    slacks and artificials form the cold-start basis, whose matrix is the
    identity.
    """

    def __init__(self, lp: LinearProgram):
        a = lp.matrix
        m = a.shape[0]
        sign = 1.0 if lp.sense == "min" else -1.0
        c = sign * lp.objective

        self.has_lo, self.has_hi = np.isfinite(lp.lower), np.isfinite(lp.upper)
        free = ~self.has_lo & ~self.has_hi
        self.col_sign = np.where(~self.has_lo & self.has_hi, -1.0, 1.0)
        width = np.where(free, 2, 1)
        self.var_main = np.cumsum(width) - width
        self.free_src = np.flatnonzero(free)
        self.var_neg = self.var_main[self.free_src] + 1
        self.boxed = np.flatnonzero(self.has_lo & self.has_hi)
        n_struct = int(width.sum())

        self.le, self.eq = lp.relations == LE, lp.relations == EQ
        ge = lp.relations == GE
        self.row_flip = np.where(ge, -1.0, 1.0)
        # per row, +-1 mapping min-form multipliers to the documented duals, and back
        self.dual_signs = np.where(self.le, -1.0, np.where(ge, 1.0, sign))
        n_real = n_struct + int((~self.eq).sum())
        # each row's unit column: the slacks, then the artificials, each in row order
        self.basis = np.empty(m, dtype=int)
        self.basis[~self.eq] = np.arange(n_struct, n_real)
        self.basis[self.eq] = np.arange(n_real, n_struct + m)

        a_full = np.zeros((m, n_struct + m))
        a_full[:, self.var_main] = a * self.col_sign
        a_full[:, self.var_neg] = -a[:, self.free_src]
        a_full[:, :n_struct] *= self.row_flip[:, None]
        a_full[np.arange(m), self.basis] = 1.0

        self.costs = np.zeros(a_full.shape[1])
        self.costs[self.var_main] = c * self.col_sign
        self.costs[self.var_neg] = -c[self.free_src]
        self.ub = np.full(a_full.shape[1], np.inf)  # the boxed columns' widths come per solve
        self.ub[n_real:] = 0.0
        self.a_full = a_full

    def fits(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Whether bounds `lower` and `upper` are finite exactly where this form's are."""
        return np.array_equal(np.isfinite(lower), self.has_lo) and np.array_equal(
            np.isfinite(upper), self.has_hi
        )

    def bound_values(self, lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The per-solve part: each variable's offset, each column's ub and the rhs b."""
        lo, hi = lp.lower, lp.upper
        offset = np.where(self.has_lo, lo, np.where(self.has_hi, hi, 0.0))
        ub = self.ub.copy()
        ub[self.var_main[self.boxed]] = hi[self.boxed] - lo[self.boxed]
        b = (lp.rhs - lp.matrix @ offset) * self.row_flip
        return offset, ub, b

    def primal_from(self, offset: np.ndarray, t_values: np.ndarray) -> np.ndarray:
        x = offset + self.col_sign * t_values[self.var_main]
        x[self.free_src] -= t_values[self.var_neg]
        return x

    def basis_from(self, start: Basis, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Tableau basis and at-upper columns of `start`, and the inverse and tableau it
        carries from a solve on this form (None from anywhere else); ConfigError if it
        does not fit. A basis that a solve on this form returned fits it, unchecked."""
        basic = np.asarray(start.basic, dtype=int)
        at_upper = np.asarray(start.at_upper, dtype=int)
        if start._factor is not None and start._factor[0] is self:
            return basic.copy(), at_upper, start._factor[1:]
        m, n = self.a_full.shape
        ids = np.concatenate([basic, at_upper])
        fits = (
            basic.shape == (m,)
            and at_upper.ndim == 1
            and ((0 <= ids) & (ids < n)).all()
            # distinct ids; np.unique would import numpy.ma, a megabyte, on first use
            and (np.diff(np.sort(ids)) != 0).all()
        )
        if not fits:
            raise ConfigError("start basis does not fit this program's columns")
        unbounded = at_upper[~np.isfinite(ub[at_upper])]
        if unbounded.size:
            raise ConfigError(
                f"start basis holds column {int(unbounded[0])} at an infinite upper bound"
            )
        return basic.copy(), at_upper, None


def _price(tableau, costs, basis, flipped, ub, reduced=True) -> None:
    """Write the reduced costs (unless `reduced` is False) and the objective of `basis`
    into the tableau's cost row, with each `flipped` column held complemented."""
    m = basis.size
    held = np.where(flipped, -costs, costs)  # the cost of each column as the tableau holds it
    if reduced:
        tableau[-1, :-1] = held - held[basis] @ tableau[:m, :-1]
    tableau[-1, -1] = -float(held[basis] @ tableau[:m, -1] + costs[flipped] @ ub[flipped])


def _load_tableau(
    tableau, form: _StandardForm, ub, b, basis, flipped, factor=None
) -> tuple[np.ndarray, np.ndarray]:
    """Write B⁻¹A, x_B and the reduced costs of `basis` into `tableau`, with the nonbasic
    `flipped` columns at their upper bounds and held complemented, and return B⁻¹ and
    the net rhs `b - A_U ub_U`. The one place a tableau is built from a basis: the cold
    start (B = I, so B⁻¹ = I and the tableau is `[A | b]` exactly), a warm start and
    the certify step all load here. `factor`, the B⁻¹ and the tableau that a certify
    step on `form` loaded for this basis and these flipped columns, stands in for the
    inverse and for B⁻¹A and the reduced costs, which no bound value changes; only x_B
    and the objective are computed."""
    m = basis.size
    at_ub = np.flatnonzero(flipped)
    rhs = b - form.a_full[:, at_ub] @ ub[at_ub]
    if factor is None:
        try:
            inverse = np.linalg.inv(form.a_full[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis matrix: {exc}") from exc
        # one inverse and one product: a solve with n + 1 right-hand sides costs several
        # times more
        tableau[:m, :-1] = inverse @ form.a_full
        tableau[:m, at_ub] *= -1.0
    else:
        inverse, loaded = factor
        tableau[:, :-1] = loaded[:, :-1]
    tableau[:m, -1] = inverse @ rhs
    _price(tableau, form.costs, basis, flipped, ub, reduced=factor is None)
    return inverse, rhs


def solve_lp(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve the program, returning a certified status.

    An OPTIMAL result always passes its certificate: it carries duals,
    reduced costs, that certificate and its final basis. An optimum that
    fails the certificate is not returned; SolverError names each failing
    residual. With `start`, any basis of this program's columns with none of
    its at-upper columns unbounded here (a crash basis, or the final basis
    of a program that differs from this one only in its bounds), the solve
    runs from that basis instead of from the slack basis. Either start, and
    the final basis that certifies the answer, loads through one inverse;
    the final one also refines x_B and the duals, and the returned basis
    keeps that inverse, so a start from it on a program sharing this one's
    standard form (`with_bounds`) inverts nothing. Raises SolverError on
    iteration blow-up, on a singular start or on a basis too ill-conditioned
    to certify, and ConfigError on a `start` that does not fit.
    """
    form = lp._standard_form()
    offset, ub, b = form.bound_values(lp)
    m, n_total = form.a_full.shape
    costs = form.costs
    bland_after = 5 * (m + n_total)
    max_iter = 200 * (m + n_total) + 2000
    flipped = np.zeros(n_total, dtype=bool)
    tableau = np.zeros((m + 1, n_total + 1))

    basis, at_ub, factor = form.basis_from(start or Basis(form.basis, np.zeros(0, dtype=int)), ub)
    flipped[at_ub] = True
    _load_tableau(tableau, form, ub, b, basis, flipped, factor)

    # make the start dual feasible: a column priced below zero moves to its upper
    # bound or, with none, is priced at 0 until the dual simplex ends (cost
    # modification, Koberstein 2005)
    negative = np.flatnonzero((ub > 0.0) & (tableau[-1, :-1] < -_OPT_TOL))
    for col in negative[np.isfinite(ub[negative])]:
        _flip(tableau, ub, flipped, col)
    modified = negative[~np.isfinite(ub[negative])]
    tableau[-1, modified] = 0.0
    # primal feasibility does not depend on the costs: False means INFEASIBLE either way
    if not _dual_simplex(tableau, basis, ub, flipped, max_iter):
        return LpSolution(status=LpStatus.INFEASIBLE)
    if modified.size:
        _price(tableau, costs, basis, flipped, ub)

    for _attempt in range(6):
        if not _run_simplex(tableau, basis, ub, flipped, bland_after, max_iter):
            return LpSolution(status=LpStatus.UNBOUNDED)
        # certify: reload the final basis, so that roundoff the pivots piled up is gone
        flipped[basis] = False
        inverse, rhs = _load_tableau(tableau, form, ub, b, basis, flipped)
        if tableau[-1, :-1][ub > 0.0].min(initial=0.0) >= -_CERTIFY_TOL:
            break
        # roundoff fooled the pivots: phase 2 goes on from the reloaded tableau
    else:
        raise SolverError("simplex failed to reach a certified optimal basis")

    # one step of iterative refinement for x_B and y, through the load's inverse
    at_ub = np.flatnonzero(flipped)
    matrix_b = form.a_full[:, basis]
    xb = tableau[:m, -1] + inverse @ (rhs - matrix_b @ tableau[:m, -1])
    y = costs[basis] @ inverse
    y += (costs[basis] - y @ matrix_b) @ inverse

    t_values = np.zeros(n_total)
    t_values[at_ub] = ub[at_ub]
    t_values[basis] = np.clip(xb, 0.0, ub[basis])
    x = form.primal_from(offset, t_values)
    objective_value = float(lp.objective @ x)

    # duals per original constraint row, in the documented convention
    y_signed = y * form.row_flip
    duals = form.dual_signs * y_signed

    c_min = lp.objective if lp.sense == "min" else -lp.objective
    reduced_orig = c_min - lp.matrix.T @ y_signed
    if lp.sense == "max":
        reduced_orig = -reduced_orig

    # the returned basis carries this load: its arrays must stay the ones loaded
    basis.setflags(write=False)
    at_ub.setflags(write=False)
    solution = LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective_value=objective_value,
        duals=duals,
        reduced_costs=reduced_orig,
        basis=Basis(basic=basis, at_upper=at_ub, _factor=(form, inverse, tableau)),
    )
    certificate = check_solution(lp, solution)
    failures = certificate.failures()
    if failures:
        raise SolverError("optimal solution fails its certificate: " + "; ".join(failures))
    return replace(solution, certificate=certificate)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def check_solution(lp: LinearProgram, solution: LpSolution) -> CertificationReport:
    """Residual report for a claimed-optimal solution."""
    if solution.status is not LpStatus.OPTIMAL:
        raise ConfigError("check_solution requires an Optimal solution")
    x = solution.x
    lo, hi, rhs = lp.lower, lp.upper, lp.rhs
    form = lp._standard_form()
    eq, finite_lo, finite_hi = form.eq, form.has_lo, form.has_hi
    ax = lp.matrix @ x
    slack = np.where(form.le, rhs - ax, ax - rhs)  # >= 0 on a satisfied inequality

    primal = max(
        0.0,
        float(np.where(eq, np.abs(ax - rhs), -slack).max(initial=0.0)),
        float((lo - x)[finite_lo].max(initial=0.0)),
        float((x - hi)[finite_hi].max(initial=0.0)),
    )

    # work in min form
    c_min = lp.objective if lp.sense == "min" else -lp.objective
    duals = solution.duals
    y_signed = form.dual_signs * duals
    reduced = solution.reduced_costs if lp.sense == "min" else -solution.reduced_costs

    at_lo = finite_lo & (x <= lo + _BOUND_TOL)
    at_hi = finite_hi & (x >= hi - _BOUND_TOL)
    # a variable on both bounds (fixed) may take any reduced cost
    off_bound = np.where(at_lo, -reduced, np.where(at_hi, reduced, np.abs(reduced)))
    dual = max(
        0.0,
        float((-duals[~eq]).max(initial=0.0)),
        float(off_bound[~(at_lo & at_hi)].max(initial=0.0)),
    )

    # the bound a nonzero reduced cost prices: lower when positive, upper when negative
    on_lo = (reduced > 0) & finite_lo
    on_hi = (reduced < 0) & finite_hi
    comp = max(
        0.0,
        float(np.abs(duals[~eq] * slack[~eq]).max(initial=0.0)),
        float((reduced[on_lo] * np.abs(x[on_lo] - lo[on_lo])).max(initial=0.0)),
        float((-reduced[on_hi] * np.abs(hi[on_hi] - x[on_hi])).max(initial=0.0)),
    )

    primal_obj = float(c_min @ x)
    dual_obj = float(y_signed @ rhs + reduced[on_lo] @ lo[on_lo] + reduced[on_hi] @ hi[on_hi])
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))

    return CertificationReport(
        max_primal_residual=primal,
        max_dual_residual=dual,
        max_complementarity=comp,
        duality_gap_rel=float(gap),
    )
