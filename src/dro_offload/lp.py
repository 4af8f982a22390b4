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
of the columns and the rhs. Of the form, only the matrix and the costs
depend on the program's numbers; the rest (the column layout, the row
flips, the dual signs and the cold basis) depends only on the relations,
the sense and which bounds are finite, and is built once per such
pattern and shared by every program that has it. Only columns with an
upper bound above 0 are priced: fixed variables and artificials never
enter (an artificial left basic on a redundant row gives that row a dual
of 0).

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
duals. An OPTIMAL result always passes its certificate (`check_solution`,
one pass over row and bound arrays the standard form precomputes); an
optimum that fails it raises SolverError instead of being returned.

Dual-value convention: the reported dual of an inequality row is the
nonnegative Lagrange multiplier (for both senses of the objective);
equality duals are signed shadow prices of the stated objective sense.
Reduced costs are reported in the stated sense: at optimality a variable
sitting at its lower bound has reduced cost >= 0 for "min" (<= 0 for
"max"), and the opposite at its upper bound.
"""

from __future__ import annotations

import enum
import functools
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

_NOT_FINITE = "objective, constraint coefficients and rhs must be finite"


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
        if self.objective is None:
            raise ShapeError("objective must be a vector of numbers, got None")
        for name in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            value = getattr(self, name)
            if value is None:  # the objective, converted first, gives the defaults' length
                n = self.objective.size
                defaults = {
                    "matrix": np.zeros((0, n)), "lower": np.zeros(n), "upper": np.full(n, np.inf)
                }
                value = defaults[name]
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
        if self.sense not in ("min", "max"):
            raise ConfigError(f"sense must be 'min' or 'max', got {self.sense!r}")
        unknown = sorted(set(self.relations.tolist()) - set(_RELATIONS))
        if unknown:
            raise ConfigError(f"relations must be one of {_RELATIONS}, got {unknown}")

    def with_bounds(self, lower, upper) -> LinearProgram:
        """This program with bounds `lower` and `upper`, the only arrays validated. It
        shares every other array, and the standard form too if the same bounds are
        finite; otherwise it builds its own when first solved."""
        return self._derive(lower=lower, upper=upper)

    def _derive(self, **arrays) -> LinearProgram:
        """This program with some of its objective, matrix and bounds replaced: the one
        way a program is derived from another, used by `with_bounds` and by P2's builds
        from their validated template. Only the new arrays are checked, against this
        program's shapes: bounds as the constructor checks them, an objective or a matrix
        for its shape and for finite entries. New bounds alone keep the standard form if
        the same ones are finite; otherwise the new program builds its own when first
        solved."""
        new = {name: _frozen(value) for name, value in arrays.items()}
        child = object.__new__(LinearProgram)
        vars(child).update(vars(self), **new, _form=None)
        if "lower" in new or "upper" in new:
            _check_bounds(child.lower, child.upper, self.num_vars)
        if "objective" in new or "matrix" in new:
            if child.objective.shape != self.objective.shape or (
                child.matrix.shape != self.matrix.shape
            ):
                raise ShapeError("a derived objective and matrix keep the program's shapes")
            if not (np.isfinite(child.objective).all() and np.isfinite(child.matrix).all()):
                raise ConfigError(_NOT_FINITE)
        else:
            form = self._standard_form()
            if form.fits(child.lower, child.upper):
                vars(child)["_form"] = form
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
_SIDES = np.array([[1.0], [-1.0]])  # check_solution: a variable's lower, then upper side


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col]
    rows = column.nonzero()[0]
    rows = rows[rows != row]
    # the broadcast product is np.outer's, bit for bit, without its ravels
    tableau[rows] -= column[rows, None] * tableau[row]
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


def _choose_leaving(
    tableau: np.ndarray, basis: np.ndarray, ub: np.ndarray, ub_basic: np.ndarray, col: int
) -> int | None:
    """Bounded ratio test: the row whose basic variable reaches 0 or its ub first,
    `_FLIP` when the entering variable reaches its own ub first, None if unbounded.
    `ub_basic` is `ub[basis]`."""
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
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
    ub_basic = ub[basis]
    iters = 0
    while True:
        k = _choose_entering(tableau[-1, view], bland=iters >= bland_after)
        if k is None:
            return True
        entering = int(priced[k])
        leaving = _choose_leaving(tableau, basis, ub, ub_basic, entering)
        if leaving is None:
            return False
        if leaving == _FLIP:
            _flip(tableau, ub, flipped, entering)
        else:
            if tableau[leaving, entering] < 0.0:  # the basic variable leaves at its ub
                _flip_basic(tableau, basis, ub, flipped, leaving)
            _pivot(tableau, basis, leaving, entering)
            ub_basic[leaving] = ub[entering]
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
def _layout(relations: bytes, kind: str, has_lo: bytes, has_hi: bytes, sense: str) -> dict:
    """The part of a standard form that depends only on the relations, the sense and which
    bounds are finite, given as those arrays' bytes (`kind` is the relations' dtype):
    built once per pattern and shared, read-only, by every form with that pattern."""
    relations = np.frombuffer(relations, dtype=kind)
    has_lo, has_hi = np.frombuffer(has_lo, dtype=bool), np.frombuffer(has_hi, dtype=bool)
    m = relations.size
    sign = 1.0 if sense == "min" else -1.0
    free = ~has_lo & ~has_hi
    width = np.where(free, 2, 1)
    var_main = np.cumsum(width) - width
    free_src = np.flatnonzero(free)
    n_struct = int(width.sum())

    le, eq, ge = (relations == relation for relation in (LE, EQ, GE))
    row_flip = np.where(ge, -1.0, 1.0)
    n_real = n_struct + int((~eq).sum())
    # each row's unit column: the slacks, then the artificials, each in row order
    basis = np.empty(m, dtype=int)
    basis[~eq] = np.arange(n_struct, n_real)
    basis[eq] = np.arange(n_real, n_struct + m)
    ub = np.full(n_struct + m, np.inf)  # the boxed columns' widths come per solve
    ub[n_real:] = 0.0

    layout = {
        "has_lo": has_lo,
        "has_hi": has_hi,
        "col_sign": np.where(~has_lo & has_hi, -1.0, 1.0),
        "var_main": var_main,
        "free_src": free_src,
        "var_neg": var_main[free_src] + 1,
        "boxed": np.flatnonzero(has_lo & has_hi),
        "n_struct": n_struct,
        "sign": sign,
        "row_flip": row_flip,
        # per row, +-1 mapping min-form multipliers to the documented duals, and back
        "dual_signs": np.where(le, -1.0, np.where(ge, 1.0, sign)),
        "basis": basis,
        "unit": (np.arange(m), basis),
        "ub": ub,
        # what check_solution reads: per row, the two signs of `A x - b` that must be
        # <= 0 (both +1 on an LE row, both -1 on a GE row, one of each on an EQ row);
        # per variable, the finite bounds as lower bounds (x >= lo and -x >= -hi) and
        # the signs that turn its reduced cost into min form on each side
        "ineq": ~eq,
        "row_sides": np.stack([row_flip, np.where(eq, -1.0, row_flip)]),
        "finite": np.stack([has_lo, has_hi]),
        "min_sides": _SIDES * sign,
    }
    for value in (*layout.values(), *layout["unit"]):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return layout


class _StandardForm:
    """Reduction to `A t = b, 0 <= t <= ub` with slack and artificial columns: the part
    that depends only on the objective, matrix, relations, sense and which bounds are
    finite. It is built once per program and shared by every program `with_bounds`
    derives from it with the same finite bounds; `bound_values` is all a solve adds.
    Of it, only the matrix with its slack and artificial columns and the costs depend
    on the numbers of the program: the rest is its `_layout`, shared by every program
    with the same relations, sense and finite bounds.

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
        relations, has_lo, has_hi = lp.relations, np.isfinite(lp.lower), np.isfinite(lp.upper)
        key = (relations.tobytes(), relations.dtype.str, has_lo.tobytes(), has_hi.tobytes())
        vars(self).update(_layout(*key, lp.sense))
        a = lp.matrix
        self.c_min = c = self.sign * lp.objective
        a_full = np.zeros((a.shape[0], self.ub.size))
        a_full[:, self.var_main] = a * self.col_sign
        a_full[:, self.var_neg] = -a[:, self.free_src]
        a_full[:, : self.n_struct] *= self.row_flip[:, None]
        a_full[self.unit] = 1.0
        self.a_full = a_full
        self.costs = np.zeros(self.ub.size)
        self.costs[self.var_main] = c * self.col_sign
        self.costs[self.var_neg] = -c[self.free_src]

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


def _price(tableau, costs, basis, at_ub, ub, reduced=True) -> None:
    """Write the reduced costs (unless `reduced` is False) and the objective of `basis`
    into the tableau's cost row, with the `at_ub` columns held complemented."""
    m = basis.size
    held, at_ub_cost = costs, 0.0  # the cost of each column as the tableau holds it
    if at_ub.size:
        held = costs.copy()
        held[at_ub] *= -1.0
        at_ub_cost = costs[at_ub] @ ub[at_ub]
    if reduced:
        tableau[-1, :-1] = held - held[basis] @ tableau[:m, :-1]
    tableau[-1, -1] = -float(held[basis] @ tableau[:m, -1] + at_ub_cost)


def _load_tableau(
    tableau, form: _StandardForm, ub, b, basis, flipped, factor=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Write B⁻¹A, x_B and the reduced costs of `basis` into `tableau`, with the nonbasic
    `flipped` columns at their upper bounds and held complemented, and return B⁻¹, the
    net rhs `b - A_U ub_U` and B (None when `factor` is given). The one place a tableau
    is built from a basis: the cold start (B = I, so B⁻¹ = I and the tableau is
    `[A | b]` exactly), a warm start and the certify step all load here. `factor`, the
    B⁻¹ and the tableau that a certify step on `form` loaded for this basis and these
    flipped columns, stands in for the inverse and for B⁻¹A and the reduced costs,
    which no bound value changes; only x_B and the objective are computed."""
    m = basis.size
    at_ub = np.flatnonzero(flipped)
    rhs = b - form.a_full[:, at_ub] @ ub[at_ub] if at_ub.size else b
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
        if at_ub.size:
            tableau[:m, at_ub] *= -1.0
    else:
        inverse, loaded = factor
        tableau[:, :-1] = loaded[:, :-1]
    tableau[:m, -1] = inverse @ rhs
    _price(tableau, form.costs, basis, at_ub, ub, reduced=factor is None)
    return inverse, rhs, matrix_b


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
        _price(tableau, costs, basis, np.flatnonzero(flipped), ub)

    for _attempt in range(6):
        if not _run_simplex(tableau, basis, ub, flipped, bland_after, max_iter):
            return LpSolution(status=LpStatus.UNBOUNDED)
        # certify: reload the final basis, so that roundoff the pivots piled up is gone
        flipped[basis] = False
        inverse, rhs, matrix_b = _load_tableau(tableau, form, ub, b, basis, flipped)
        if tableau[-1, :-1][ub > 0.0].min(initial=0.0) >= -_CERTIFY_TOL:
            break
        # roundoff fooled the pivots: phase 2 goes on from the reloaded tableau
    else:
        raise SolverError("simplex failed to reach a certified optimal basis")

    # one step of iterative refinement for x_B and y, through the load's inverse
    at_ub = np.flatnonzero(flipped)
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

    reduced_orig = form.c_min - lp.matrix.T @ y_signed
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


def _larger(a, b) -> float:
    """max(0, a, b) as a float, and NaN if a or b is (`max` alone may drop a NaN)."""
    return float("nan") if a != a or b != b else float(max(0.0, a, b))


def check_solution(lp: LinearProgram, solution: LpSolution) -> CertificationReport:
    """Residual report for a claimed-optimal solution.

    In min form, with each bound read as a lower bound (x >= lo and -x >= -hi):
    the primal residual is the largest row or bound violation; the dual residual
    the largest negative inequality dual or reduced cost of the wrong sign (one
    on both of its bounds, a fixed variable, may take any); complementarity the
    largest |dual * slack| or reduced cost times its distance to the bound it
    prices; the gap is relative to max(1, |c'x|). Both sides of every row and
    every variable are read in one pass each, through the signs and masks the
    standard form precomputes. A NaN in x, the duals or the reduced costs gives a
    NaN residual, so the certificate fails.
    """
    if solution.status is not LpStatus.OPTIMAL:
        raise ConfigError("check_solution requires an Optimal solution")
    form = lp._standard_form()
    x, duals, rhs = solution.x, solution.duals, lp.rhs
    excess = lp.matrix @ x - rhs
    # [lower; upper] side of each variable: the point, the bound and the reduced cost,
    # signed so that the bound is a lower one and the reduced cost is in min form
    point = _SIDES * x
    bound = _SIDES * (lp.lower, lp.upper)
    reduced = form.min_sides * solution.reduced_costs
    # an infinite bound (-inf here) stands at the point itself: no violation, no distance
    below = np.where(form.finite, bound, point) - point
    # the bound a reduced cost prices: the side on which it is positive, if finite
    on = (reduced > 0) & form.finite
    priced = reduced[on]  # the lower sides' entries, then the upper sides'
    ineq_duals = duals[form.ineq]

    primal = _larger((excess * form.row_sides).max(initial=0.0), below.max(initial=0.0))
    # a reduced cost positive on a side is a violation unless x sits on that side's
    # bound (a variable on both, a fixed one, may take any)
    wrong_sign = reduced * (point > bound + _BOUND_TOL)
    dual = _larger((-ineq_duals).max(initial=0.0), wrong_sign.max(initial=0.0))
    comp = _larger(
        np.abs(ineq_duals * excess[form.ineq]).max(initial=0.0),
        (priced * np.abs(below[on])).max(initial=0.0),
    )

    at, k = bound[on], np.count_nonzero(on[0])
    primal_obj = float(form.c_min @ x)
    dual_obj = float(form.dual_signs * duals @ rhs + priced[:k] @ at[:k] + priced[k:] @ at[k:])
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))

    return CertificationReport(
        max_primal_residual=primal,
        max_dual_residual=dual,
        max_complementarity=comp,
        duality_gap_rel=float(gap),
    )
