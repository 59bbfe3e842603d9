"""Exact rational linear programming.

A small two-phase simplex over exact rationals.  The tableau is stored as
dense rows, but a pivot updates only the pivot row's nonzero columns, and
the artificial variables of phase one are basis indices with no stored
column.  gmpy2.mpq is used for tableau arithmetic when available (it is
noticeably faster), with fractions.Fraction as a drop-in fallback; inputs
and outputs are always Fraction.  `solve_lp` is the one entry point, and
phase two has no early exit.

Pivoting: largest-reduced-cost (Dantzig) during a bounded warm phase, then
smallest-index (Bland) which guarantees termination.  An iteration budget of
BUDGET_FACTOR * (rows + cols)^2 is enforced; exceeding it is a bug, not a
recoverable condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpq = Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ = "eq"
LE = "le"

BUDGET_FACTOR = 4
WARM_PIVOTS = 400
STALL_LIMIT = 30

_ZERO = _mpq(0)
_ONE = _mpq(1)


class SimplexBudgetExceeded(RuntimeError):
    """The anti-cycling budget tripped; indicates a solver bug."""


@dataclass
class LinearProgram:
    """maximize objective . x subject to rows, x >= 0.

    Rows are (coeffs, rhs, sense) with sparse coeffs {var index: Fraction}
    and sense "eq" or "le".
    """

    n_vars: int
    objective: list[Fraction]
    rows: list[tuple[dict[int, Fraction], Fraction, str]] = field(default_factory=list)

    def add_row(self, coeffs: dict[int, Fraction], rhs, sense: str) -> None:
        if sense not in (EQ, LE):
            raise ValueError(f"unknown row sense {sense!r}")
        for j in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row references undeclared variable {j}")
        self.rows.append((dict(coeffs), Fraction(rhs), sense))


@dataclass
class LpSolution:
    status: str
    values: list[Fraction]
    objective_value: Fraction


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimum of the program; statuses optimal/infeasible/unbounded.

    Every optimal solution is substitution-checked against all rows before
    being returned.
    """
    tab = _Tableau(lp)
    if not tab.phase_one():
        return LpSolution(INFEASIBLE, [Fraction(0)] * lp.n_vars, Fraction(0))
    status = tab._run()
    values = tab.structural_values()
    if status == OPTIMAL:
        _assert_satisfies(lp, values)
    objective = sum((values[j] * c for j, c in enumerate(lp.objective)), Fraction(0))
    return LpSolution(status, values, objective)


def violated_row(lp: LinearProgram, values: list[Fraction]) -> str | None:
    """The first row the values break, described; None when all rows hold."""
    for coeffs, rhs, sense in lp.rows:
        lhs = sum((values[j] * c for j, c in coeffs.items()), Fraction(0))
        if sense == EQ and lhs != rhs:
            return f"equality row violated: {lhs} != {rhs}"
        if sense == LE and lhs > rhs:
            return f"inequality row violated: {lhs} > {rhs}"
    return None


def _assert_satisfies(lp: LinearProgram, values: list[Fraction]) -> None:
    violation = violated_row(lp, values)
    if violation is not None:
        raise AssertionError(violation)
    for j, v in enumerate(values):
        if v < 0:
            raise AssertionError(f"negative value on x{j}")


class _Tableau:
    """Simplex tableau: dense rows of mpq, basis tracked by index.

    Columns are structural then slack/surplus.  A row whose start needs an
    artificial variable gets a basis index from ``cols`` on, but no stored
    column: nothing prices or reads an artificial column, and a pivot
    updates only the pivot row's nonzero columns.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_vars
        n_slack = sum(1 for _, _, sense in lp.rows if sense == LE)
        self.n_struct = n
        self.cols = n + n_slack
        self.matrix: list[list] = []
        self.rhs: list = []
        self.basis: list[int] = []
        self.artificial_rows: list[int] = []

        slack_at = n
        for coeffs, rhs, sense in lp.rows:
            flip = -1 if rhs < 0 else 1
            row = [_ZERO] * self.cols
            for j, c in coeffs.items():
                row[j] = _mpq(flip * c)
            if sense == LE:
                row[slack_at] = _mpq(flip)
                slack_at += 1
            if sense == LE and flip > 0:
                self.basis.append(slack_at - 1)
            else:
                self.basis.append(self.cols + len(self.artificial_rows))
                self.artificial_rows.append(len(self.matrix))
            self.matrix.append(row)
            self.rhs.append(_mpq(flip * rhs))

        self.n_rows = len(self.matrix)
        n_cols = self.cols + len(self.artificial_rows)
        self.budget = BUDGET_FACTOR * (self.n_rows + n_cols) ** 2 + 1000
        self.pivots = 0

    # -- pivoting core ------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        # only the pivot row's nonzero columns change in any other row
        matrix, rhs = self.matrix, self.rhs
        prow = matrix[r]
        inv = _ONE / prow[c]
        nonzero = [j for j, a in enumerate(prow) if a != 0]
        if inv != 1:
            for j in nonzero:
                prow[j] *= inv
            rhs[r] *= inv
        pairs = [(j, prow[j]) for j in nonzero]
        b = rhs[r]
        for i in range(self.n_rows):
            if i == r:
                continue
            row = matrix[i]
            f = row[c]
            if f == 0:
                continue
            for j, a in pairs:
                row[j] -= f * a
            rhs[i] -= f * b
        obj = self.objrow
        f = obj[c]
        if f != 0:
            for j, a in pairs:
                obj[j] -= f * a
            self.objval -= f * b
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.budget:
            raise SimplexBudgetExceeded(
                f"simplex exceeded {self.budget} pivots "
                f"({self.n_rows} rows x {self.cols} cols)"
            )

    def _ratio_row(self, c: int) -> int | None:
        best_r = None
        best = None
        for i in range(self.n_rows):
            a = self.matrix[i][c]
            if a > 0:
                ratio = self.rhs[i] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and self.basis[i] < self.basis[best_r])
                ):
                    best = ratio
                    best_r = i
        return best_r

    def _run(self) -> str:
        """Maximize the current objrow; returns OPTIMAL or UNBOUNDED."""
        stall = 0
        bland = False
        while True:
            obj = self.objrow
            enter = -1
            if not bland:
                best = _ZERO
                for j in range(self.cols):
                    v = obj[j]
                    if v < best:
                        best = v
                        enter = j
                if self.pivots > WARM_PIVOTS or stall > STALL_LIMIT:
                    bland = True
            if bland:
                enter = -1
                for j in range(self.cols):
                    if obj[j] < 0:
                        enter = j
                        break
            if enter < 0:
                return OPTIMAL
            leave = self._ratio_row(enter)
            if leave is None:
                return UNBOUNDED
            before = self.objval
            self._pivot(leave, enter)
            stall = stall + 1 if self.objval == before else 0

    # -- phases ---------------------------------------------------------------

    def phase_one(self) -> bool:
        if not self.artificial_rows:
            self._load_objective()
            return True
        # maximize -(sum of artificials); its objrow is minus the sum of their rows
        objrow = [_ZERO] * self.cols
        self.objval = _ZERO
        for r in self.artificial_rows:
            for j, a in enumerate(self.matrix[r]):
                if a != 0:
                    objrow[j] -= a
            self.objval -= self.rhs[r]
        self.objrow = objrow
        self._run()
        if self.objval != 0:
            return False
        self._drive_out_artificials()
        self._load_objective()
        return True

    def _drive_out_artificials(self) -> None:
        for r in range(self.n_rows):
            if self.basis[r] < self.cols:
                continue
            row = self.matrix[r]
            for j in range(self.cols):
                if row[j] != 0:
                    self._pivot(r, j)
                    break
            # if no pivot column exists the row is 0 = 0 over real columns
            # and stays inert: no later pivot can change its rhs.

    def _load_objective(self) -> None:
        c = [_mpq(v) for v in self.lp.objective] + [_ZERO] * (
            self.cols - self.n_struct
        )
        obj = [-v for v in c]
        val = _ZERO
        # an inert row whose basic variable is still artificial costs 0
        real = [(r, b) for r, b in enumerate(self.basis) if b < self.cols]
        for r, b in real:
            cb = c[b]
            if cb == 0:
                continue
            for j, a in enumerate(self.matrix[r]):
                if a != 0:
                    obj[j] += cb * a
            val += cb * self.rhs[r]
        # objrow stores reduced costs z_j - c_j; basic columns read exactly 0
        for _, b in real:
            obj[b] = _ZERO
        self.objrow = obj
        self.objval = val

    def structural_values(self) -> list[Fraction]:
        values = [Fraction(0)] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                q = self.rhs[r]
                values[b] = Fraction(q.numerator, q.denominator)
        return values
