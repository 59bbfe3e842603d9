"""Exact rational linear programming.

A small dense two-phase simplex over exact rationals.  gmpy2.mpq is used for
tableau arithmetic when available (it is noticeably faster), with
fractions.Fraction as a drop-in fallback; inputs and outputs are always
Fraction.

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
TARGET_REACHED = "target-reached"  # internal: early exit for threshold probes

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
    sol = _solve(lp, target=None)
    if sol.status == OPTIMAL:
        _assert_satisfies(lp, sol.values)
    return sol


def solve_lp_reaching(lp: LinearProgram, target: Fraction) -> LpSolution:
    """Like solve_lp, but may stop early once the objective reaches target.

    Status TARGET_REACHED certifies optimum >= target; the returned point is
    primal feasible (substitution-checked) with that objective value.
    """
    sol = _solve(lp, target=Fraction(target))
    if sol.status in (OPTIMAL, TARGET_REACHED):
        _assert_satisfies(lp, sol.values)
    return sol


def _assert_satisfies(lp: LinearProgram, values: list[Fraction]) -> None:
    for coeffs, rhs, sense in lp.rows:
        lhs = sum((values[j] * c for j, c in coeffs.items()), Fraction(0))
        if sense == EQ and lhs != rhs:
            raise AssertionError(f"equality row violated: {lhs} != {rhs}")
        if sense == LE and lhs > rhs:
            raise AssertionError(f"inequality row violated: {lhs} > {rhs}")
    for j, v in enumerate(values):
        if v < 0:
            raise AssertionError(f"negative value on x{j}")


def _solve(lp: LinearProgram, target: Fraction | None) -> LpSolution:
    tab = _Tableau(lp)
    if not tab.phase_one():
        return LpSolution(INFEASIBLE, [Fraction(0)] * lp.n_vars, Fraction(0))
    status = tab.phase_two(None if target is None else _mpq(target))
    values = tab.structural_values()
    objective = sum(
        (values[j] * c for j, c in enumerate(lp.objective)), Fraction(0)
    )
    return LpSolution(status, values, objective)


class _Tableau:
    """Dense simplex tableau; rows are lists of mpq, basis tracked by index."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_vars

        # column layout: structural | slack/surplus | artificial
        n_slack = sum(1 for _, _, sense in lp.rows if sense == LE)
        self.n_struct = n
        self.n_slack = n_slack
        self.cols = n + n_slack  # artificials appended later
        self.matrix: list[list] = []
        self.rhs: list = []
        self.basis: list[int] = []
        self.artificial_rows: list[int] = []

        slack_at = n
        art_specs: list[int] = []  # row indices needing artificials
        for coeffs, rhs, sense in lp.rows:
            flip = -1 if rhs < 0 else 1
            row = [_ZERO] * self.cols
            for j, c in coeffs.items():
                row[j] = _mpq(flip * c)
            b = _mpq(flip * rhs)
            if sense == LE:
                row[slack_at] = _mpq(flip)
                if flip > 0:
                    self.basis.append(slack_at)
                else:
                    art_specs.append(len(self.matrix))
                    self.basis.append(-1)  # placeholder for artificial
                slack_at += 1
            else:
                art_specs.append(len(self.matrix))
                self.basis.append(-1)
            self.matrix.append(row)
            self.rhs.append(b)

        for r in art_specs:
            col = self.cols
            self.cols += 1
            for row in self.matrix:
                row.append(_ZERO)
            self.matrix[r][col] = _ONE
            self.basis[r] = col
            self.artificial_rows.append(r)
        self.first_artificial = n + n_slack
        self.n_rows = len(self.matrix)
        self.budget = BUDGET_FACTOR * (self.n_rows + self.cols) ** 2 + 1000
        self.pivots = 0

    # -- pivoting core ------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        matrix, rhs = self.matrix, self.rhs
        prow = matrix[r]
        inv = _ONE / prow[c]
        if inv != 1:
            matrix[r] = prow = [a * inv for a in prow]
            rhs[r] *= inv
        obj = self.objrow
        for i in range(self.n_rows):
            if i == r:
                continue
            f = matrix[i][c]
            if f == 0:
                continue
            row = matrix[i]
            matrix[i] = [a - f * b for a, b in zip(row, prow)]
            rhs[i] -= f * rhs[r]
        f = obj[c]
        if f != 0:
            self.objrow = [a - f * b for a, b in zip(obj, prow)]
            self.objval -= f * rhs[r]
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

    def _run(self, allowed_cols: int, target) -> str:
        """Maximize the current objrow; returns OPTIMAL/UNBOUNDED/TARGET_REACHED."""
        stall = 0
        bland = False
        while True:
            if target is not None and self.objval >= target:
                return TARGET_REACHED
            obj = self.objrow
            enter = -1
            if not bland:
                best = _ZERO
                for j in range(allowed_cols):
                    v = obj[j]
                    if v < best:
                        best = v
                        enter = j
                if self.pivots > WARM_PIVOTS or stall > STALL_LIMIT:
                    bland = True
            if bland:
                enter = -1
                for j in range(allowed_cols):
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
            row = self.matrix[r]
            objrow = [a - b for a, b in zip(objrow, row)]
            self.objval -= self.rhs[r]
        for r in self.artificial_rows:
            objrow[self.basis[r]] = _ZERO
        self.objrow = objrow
        self._run(self.first_artificial, target=None)
        if self.objval != 0:
            return False
        self._drive_out_artificials()
        self._load_objective()
        return True

    def _drive_out_artificials(self) -> None:
        for r in range(self.n_rows):
            if self.basis[r] < self.first_artificial:
                continue
            row = self.matrix[r]
            for j in range(self.first_artificial):
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
        for r in range(self.n_rows):
            cb = c[self.basis[r]]
            if cb == 0:
                continue
            row = self.matrix[r]
            obj = [a + cb * b for a, b in zip(obj, row)]
            val += cb * self.rhs[r]
        # objrow stores reduced costs z_j - c_j; basic columns read exactly 0
        for r in range(self.n_rows):
            obj[self.basis[r]] = _ZERO
        self.objrow = obj
        self.objval = val

    def phase_two(self, target) -> str:
        return self._run(self.first_artificial, target)

    def structural_values(self) -> list[Fraction]:
        values = [Fraction(0)] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                q = self.rhs[r]
                values[b] = Fraction(q.numerator, q.denominator)
        return values
