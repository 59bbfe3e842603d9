"""Exact rational linear programming.

A small two-phase simplex over exact rationals.  Each tableau row, the
objective row too, is a list of Python int numerators over one positive int
denominator, kept reduced by their gcd, with the right-hand side as the last
column.  A pivot is integer-preserving elimination (Bareiss 1968, Edmonds
1967): cross-multiplied numerators, then exact division by the row's gcd,
never a rational.  Phase one's artificials are basis indices with no stored
column.  Values in and out follow `model.exact`: int when integral, else
Fraction.  `solve_lp` is the one entry point; phase two has no early exit.

Pivoting: largest-reduced-cost (Dantzig) during a bounded warm phase, then
smallest-index (Bland) which guarantees termination.  An iteration budget of
BUDGET_FACTOR * (rows + cols)^2 is enforced; exceeding it is a bug, not a
recoverable condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .model import Rational, exact

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

EQ = "eq"
LE = "le"

BUDGET_FACTOR = 4
WARM_PIVOTS = 400
STALL_LIMIT = 30


class SimplexBudgetExceeded(RuntimeError):
    """The anti-cycling budget tripped; indicates a solver bug."""


@dataclass
class LinearProgram:
    """maximize objective . x subject to rows, x >= 0.

    Rows are (coeffs, rhs, sense): sparse exact coeffs {var index: value}
    kept as given, the rhs as `model.exact` makes it, sense "eq" or "le".
    """

    n_vars: int
    objective: list[Rational]
    rows: list[tuple[dict[int, Rational], Rational, str]] = field(default_factory=list)

    def add_row(self, coeffs: dict[int, Rational], rhs, sense: str) -> None:
        if sense not in (EQ, LE):
            raise ValueError(f"unknown row sense {sense!r}")
        for j in coeffs:
            if not 0 <= j < self.n_vars:
                raise ValueError(f"row references undeclared variable {j}")
        self.rows.append((dict(coeffs), exact(rhs), sense))


@dataclass
class LpSolution:
    """Values and objective as `model.exact` makes them: int when integral."""

    status: str
    values: list[Rational]
    objective_value: Rational


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimum of the program; statuses optimal/infeasible/unbounded.

    Every optimal solution is substitution-checked against all rows before
    being returned.
    """
    tab = _Tableau(lp)
    if not tab.phase_one():
        return LpSolution(INFEASIBLE, [0] * lp.n_vars, 0)
    status = tab._run()
    values = tab.structural_values()
    if status == OPTIMAL:
        _assert_satisfies(lp, values)
    objective = exact(sum(values[j] * c for j, c in enumerate(lp.objective)))
    return LpSolution(status, values, objective)


def violated_row(lp: LinearProgram, values: list[Rational]) -> str | None:
    """The first row the values break, described; None when all rows hold."""
    for coeffs, rhs, sense in lp.rows:
        lhs = sum(values[j] * c for j, c in coeffs.items())
        if sense == EQ and lhs != rhs:
            return f"equality row violated: {lhs} != {rhs}"
        if sense == LE and lhs > rhs:
            return f"inequality row violated: {lhs} > {rhs}"
    return None


def _assert_satisfies(lp: LinearProgram, values: list[Rational]) -> None:
    violation = violated_row(lp, values)
    if violation is not None:
        raise AssertionError(violation)
    for j, v in enumerate(values):
        if v < 0:
            raise AssertionError(f"negative value on x{j}")


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """The row over its least denominator; `den` is positive."""
    g = den if den == 1 else gcd(den, *row)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


class _Tableau:
    """Simplex tableau: int rows over a positive int denominator each.

    Entry j of row i is ``rows[i][j] / dens[i]``; the last column holds the
    rhs.  ``rows[n_rows]`` is the objective row, whose last column holds
    the objective value.  Columns are structural then slack/surplus.  A row
    whose start needs an artificial variable gets a basis index from
    ``cols`` on, but no stored column: nothing prices or reads an
    artificial column.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = self.n_struct = lp.n_vars
        self.cols = cols = n + sum(1 for _, _, sense in lp.rows if sense == LE)
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.artificial_rows: list[int] = []

        slack_at = n
        for coeffs, rhs, sense in lp.rows:
            flip = -1 if rhs < 0 else 1
            den = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            row = [0] * (cols + 1)
            for j, c in coeffs.items():
                row[j] = flip * c.numerator * (den // c.denominator)
            row[cols] = flip * rhs.numerator * (den // rhs.denominator)
            if sense == LE:
                row[slack_at] = flip * den
                slack_at += 1
            if sense == LE and flip > 0:
                self.basis.append(slack_at - 1)
            else:
                self.basis.append(cols + len(self.artificial_rows))
                self.artificial_rows.append(len(self.rows))
            row, den = _reduced(row, den)
            self.rows.append(row)
            self.dens.append(den)

        self.n_rows = len(self.rows)
        self.rows.append([0] * (cols + 1))
        self.dens.append(1)
        n_cols = cols + len(self.artificial_rows)
        self.budget = BUDGET_FACTOR * (self.n_rows + n_cols) ** 2 + 1000
        self.pivots = 0

    # -- pivoting core ------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        rows, dens = self.rows, self.dens
        prow = rows[r]
        p = prow[c]
        if p < 0:
            prow, p = [-a for a in prow], -p
        # the pivot row over p, reduced: its entry at c then equals its denominator
        prow, e = _reduced(prow, p)
        rows[r], dens[r] = prow, e
        if e == 1:
            nonzero = [(j, a) for j, a in enumerate(prow) if a]
        for i, row in enumerate(rows):
            q = row[c]
            if q == 0 or i == r:
                continue
            d = dens[i]
            if e == 1:
                # only the pivot row's nonzero columns change
                for j, a in nonzero:
                    row[j] -= q * a
                if d != 1:
                    rows[i], dens[i] = _reduced(row, d)
            else:
                row = [e * b - q * a for b, a in zip(row, prow)]
                rows[i], dens[i] = _reduced(row, d * e)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.budget:
            raise SimplexBudgetExceeded(
                f"simplex exceeded {self.budget} pivots "
                f"({self.n_rows} rows x {self.cols} cols)"
            )

    def _ratio_row(self, c: int) -> int | None:
        # rhs_i / a_i is the same over any row denominator: cross-multiply
        cols, basis = self.cols, self.basis
        best_r = None
        for i in range(self.n_rows):
            row = self.rows[i]
            a = row[c]
            if a > 0:
                b = row[cols]
                if best_r is None or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[best_r]
                ):
                    best_r, best_a, best_b = i, a, b
        return best_r

    def _run(self) -> str:
        """Maximize the objective row; returns OPTIMAL or UNBOUNDED."""
        # the row's denominator is positive: numerators order its reduced costs
        cols, obj_at = self.cols, self.n_rows
        stall = 0
        bland = False
        while True:
            obj = self.rows[obj_at]
            enter = -1
            if not bland:
                best = min(obj[:cols], default=0)
                if best < 0:
                    enter = obj.index(best)
                if self.pivots > WARM_PIVOTS or stall > STALL_LIMIT:
                    bland = True
            if bland:
                enter = next((j for j in range(cols) if obj[j] < 0), -1)
            if enter < 0:
                return OPTIMAL
            leave = self._ratio_row(enter)
            if leave is None:
                return UNBOUNDED
            before, before_den = obj[cols], self.dens[obj_at]
            self._pivot(leave, enter)
            after, after_den = self.rows[obj_at][cols], self.dens[obj_at]
            stall = stall + 1 if after * before_den == before * after_den else 0

    # -- phases ---------------------------------------------------------------

    def phase_one(self) -> bool:
        if not self.artificial_rows:
            self._load_objective()
            return True
        # maximize -(sum of artificials); its row is minus the sum of their rows
        den = lcm(*(self.dens[r] for r in self.artificial_rows))
        obj = [0] * (self.cols + 1)
        for r in self.artificial_rows:
            m = den // self.dens[r]
            for j, a in enumerate(self.rows[r]):
                if a:
                    obj[j] -= m * a
        self.rows[self.n_rows], self.dens[self.n_rows] = _reduced(obj, den)
        self._run()
        if self.rows[self.n_rows][self.cols] != 0:
            return False
        self._drive_out_artificials()
        self._load_objective()
        return True

    def _drive_out_artificials(self) -> None:
        for r in range(self.n_rows):
            if self.basis[r] < self.cols:
                continue
            row = self.rows[r]
            for j in range(self.cols):
                if row[j] != 0:
                    self._pivot(r, j)
                    break
            # if no pivot column exists the row is 0 = 0 over real columns
            # and stays inert: no later pivot can change its rhs.

    def _load_objective(self) -> None:
        cost = self.lp.objective
        # an inert row whose basic variable is still artificial costs 0
        real = [(r, b) for r, b in enumerate(self.basis) if b < self.cols]
        terms = [(r, cost[b]) for r, b in real if b < self.n_struct and cost[b]]
        den = lcm(
            *(v.denominator for v in cost),
            *(self.dens[r] * v.denominator for r, v in terms),
        )
        obj = [-v.numerator * (den // v.denominator) for v in cost]
        obj += [0] * (self.cols + 1 - self.n_struct)
        for r, v in terms:
            m = v.numerator * (den // (self.dens[r] * v.denominator))
            for j, a in enumerate(self.rows[r]):
                if a:
                    obj[j] += m * a
        # the row stores reduced costs z_j - c_j; basic columns read exactly 0
        for _, b in real:
            obj[b] = 0
        self.rows[self.n_rows], self.dens[self.n_rows] = _reduced(obj, den)

    def structural_values(self) -> list[Rational]:
        # a reduced row's denominator may still divide its rhs
        values: list[Rational] = [0] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                values[b] = exact(Fraction(self.rows[r][self.cols], self.dens[r]))
        return values
