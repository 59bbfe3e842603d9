import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aoiflow import build_expanded, build_flow_lp, lp as lp_module
from aoiflow.lp import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SimplexBudgetExceeded,
    solve_lp,
    violated_row,
)
from conftest import corpus_instance, make_fastslow_instance


def single_bound():
    lp = LinearProgram(1, [F(1)])
    lp.add_row({0: F(1)}, F(5, 3), LE)
    return lp


def equality_split():
    lp = LinearProgram(2, [F(1), F(1)])
    lp.add_row({0: F(1), 1: F(1)}, F(1), EQ)
    return lp


def unbounded():
    return LinearProgram(1, [F(1)])


def negative_rhs():
    lp = LinearProgram(1, [F(1)])
    lp.add_row({0: F(1)}, F(-1), LE)
    return lp


def contradicting_equalities():
    lp = LinearProgram(1, [F(0)])
    lp.add_row({0: F(1)}, F(2), EQ)
    lp.add_row({0: F(1)}, F(3), EQ)
    return lp


def bounded_pair():
    lp = LinearProgram(2, [F(3), F(2)])
    lp.add_row({0: F(1)}, F(1, 2), LE)
    lp.add_row({1: F(1)}, F(2), LE)
    lp.add_row({0: F(1), 1: F(1)}, F(2), LE)
    return lp


def tiny_coefficients():
    # tiny coefficients that would smear under floating point
    lp = LinearProgram(2, [F(1, 3), F(1, 7)])
    lp.add_row({0: F(2, 5), 1: F(3, 11)}, F(1, 13), LE)
    return lp


def degenerate_square():
    # classic degenerate square; must terminate via the Bland switch
    lp = LinearProgram(4, [F(3, 4), F(-150), F(1, 50), F(-6)])
    lp.add_row({0: F(1, 4), 1: F(-60), 2: F(-1, 25), 3: F(9)}, F(0), LE)
    lp.add_row({0: F(1, 2), 1: F(-90), 2: F(-1, 50), 3: F(3)}, F(0), LE)
    lp.add_row({2: F(1)}, F(1), LE)
    return lp


def two_boxes():
    lp = LinearProgram(2, [F(1), F(1)])
    lp.add_row({0: F(1)}, F(10), LE)
    lp.add_row({1: F(1)}, F(10), LE)
    return lp


def random_programs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        lp = LinearProgram(n, [F(rng.randint(-3, 5)) for _ in range(n)])
        for _ in range(rng.randint(1, 4)):
            coeffs = {
                j: F(rng.randint(1, 6), rng.randint(1, 4))
                for j in rng.sample(range(n), rng.randint(1, n))
            }
            lp.add_row(coeffs, F(rng.randint(0, 8)), LE)
        yield lp


def fastslow_flow_program():
    inst = make_fastslow_instance()
    return build_flow_lp(build_expanded(inst, 11, 7)).program


def test_single_bound():
    sol = solve_lp(single_bound())
    assert sol.status == OPTIMAL
    assert sol.values == [F(5, 3)]
    assert sol.objective_value == F(5, 3)


def test_equality_split():
    sol = solve_lp(equality_split())
    assert sol.status == OPTIMAL
    assert sol.objective_value == 1


def test_unbounded_detected():
    assert solve_lp(unbounded()).status == UNBOUNDED


def test_infeasible_detected():
    assert solve_lp(negative_rhs()).status == INFEASIBLE


def test_contradicting_equalities():
    assert solve_lp(contradicting_equalities()).status == INFEASIBLE


def test_upper_bounds_respected():
    sol = solve_lp(bounded_pair())
    assert sol.status == OPTIMAL
    assert sol.values[0] == F(1, 2)
    assert sol.objective_value == F(3, 2) + 2 * F(3, 2)


def test_exact_rationals_no_drift():
    sol = solve_lp(tiny_coefficients())
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(1, 13) / F(2, 5) * F(1, 3)


def test_degenerate_cycling_guard():
    sol = solve_lp(degenerate_square())
    assert sol.status == OPTIMAL
    assert sol.objective_value == F(1, 20)


def test_solution_satisfies_rows_exactly():
    for lp in random_programs(7, 25):
        sol = solve_lp(lp)
        assert sol.status in (OPTIMAL, UNBOUNDED)
        if sol.status != OPTIMAL:
            continue
        for coeffs, rhs, sense in lp.rows:
            lhs = sum(sol.values[j] * c for j, c in coeffs.items())
            assert lhs <= rhs
        assert all(v >= 0 for v in sol.values)


def test_matches_float_solver_on_random_programs():
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 5)
        objective = [F(rng.randint(0, 5)) for _ in range(n)]
        lp = LinearProgram(n, objective)
        rows = rng.randint(1, 4)
        for _ in range(rows):
            coeffs = {
                j: F(rng.randint(1, 5))
                for j in rng.sample(range(n), rng.randint(1, n))
            }
            lp.add_row(coeffs, F(rng.randint(1, 9)), LE)
        for j in range(n):  # keep it bounded
            lp.add_row({j: F(1)}, F(10), LE)
        mine = solve_lp(lp)
        assert mine.status == OPTIMAL
        res = scipy.linprog(
            [-float(c) for c in objective],
            A_ub=[
                [float(coeffs.get(j, 0)) for j in range(n)]
                for coeffs, _, _ in lp.rows
            ],
            b_ub=[float(rhs) for _, rhs, _ in lp.rows],
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0
        assert abs(float(mine.objective_value) + res.fun) < 1e-7


def test_row_validation():
    lp = LinearProgram(1, [F(1)])
    with pytest.raises(ValueError):
        lp.add_row({3: F(1)}, F(1), LE)
    with pytest.raises(ValueError):
        lp.add_row({0: F(1)}, F(1), "ge")


def small_programs():
    return [
        single_bound(),
        equality_split(),
        unbounded(),
        negative_rhs(),
        contradicting_equalities(),
        bounded_pair(),
        tiny_coefficients(),
        degenerate_square(),
        two_boxes(),
        *random_programs(7, 25),
        fastslow_flow_program(),
    ]


class ReferenceTableau:
    """The simplex on a dense `Fraction` tableau: the same start, Dantzig
    then Bland pricing, ratio test and stall count as `lp._Tableau`, with
    every entry a rational and every touched row rewritten in full."""

    def __init__(self, lp):
        self.lp = lp
        self.n_struct = lp.n_vars
        self.cols = lp.n_vars + sum(1 for _, _, sense in lp.rows if sense == LE)
        self.matrix, self.rhs, self.basis, self.artificial_rows = [], [], [], []
        slack_at = lp.n_vars
        for coeffs, rhs, sense in lp.rows:
            flip = -1 if rhs < 0 else 1
            row = [F(0)] * self.cols
            for j, c in coeffs.items():
                row[j] = F(flip * c)
            if sense == LE:
                row[slack_at] = F(flip)
                slack_at += 1
            if sense == LE and flip > 0:
                self.basis.append(slack_at - 1)
            else:
                self.basis.append(self.cols + len(self.artificial_rows))
                self.artificial_rows.append(len(self.matrix))
            self.matrix.append(row)
            self.rhs.append(F(flip * rhs))
        self.n_rows = len(self.matrix)
        self.pivots = 0

    def pivot(self, r, c):
        inv = 1 / self.matrix[r][c]
        prow = self.matrix[r] = [a * inv for a in self.matrix[r]]
        self.rhs[r] *= inv
        for i in range(self.n_rows):
            f = self.matrix[i][c]
            if i != r and f != 0:
                self.matrix[i] = [a - f * b for a, b in zip(self.matrix[i], prow)]
                self.rhs[i] -= f * self.rhs[r]
        f = self.objrow[c]
        self.objrow = [a - f * b for a, b in zip(self.objrow, prow)]
        self.objval -= f * self.rhs[r]
        self.basis[r] = c
        self.pivots += 1

    def ratio_row(self, c):
        best_r = best = None
        for i in range(self.n_rows):
            a = self.matrix[i][c]
            if a > 0:
                ratio = self.rhs[i] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and self.basis[i] < self.basis[best_r])
                ):
                    best, best_r = ratio, i
        return best_r

    def run(self):
        stall = 0
        bland = False
        while True:
            enter = -1
            if not bland:
                best = F(0)
                for j, v in enumerate(self.objrow):
                    if v < best:
                        best, enter = v, j
                if self.pivots > lp_module.WARM_PIVOTS or stall > lp_module.STALL_LIMIT:
                    bland = True
            if bland:
                enter = next((j for j, v in enumerate(self.objrow) if v < 0), -1)
            if enter < 0:
                return OPTIMAL
            leave = self.ratio_row(enter)
            if leave is None:
                return UNBOUNDED
            before = self.objval
            self.pivot(leave, enter)
            stall = stall + 1 if self.objval == before else 0

    def phase_one(self):
        if self.artificial_rows:
            self.objrow = [F(0)] * self.cols
            self.objval = F(0)
            for r in self.artificial_rows:
                self.objrow = [a - b for a, b in zip(self.objrow, self.matrix[r])]
                self.objval -= self.rhs[r]
            self.run()
            if self.objval != 0:
                return False
            for r in range(self.n_rows):
                if self.basis[r] >= self.cols:
                    j = next((j for j, a in enumerate(self.matrix[r]) if a != 0), None)
                    if j is not None:
                        self.pivot(r, j)
        cost = [F(v) for v in self.lp.objective] + [F(0)] * (self.cols - self.n_struct)
        self.objrow = [-v for v in cost]
        self.objval = F(0)
        for r, b in enumerate(self.basis):
            if b < self.cols:
                row = self.matrix[r]
                self.objrow = [a + cost[b] * x for a, x in zip(self.objrow, row)]
                self.objval += cost[b] * self.rhs[r]
        return True

    def outcome(self):
        """(status, values, objective value, pivots), as `solved` gives them."""
        if not self.phase_one():
            return INFEASIBLE, [F(0)] * self.lp.n_vars, F(0), self.pivots
        status = self.run()
        values = [F(0)] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                values[b] = self.rhs[r]
        objective = sum((v * c for v, c in zip(values, self.lp.objective)), F(0))
        return status, values, objective, self.pivots


def solved(lp):
    """(status, values, objective value, pivots) of `solve_lp`."""
    real = lp_module._Tableau._pivot
    count = 0

    def counted(self, r, c):
        nonlocal count
        count += 1
        real(self, r, c)

    with mock.patch.object(lp_module._Tableau, "_pivot", counted):
        sol = solve_lp(lp)
    return sol.status, sol.values, sol.objective_value, count


def corpus_flow_programs():
    """Corpus flow programs at a few bounds."""
    programs = []
    for seed in range(40):
        inst = corpus_instance(seed)
        for bound in (4, 8, 12):
            exp = build_expanded(inst, bound, inst.max_period)
            programs.append(build_flow_lp(exp).program)
    return programs


def oracle_programs():
    """The programs `min_max_delay_oracle` solves on corpus seed 92 at period 5."""
    inst = corpus_instance(92)
    return [build_flow_lp(build_expanded(inst, b, 5)).program for b in range(13)]


def test_integer_rows_match_reference_tableau():
    """Integer rows over a row denominator take the same pivots to the same
    answers as the dense rational tableau."""
    programs = small_programs() + corpus_flow_programs() + oracle_programs()
    mine = [solved(lp) for lp in programs]
    assert mine == [ReferenceTableau(lp).outcome() for lp in programs]
    assert sum(pivots for *_, pivots in mine) > 1000
    # T=7, M=11: 7 residue classes of the fast link plus one push on the slow one
    fastslow = mine[len(small_programs()) - 1]
    assert fastslow[0] == OPTIMAL and fastslow[2] == 17


fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 12))


@st.composite
def programs(draw):
    """Small programs with EQ and LE rows, negative right-hand sides, and
    all-zero and repeated rows, which leave inert artificial rows."""
    n = draw(st.integers(1, 5))
    lp = LinearProgram(n, draw(st.lists(fractions, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["row", "row", "zero", "repeat"]))
        sense = draw(st.sampled_from([EQ, LE, LE]))
        if kind == "repeat" and lp.rows:
            coeffs, rhs, _ = draw(st.sampled_from(lp.rows))
        elif kind == "zero":
            coeffs, rhs = {}, F(0)
        else:
            variables = st.integers(0, n - 1)
            coeffs = draw(st.dictionaries(variables, fractions, min_size=1))
            rhs = draw(fractions)
        lp.add_row(coeffs, rhs, sense)
    return lp


def test_bland_rule_matches_reference_tableau(monkeypatch):
    """With no warm phase every pivot after the first follows Bland's rule."""
    monkeypatch.setattr(lp_module, "WARM_PIVOTS", 0)
    programs = small_programs() + oracle_programs()
    assert [solved(lp) for lp in programs] == [
        ReferenceTableau(lp).outcome() for lp in programs
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp=programs(), warm_pivots=st.sampled_from([lp_module.WARM_PIVOTS, 0]))
def test_random_programs_match_reference_tableau(lp, warm_pivots):
    with mock.patch.object(lp_module, "WARM_PIVOTS", warm_pivots):
        outcome = solved(lp)
        assert outcome == ReferenceTableau(lp).outcome()
    status, values, *_ = outcome
    if status == OPTIMAL:
        assert violated_row(lp, values) is None


def test_pivot_budget_trips(monkeypatch):
    """A pivot past the budget raises; degenerate_square needs more than 3."""
    assert solved(degenerate_square())[3] > 3
    real_init = lp_module._Tableau.__init__

    def tight(self, lp):
        real_init(self, lp)
        self.budget = 3

    monkeypatch.setattr(lp_module._Tableau, "__init__", tight)
    message = r"simplex exceeded 3 pivots \(3 rows x 7 cols\)"
    with pytest.raises(SimplexBudgetExceeded, match=message):
        solve_lp(degenerate_square())
