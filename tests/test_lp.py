import random
from fractions import Fraction as F

import pytest

from aoiflow import build_expanded, build_flow_lp, lp as lp_module
from aoiflow.lp import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lp,
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
    exp = build_expanded(inst, 11)
    return build_flow_lp(exp, exp.capacity_groups(7)).program


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


def use_fraction_backend(monkeypatch):
    monkeypatch.setattr(lp_module, "_mpq", F)
    monkeypatch.setattr(lp_module, "_ZERO", F(0))
    monkeypatch.setattr(lp_module, "_ONE", F(1))


def test_fraction_fallback_matches(monkeypatch):
    """The simplex gives identical answers on plain `Fraction` arithmetic,
    the path taken when gmpy2 is not installed."""
    programs = small_programs()
    default = [solve_lp(lp) for lp in programs]
    use_fraction_backend(monkeypatch)
    fallback = [solve_lp(lp) for lp in programs]
    assert fallback == default
    # T=7, M=11: 7 residue classes of the fast link plus one push on the slow one
    assert default[-1].status == OPTIMAL and default[-1].objective_value == 17


def dense_pivot(self, r, c):
    """Reference pivot: rewrites every column of every touched row."""
    matrix, rhs = self.matrix, self.rhs
    prow = matrix[r]
    inv = lp_module._ONE / prow[c]
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


def corpus_flow_calls():
    """solve_lp on corpus flow programs at a few bounds."""
    calls = []
    for seed in range(40):
        inst = corpus_instance(seed)
        for bound in (4, 8, 12):
            exp = build_expanded(inst, bound)
            program = build_flow_lp(exp, exp.capacity_groups(inst.max_period)).program
            calls.append(lambda p=program: solve_lp(p))
    return calls


# without gmpy2 the default backend already is `Fraction`; run it once
DISTINCT_BACKENDS = ["default"] + (["fraction"] if lp_module._mpq is not F else [])


@pytest.mark.parametrize("backend", DISTINCT_BACKENDS)
def test_sparse_pivot_matches_dense_reference(backend, monkeypatch):
    """Updating only the pivot row's nonzero columns takes the same pivots
    to the same answers as the dense update."""
    if backend == "fraction":
        use_fraction_backend(monkeypatch)
    calls = [lambda p=p: solve_lp(p) for p in small_programs()] + corpus_flow_calls()

    def outcomes(pivot):
        count = [0]

        def counted(self, r, c):
            count[0] += 1
            pivot(self, r, c)

        monkeypatch.setattr(lp_module._Tableau, "_pivot", counted)
        results = []
        for call in calls:
            count[0] = 0
            sol = call()
            results.append((sol.status, sol.values, sol.objective_value, count[0]))
        return results

    sparse = outcomes(lp_module._Tableau._pivot)
    dense = outcomes(dense_pivot)
    assert sparse == dense
    assert sum(pivots for *_, pivots in sparse) > 1000
