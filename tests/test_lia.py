"""Unit and property tests for the linear integer arithmetic solver."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from repro.solver import LiaSolver, Simplex


class TestSimplex:
    def test_unconstrained_sat(self):
        sx = Simplex()
        sx.new_var()
        assert sx.check().sat

    def test_bounds_sat(self):
        sx = Simplex()
        x = sx.new_var()
        assert sx.assert_lower(x, Fraction(1), "lo") is None
        assert sx.assert_upper(x, Fraction(5), "hi") is None
        r = sx.check()
        assert r.sat and 1 <= r.model[x] <= 5

    def test_bounds_conflict_immediate(self):
        sx = Simplex()
        x = sx.new_var()
        sx.assert_lower(x, Fraction(10), "lo")
        conflict = sx.assert_upper(x, Fraction(5), "hi")
        assert conflict is not None
        assert set(conflict) == {"lo", "hi"}

    def test_row_constraint(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(1), y: Fraction(1)})  # s = x + y
        sx.assert_lower(s, Fraction(10), "sum>=10")
        sx.assert_upper(x, Fraction(3), "x<=3")
        r = sx.check()
        assert r.sat
        assert r.model[x] + r.model[y] >= 10
        assert r.model[x] <= 3

    def test_infeasible_system_core(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(1), y: Fraction(1)})
        sx.assert_lower(s, Fraction(10), "sum>=10")
        sx.assert_upper(x, Fraction(3), "x<=3")
        sx.assert_upper(y, Fraction(3), "y<=3")
        r = sx.check()
        assert not r.sat
        assert set(r.core) <= {"sum>=10", "x<=3", "y<=3"}
        assert "sum>=10" in r.core

    def test_snapshot_restore(self):
        sx = Simplex()
        x = sx.new_var()
        sx.assert_lower(x, Fraction(0), "lo")
        snap = sx.snapshot()
        sx.assert_upper(x, Fraction(-5), "bad")
        sx.restore(snap)
        sx.assert_upper(x, Fraction(5), "ok")
        assert sx.check().sat

    def test_equality_via_two_bounds(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(2), y: Fraction(-1)})  # s = 2x - y
        sx.assert_lower(s, Fraction(4), "eq-lo")
        sx.assert_upper(s, Fraction(4), "eq-hi")
        r = sx.check()
        assert r.sat
        assert 2 * r.model[x] - r.model[y] == 4


class TestLiaBasics:
    def test_empty_sat(self):
        assert LiaSolver().check().sat

    def test_single_equality(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_eq({x: 1}, 5)
        r = lia.check()
        assert r.sat and r.model[x] == 5

    def test_le_and_ge_window(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_ge({x: 1}, 3)
        lia.add_le({x: 1}, 4)
        r = lia.check()
        assert r.sat and r.model[x] in (3, 4)

    def test_strict_inequalities_tighten(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_gt({x: 1}, 3)
        lia.add_lt({x: 1}, 5)
        r = lia.check()
        assert r.sat and r.model[x] == 4

    def test_conflicting_bounds(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_ge({x: 1}, 10, tag="ge")
        lia.add_le({x: 1}, 5, tag="le")
        r = lia.check()
        assert not r.sat
        assert set(r.core) == {"ge", "le"}

    def test_gcd_infeasible_equality(self):
        # 2x = 2y + 1 has no integer solution
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_eq({x: 2, y: -2}, 1, tag="parity")
        r = lia.check()
        assert not r.sat
        assert r.core == ["parity"]

    def test_gcd_tightening_of_inequality(self):
        # 2x <= 5 over Z means x <= 2
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_le({x: 2}, 5)
        lia.add_ge({x: 1}, 3, tag="x>=3")
        r = lia.check()
        assert not r.sat

    def test_trivial_constant_constraints(self):
        lia = LiaSolver()
        lia.add_le({}, 5)  # 0 <= 5: fine
        assert lia.check().sat
        lia2 = LiaSolver()
        lia2.add_le({}, -1, tag="absurd")  # 0 <= -1
        r = lia2.check()
        assert not r.sat and r.core == ["absurd"]


class TestDisequalities:
    def test_diseq_forces_split(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_ge({x: 1}, 0)
        lia.add_le({x: 1}, 1)
        lia.add_diseq({x: 1}, 0)
        r = lia.check()
        assert r.sat and r.model[x] == 1

    def test_diseq_exhausts_domain(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_ge({x: 1}, 0, tag="lo")
        lia.add_le({x: 1}, 2, tag="hi")
        for v in (0, 1, 2):
            lia.add_diseq({x: 1}, v, tag=f"ne{v}")
        r = lia.check()
        assert not r.sat

    def test_diseq_between_vars(self):
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_eq({x: 1}, 7)
        lia.add_diseq({x: 1, y: -1}, 0)  # x != y
        r = lia.check()
        assert r.sat and r.model[y] != 7

    def test_trivial_diseq_unsat(self):
        lia = LiaSolver()
        lia.add_diseq({}, 0, tag="zero!=zero")
        r = lia.check()
        assert not r.sat


class TestBranchAndBound:
    def test_fractional_vertex_forces_branching(self):
        # 2x + 2y = 3 is rationally feasible but integrally infeasible
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_eq({x: 2, y: 2}, 3, tag="e")
        r = lia.check()
        assert not r.sat

    def test_knapsack_style(self):
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_ge({x: 1}, 0)
        lia.add_ge({y: 1}, 0)
        lia.add_le({x: 3, y: 5}, 14)
        lia.add_ge({x: 3, y: 5}, 14)
        r = lia.check()
        assert r.sat
        assert 3 * r.model[x] + 5 * r.model[y] == 14

    def test_branching_counts_reported(self):
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_ge({x: 2, y: 3}, 7)
        lia.add_le({x: 2, y: 3}, 7)
        r = lia.check()
        assert r.sat and r.branches >= 1

    def test_bounded_diophantine(self):
        # 7x + 11y = 100, 0 <= x,y <= 20 has no solution... check: y=... 7x=100-11y
        # y=1 -> 89 no; y=3 -> 67 no; y=5 -> 45 no; y=7 -> 23 no; y=9 -> 1 no;
        # y=2 -> 78 no; y=4 -> 56=7*8 yes! x=8,y=4.
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_ge({x: 1}, 0)
        lia.add_ge({y: 1}, 0)
        lia.add_le({x: 1}, 20)
        lia.add_le({y: 1}, 20)
        lia.add_eq({x: 7, y: 11}, 100)
        r = lia.check()
        assert r.sat
        assert r.model[x] == 8 and r.model[y] == 4


@st.composite
def random_lia_problem(draw, max_vars=3, max_cons=6, max_coeff=4):
    n_vars = draw(st.integers(min_value=1, max_value=max_vars))
    n_cons = draw(st.integers(min_value=1, max_value=max_cons))
    cons = []
    for _ in range(n_cons):
        coeffs = {
            v: draw(st.integers(min_value=-max_coeff, max_value=max_coeff))
            for v in range(n_vars)
        }
        const = draw(st.integers(min_value=-10, max_value=10))
        op = draw(st.sampled_from(["<=", "=", "!="]))
        cons.append((coeffs, op, const))
    return n_vars, cons


def _brute_force_lia(n_vars, cons, radius=12):
    import itertools

    for point in itertools.product(range(-radius, radius + 1), repeat=n_vars):
        ok = True
        for coeffs, op, const in cons:
            total = sum(coeffs.get(v, 0) * point[v] for v in range(n_vars))
            if op == "<=" and not total <= const:
                ok = False
            elif op == "=" and total != const:
                ok = False
            elif op == "!=" and total == const:
                ok = False
            if not ok:
                break
        if ok:
            return True
    return False


class TestLiaAgainstBruteForce:
    @given(random_lia_problem())
    @settings(max_examples=120, deadline=None)
    def test_model_satisfies_constraints(self, problem):
        n_vars, cons = problem
        lia = LiaSolver()
        variables = [lia.new_var(f"x{i}") for i in range(n_vars)]
        # bound the domain so brute force and the solver agree
        for v in variables:
            lia.add_ge({v: 1}, -12)
            lia.add_le({v: 1}, 12)
        for coeffs, op, const in cons:
            mapped = {variables[v]: c for v, c in coeffs.items()}
            if op == "<=":
                lia.add_le(mapped, const)
            elif op == "=":
                lia.add_eq(mapped, const)
            else:
                lia.add_diseq(mapped, const)
        result = lia.check()
        expected = _brute_force_lia(n_vars, cons)
        assert result.sat == expected
        if result.sat:
            for coeffs, op, const in cons:
                total = sum(
                    coeffs.get(i, 0) * result.model[variables[i]]
                    for i in range(n_vars)
                )
                if op == "<=":
                    assert total <= const
                elif op == "=":
                    assert total == const
                else:
                    assert total != const


def _simplex_from_problem(n_vars, cons, keep=None):
    """One slack row per constraint of a :func:`random_lia_problem`.

    The simplex has no disequalities, so ``!=`` reads as ``>=`` here.
    Bounds are tagged ``(index, side)``; with ``keep`` only the bounds
    whose tags it contains are asserted.  Returns the simplex, its rows as
    ``(slack, coeffs, op, const)``, and an immediate conflict core if an
    assertion already produced one.
    """
    sx = Simplex()
    xs = [sx.new_var() for _ in range(n_vars)]
    rows = []
    for i, (coeffs, op, const) in enumerate(cons):
        slack = sx.add_row({xs[v]: c for v, c in coeffs.items()})
        rows.append((slack, coeffs, op, const))
        sides = {"<=": ("hi",), "=": ("hi", "lo"), "!=": ("lo",)}[op]
        for side in sides:
            tag = (i, side)
            if keep is not None and tag not in keep:
                continue
            assert_bound = sx.assert_upper if side == "hi" else sx.assert_lower
            conflict = assert_bound(slack, const, tag)
            if conflict is not None:
                return sx, xs, rows, conflict
    return sx, xs, rows, None


def _stored_numbers(sx):
    """Every value, bound and tableau coefficient the simplex holds."""
    yield from sx._beta
    yield from (b for b in sx._lower if b is not None)
    yield from (b for b in sx._upper if b is not None)
    for row in sx._rows.values():
        yield from row.values()


class TestSimplexExactness:
    """Integer-first arithmetic stays exact and keeps integral values int."""

    def test_non_unit_pivot_yields_a_fraction(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: 2, y: 4})  # s = 2x + 4y
        sx.assert_lower(s, 3, "s>=3")
        r = sx.check()
        assert r.sat
        assert 2 * r.model[x] + 4 * r.model[y] >= 3
        assert any(type(v) is Fraction for v in r.model.values())
        assert not any(
            type(v) is Fraction and v.denominator == 1 for v in _stored_numbers(sx)
        )

    def test_fraction_inputs_are_stored_as_int_when_integral(self):
        sx = Simplex()
        x = sx.new_var()
        s = sx.add_row({x: Fraction(6, 3)})
        sx.assert_upper(s, Fraction(8, 2), "hi")
        assert type(sx.bounds(s)[1]) is int
        assert all(type(c) is int for c in sx._rows[s].values())

    @given(random_lia_problem(max_vars=4, max_cons=8, max_coeff=6))
    @settings(max_examples=150, deadline=None)
    def test_rows_with_non_unit_coefficients(self, problem):
        n_vars, cons = problem
        sx, xs, rows, conflict = _simplex_from_problem(n_vars, cons)
        result = sx.check() if conflict is None else None
        assert not any(
            type(v) is Fraction and v.denominator == 1 for v in _stored_numbers(sx)
        )
        if result is not None and result.sat:
            model = {v: Fraction(val) for v, val in result.model.items()}
            for slack, coeffs, op, const in rows:
                total = sum(c * model[xs[v]] for v, c in coeffs.items())
                assert model[slack] == total
                if op in ("<=", "="):
                    assert total <= const
                if op in ("=", "!="):
                    assert total >= const
            return
        core = conflict if conflict is not None else result.core
        assert core
        again, _, _, early = _simplex_from_problem(n_vars, cons, keep=set(core))
        assert early is not None or not again.check().sat
