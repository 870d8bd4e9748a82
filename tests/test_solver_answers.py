"""Answer preservation for the validity path.

Speed work on the solver (integer-first simplex, cached linear forms,
shared DAG walks) must not change a single answer.  The higher-order bug
hunts on the three apps reproduce the suite digests and bug run indices
recorded in ``perfbench/expected.json``; that file is read, never written.
"""

import json
import os

import pytest

from repro.api import suite_digest
from repro.apps import build_lexer_program, build_protocol_app, build_tinyvm_app
from repro.errors import SortError
from repro.search import DirectedSearch, SearchConfig
from repro.solver import Sort, TermManager
from repro.solver.cache import QueryCache, use_cache
from repro.solver.terms import _linear_form
from repro.symbolic import ConcretizationMode

EXPECTED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "expected.json",
)

APPS = {
    "lexer": build_lexer_program,
    "protocol": build_protocol_app,
    "tinyvm": build_tinyvm_app,
}


@pytest.fixture(scope="module")
def recorded():
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)["hotg-apps"]


@pytest.mark.parametrize("name", sorted(APPS))
def test_hotg_hunt_reproduces_recorded_answers(name, recorded):
    app = APPS[name]()
    with use_cache(QueryCache()):
        search = DirectedSearch.for_mode(
            app.program,
            app.entry,
            app.fresh_natives(),
            ConcretizationMode.HIGHER_ORDER,
            SearchConfig.from_options(max_runs=150, stop_on_first_error=True),
        )
        result = search.run(app.initial_inputs())
    assert result.errors, f"{name}: the hunt found no bug"
    assert result.errors[0].run_index == recorded["bug_run_index"][name]
    assert suite_digest(result) == recorded["suite_digests"][f"{name}.hunt"]


class TestLinearizeCache:
    def _terms(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        h = tm.mk_function("h", 1)
        app = tm.mk_app(h, [x])
        return [
            tm.mk_add(tm.mk_mul(tm.mk_int(3), x), tm.mk_neg(y), tm.mk_int(-7)),
            tm.mk_add(app, tm.mk_mul(tm.mk_int(-2), app), y, tm.mk_int(4)),
            tm.mk_add(x, tm.mk_neg(x)),
            tm.mk_int(5),
            y,
        ]

    def test_form_equals_a_fresh_computation(self):
        tm = TermManager()
        for term in self._terms(tm):
            for _ in range(2):  # the first call fills the cache, the second reads it
                coeffs, const = tm.linearize(term)
                fresh_coeffs, fresh_const = _linear_form(term)
                assert list(coeffs.items()) == list(fresh_coeffs.items())
                assert const == fresh_const
                assert all(type(c) is int for c in coeffs.values())
                assert type(const) is int

    def test_compound_forms_are_computed_once(self):
        tm = TermManager()
        for term in self._terms(tm)[:3]:
            assert tm.linearize(term) is tm.linearize(term)

    @pytest.mark.parametrize("index", range(5))
    def test_callers_cannot_corrupt_the_cache(self, index):
        tm = TermManager()
        term = self._terms(tm)[index]
        coeffs, const = tm.linearize(term)
        x = tm.mk_var("x")
        with pytest.raises(TypeError):
            coeffs[x] = 99  # type: ignore[index]
        with pytest.raises(TypeError):
            del coeffs[x]  # type: ignore[attr-defined]
        assert dict(tm.linearize(term)[0]) == _linear_form(term)[0]

    def test_forms_live_on_their_manager(self):
        first, second = TermManager(), TermManager()
        a = first.mk_add(first.mk_var("x"), first.mk_int(1))
        b = second.mk_add(second.mk_var("x"), second.mk_int(2))
        assert first.linearize(a)[1] == 1
        assert second.linearize(b)[1] == 2
        assert first._linear.keys() == {a}
        assert second._linear.keys() == {b}

    def test_non_int_terms_are_refused_and_not_cached(self):
        tm = TermManager()
        atom = tm.mk_le(tm.mk_var("x"), tm.mk_int(1))
        flag = tm.mk_var("flag", Sort.BOOL)
        for term in (atom, flag, tm.true_):
            for _ in range(2):
                with pytest.raises(SortError):
                    tm.linearize(term)
            assert term not in tm._linear
