"""Probability tables: sampling estimator and exact optimal-plan oracle.

The oracle counts optimal plans; reference_oracle lists them, and the
tests check that both give equal tables.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec.bench import build_problem
from goalrec.errors import (
    GoalRecError,
    ParameterError,
    SearchCapExceededError,
    UnreachableGoalError,
    ValidationError,
)
from goalrec.gridgen import DOMAIN_TEXT, GridSpec, random_grid, template_text
from goalrec.grounding import GroundAction, GroundProblem
from goalrec.probability import (
    DEFAULT_STATE_CAP,
    EMPIRICAL_UNION,
    EXACT,
    NOISY_OR,
    estimate,
    exact_oracle,
)
from goalrec.relaxed import build_rpg

from atoms import parse_hypothesis_line
from conftest import TABLE1
from reference_estimate import (
    action_counts,
    empirical_union_probabilities,
    noisy_or_probabilities,
)
from reference_oracle import exact_oracle_enumerated
from reference_rpg import relaxed_reachable


class TestEstimate:
    def test_s0_facts_have_probability_one(self, grid):
        problem, _ = grid
        for goal_index in range(2):
            table = estimate(problem, goal_index)
            for f in problem.s0:
                assert table.p[f] == 1.0

    def test_chain_unique_supporter_probabilities(self, chain):
        # (start) is static and not part of the fact universe.
        problem, _ = chain
        table = estimate(problem, 0)  # goal (f3)
        expected = {"(f1)": 1.0, "(f2)": 1.0, "(f3)": 1.0,
                    "(f4)": 0.0, "(f5)": 0.0}
        for name, p in expected.items():
            assert table.p[problem.fact_id(name)] == p

    def test_goal_facts_have_probability_one(self, grid, chain, logistics):
        for problem, _ in (grid, chain, logistics):
            for goal_index, goal in enumerate(problem.goals):
                table = estimate(problem, goal_index)
                if table.unreachable:
                    continue
                for f in goal:
                    assert table.p[f] == 1.0

    def test_entries_within_unit_interval(self, grid):
        problem, _ = grid
        for goal_index in range(2):
            table = estimate(problem, goal_index, seed=11)
            assert np.all(table.p >= 0.0)
            assert np.all(table.p <= 1.0)

    def test_support_consistency(self, grid):
        # Positive probability requires s0 membership or relaxed reachability.
        problem, _ = grid
        for goal_index in range(2):
            table = estimate(problem, goal_index)
            rpg = build_rpg(problem, problem.goals[goal_index])
            for f in range(problem.fact_count):
                if table.p[f] > 0:
                    assert f in problem.s0 or relaxed_reachable(rpg, f, problem.fact_count)

    def test_same_seed_identical_tables(self, grid):
        problem, _ = grid
        a = estimate(problem, 0, seed=123)
        b = estimate(problem, 0, seed=123)
        assert np.array_equal(a.p, b.p)

    def test_unreachable_goal_zero_table(self, grid_instance):
        hyps = (
            parse_hypothesis_line("(is-at c1)"),
            parse_hypothesis_line("(is-at c7)"),  # blocked cell
        )
        problem = build_problem(
            grid_instance.domain_text, grid_instance.template_text, hyps
        )
        table = estimate(problem, 1)
        assert table.unreachable
        for f in range(problem.fact_count):
            assert table.p[f] == (1.0 if f in problem.s0 else 0.0)

    def test_noisy_or_variant(self, grid):
        # Under independence, two supporters selected 5/10 times each give
        # the goal fact 1 - 0.5 * 0.5 = 0.75 rather than 1.0.
        problem, _ = grid
        table = estimate(problem, 0, aggregation=NOISY_OR)
        assert table.source == NOISY_OR
        assert np.all(table.p >= 0.0) and np.all(table.p <= 1.0)
        for f in problem.s0:
            assert table.p[f] == 1.0
        (goal_fact,) = problem.goals[0]
        assert table.p[goal_fact] == pytest.approx(0.75)

    @pytest.mark.parametrize("fixture", ["grid", "chain", "logistics"])
    def test_noisy_or_equals_its_definition(self, request, fixture):
        # n is odd, so no count is n/2: reading q as c/n instead of 1 - c/n
        # changes every fact that exactly one counted action adds.
        problem, _ = request.getfixturevalue(fixture)
        for n, seed in [(3, 2), (7, 5)]:
            for goal_index in range(len(problem.goals)):
                assert action_counts(problem, goal_index, n, seed)
                table = estimate(problem, goal_index, n, seed, NOISY_OR)
                expected = noisy_or_probabilities(problem, goal_index, n, seed)
                assert table.p.tolist() == pytest.approx(list(map(float, expected)), abs=1e-12)

    @pytest.mark.parametrize("fixture", ["grid", "chain", "logistics"])
    def test_empirical_union_equals_its_definition(self, request, fixture):
        problem, _ = request.getfixturevalue(fixture)
        for n, seed in [(3, 2), (7, 5)]:
            for goal_index in range(len(problem.goals)):
                _assert_empirical_union_definition(problem, goal_index, n, seed)

    def test_unknown_aggregation_rejected(self, grid):
        problem, _ = grid
        with pytest.raises(ValueError):
            estimate(problem, 0, aggregation="mean-field")

    @pytest.mark.parametrize("goal_index", [-1, 2])
    def test_goal_index_out_of_range(self, grid, goal_index):
        problem, _ = grid
        with pytest.raises(ParameterError, match=f"^unknown goal index: {goal_index}$"):
            estimate(problem, goal_index)

    def test_seeds_past_64_bits_do_not_alias(self, grid):
        # With 3 samples the grid's two paths cannot split evenly, so the
        # tables show the stream.
        problem, _ = grid
        assert not np.array_equal(
            estimate(problem, 0, n=3, seed=0).p, estimate(problem, 0, n=3, seed=2**64).p
        )


def _assert_empirical_union_definition(problem, goal_index, n, seed):
    # c/n in floats is the exact fraction rounded once, so == holds.
    table = estimate(problem, goal_index, n, seed, EMPIRICAL_UNION)
    expected = empirical_union_probabilities(problem, goal_index, n, seed)
    assert table.p.tolist() == list(map(float, expected))


class TestExactOracle:
    def test_grid_tables_match_hand_derived_values(self, grid):
        problem, _ = grid
        for goal_index in range(2):
            table = exact_oracle(problem, goal_index)
            assert table.source == EXACT
            for name, pair in TABLE1.items():
                assert table.p[problem.fact_id(name)] == pair[goal_index], name

    def test_unique_plan_gives_zero_one_table(self, chain):
        problem, _ = chain
        table = exact_oracle(problem, 1)  # goal (f5), single plan a1..a5
        assert set(np.unique(table.p)) <= {0.0, 1.0}
        for name in ("(f1)", "(f2)", "(f3)", "(f4)", "(f5)"):
            assert table.p[problem.fact_id(name)] == 1.0

    def test_logistics_action_costs_respected(self, logistics):
        # The 6-step observed plan is the unique optimal one for goal 0.
        problem, _ = logistics
        table = exact_oracle(problem, 0)
        assert table.p[problem.fact_id("(at-pkg p1 l2)")] == 1.0
        assert table.p[problem.fact_id("(at-pkg p2 l3)")] == 1.0
        assert table.p[problem.fact_id("(at-pkg p1 l3)")] == 0.0

    def test_state_cap_enforced(self, grid):
        problem, _ = grid
        with pytest.raises(SearchCapExceededError, match="^state cap exceeded: 5$"):
            exact_oracle(problem, 0, max_states=5)

    def test_unreachable_goal_raises(self, grid_instance):
        problem = build_problem(
            grid_instance.domain_text,
            grid_instance.template_text,
            (parse_hypothesis_line("(is-at c7)"),),
        )
        with pytest.raises(UnreachableGoalError):
            exact_oracle(problem, 0)

    @pytest.mark.parametrize("goal_index", [-1, 2])
    def test_goal_index_out_of_range(self, grid, goal_index):
        problem, _ = grid
        with pytest.raises(ParameterError, match=f"^unknown goal index: {goal_index}$"):
            exact_oracle(problem, goal_index)

    def test_open_grid_matches_lattice_path_formula(self):
        # Corner to corner on an open n x n grid the optimal plans are the
        # C(2n-2, n-1) monotone lattice paths (3.5e10 at n = 20), and cell
        # (r, c) lies on C(r+c-2, r-1) * C(2n-r-c, n-r) of them.
        n = 20
        spec = GridSpec(n, n, frozenset(), "c1", (f"c{n * n}",), f"c{n * n}")
        hyps = (parse_hypothesis_line(f"(is-at c{n * n})"),)
        problem = build_problem(DOMAIN_TEXT, template_text(spec), hyps)
        t0 = time.perf_counter()
        table = exact_oracle(problem, 0)
        assert time.perf_counter() - t0 < 2.0
        plans = comb(2 * n - 2, n - 1)
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                through = comb(r + c - 2, r - 1) * comb(2 * n - r - c, n - r)
                assert table.p[problem.fact_id(f"(is-at {spec.cell(r, c)})")] == through / plans

    @pytest.mark.parametrize("noop_pre", [{0}, {1}])
    def test_zero_cost_self_loop_matches_reference(self, noop_pre):
        # Two optimal plans f0 -> f1 -> f3 and f0 -> f2 -> f3, plus a
        # zero-cost no-op that leaves its state unchanged; both oracles
        # skip it.
        moves = [(0, 1), (1, 3), (0, 2), (2, 3)]
        actions = [
            GroundAction(f"(m{a}{b})", frozenset({a}), frozenset({b}), frozenset({a}))
            for i, (a, b) in enumerate(moves)
        ]
        pre = frozenset(noop_pre)
        actions.append(GroundAction("(noop)", pre, pre & {1}, frozenset(), Fraction(0)))
        facts = [f"(f{i})" for i in range(4)]
        problem = GroundProblem(facts, actions, frozenset({0}), [frozenset({3})])
        table = exact_oracle(problem, 0)
        assert table.p.tolist() == [1.0, 0.5, 0.5, 1.0]
        assert table.p.tolist() == exact_oracle_enumerated(problem, 0).p.tolist()

    def test_zero_cost_cycle_raises(self):
        # (back) returns to s0 at no cost after (go): a zero-cost cycle.
        facts = [f"(f{i})" for i in range(3)]
        actions = [
            GroundAction("(go)", frozenset({0}), frozenset({1}), frozenset({0}), Fraction(0)),
            GroundAction("(back)", frozenset({1}), frozenset({0}), frozenset({1}), Fraction(0)),
            GroundAction("(finish)", frozenset({1}), frozenset({2}), frozenset()),
        ]
        problem = GroundProblem(facts, actions, frozenset({0}), [frozenset({2})])
        with pytest.raises(ValidationError, match=r"zero-cost action \(back\)"):
            exact_oracle(problem, 0)


@st.composite
def costed_strips_problems(draw):
    """Random STRIPS tasks with deletes and action costs in {1, 2, 3}.

    Small fact sets keep the enumeration cheap; some goals are unreachable
    and some are true in s0.
    """
    n_facts = draw(st.integers(1, 7))
    fact = st.integers(0, n_facts - 1)
    facts = [f"(f{i})" for i in range(n_facts)]
    actions = [
        GroundAction(
            f"(a{i})",
            frozenset(draw(st.lists(fact, max_size=2))),
            frozenset(draw(st.lists(fact, min_size=1, max_size=2))),
            frozenset(draw(st.lists(fact, max_size=2))),
            Fraction(draw(st.sampled_from([1, 2, 3]))),
        )
        for i in range(draw(st.integers(0, 16)))
    ]
    s0 = frozenset(draw(st.lists(fact, min_size=1, max_size=2)))
    goals = draw(st.lists(st.frozensets(fact, min_size=1, max_size=2), min_size=1, max_size=3))
    return GroundProblem(facts, actions, s0, goals)


class TestEstimateOnRandomProblems:
    @settings(max_examples=200, deadline=None)
    @given(
        problem=costed_strips_problems(),
        n=st.integers(0, 4).map(lambda k: 2 * k + 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empirical_union_equals_its_definition(self, problem, n, seed):
        for goal_index in range(len(problem.goals)):
            _assert_empirical_union_definition(problem, goal_index, n, seed)


def _oracle_outcome(oracle, problem, goal_index, cap):
    try:
        table = oracle(problem, goal_index, cap)
    except GoalRecError as exc:
        return type(exc), str(exc)
    return table.goal_index, table.p.tolist(), table.unreachable, table.source


def _assert_oracles_agree(problem, cap):
    for goal_index in range(len(problem.goals)):
        for max_states in (cap, DEFAULT_STATE_CAP):
            assert _oracle_outcome(
                exact_oracle, problem, goal_index, max_states
            ) == _oracle_outcome(exact_oracle_enumerated, problem, goal_index, max_states)


class TestOracleAgainstEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(problem=costed_strips_problems(), cap=st.integers(1, 12))
    def test_counts_match_enumerated_plans(self, problem, cap):
        _assert_oracles_agree(problem, cap)

    @settings(max_examples=60, deadline=None)
    @given(
        grid_seed=st.integers(0, 10**6),
        width=st.integers(2, 6),
        height=st.integers(2, 6),
        cap=st.integers(1, 30),
    )
    def test_counts_match_on_random_grids(self, grid_seed, width, height, cap):
        # Grids tie optimal plans, so they give the fractional tables that
        # random STRIPS problems seldom do.
        spec = random_grid(np.random.default_rng(grid_seed), width, height, n_goals=2)
        hyps = tuple(parse_hypothesis_line(f"(is-at {g})") for g in spec.goal_cells)
        _assert_oracles_agree(build_problem(DOMAIN_TEXT, template_text(spec), hyps), cap)


class TestCsvDump:
    def test_layout_and_header(self, grid):
        problem, _ = grid
        table = estimate(problem, 0, aggregation=EMPIRICAL_UNION)
        lines = table.to_csv(problem).splitlines()
        assert lines[0] == f"# aggregation: {EMPIRICAL_UNION}"
        assert lines[1] == "fact_name,p_observed,p_not_observed"
        assert len(lines) == 2 + problem.fact_count
        name, observed, rest = lines[2].split(",")
        assert name == problem.facts[0]
        assert float(observed) + float(rest) == 1.0
