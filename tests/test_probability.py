"""Probability tables: sampling estimator and exact optimal-plan oracle."""

import numpy as np
import pytest

from goalrec.errors import (
    SearchCapExceededError,
    UnknownIdError,
    UnreachableGoalError,
)
from goalrec.probability import (
    EMPIRICAL_UNION,
    EXACT,
    NOISY_OR,
    estimate,
    exact_oracle,
)
from goalrec.relaxed import build_rpg

from conftest import TABLE1
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
                    assert f in problem.s0 or relaxed_reachable(rpg, f)

    def test_same_seed_identical_tables(self, grid):
        problem, _ = grid
        a = estimate(problem, 0, seed=123)
        b = estimate(problem, 0, seed=123)
        assert np.array_equal(a.p, b.p)

    def test_unreachable_goal_zero_table(self, grid_instance):
        from goalrec.bench import build_problem, parse_hypothesis_line

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

    def test_unknown_aggregation_rejected(self, grid):
        problem, _ = grid
        with pytest.raises(ValueError):
            estimate(problem, 0, aggregation="mean-field")


class TestNotObserved:
    def test_complements(self, grid):
        problem, _ = grid
        table = estimate(problem, 0)
        for f in range(problem.fact_count):
            assert table.not_observed(f) == 1.0 - table.p[f]
            assert table.p[f] + table.not_observed(f) == 1.0

    def test_unknown_fact_id_raises(self, grid):
        problem, _ = grid
        table = estimate(problem, 0)
        with pytest.raises(UnknownIdError):
            table.not_observed(problem.fact_count)


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
        with pytest.raises(SearchCapExceededError):
            exact_oracle(problem, 0, max_states=5)

    def test_unreachable_goal_raises(self, grid_instance):
        from goalrec.bench import build_problem, parse_hypothesis_line

        problem = build_problem(
            grid_instance.domain_text,
            grid_instance.template_text,
            (parse_hypothesis_line("(is-at c7)"),),
        )
        with pytest.raises(UnreachableGoalError):
            exact_oracle(problem, 0)


class TestCsvDump:
    def test_layout_and_header(self, grid):
        problem, _ = grid
        table = estimate(problem, 0, aggregation=EMPIRICAL_UNION)
        lines = table.to_csv(problem).splitlines()
        assert lines[0] == f"# aggregation: {EMPIRICAL_UNION}"
        assert lines[1] == "fact_name,p_observed,p_not_observed"
        assert len(lines) == 2 + problem.fact_count
        name, observed, rest = lines[2].split(",")
        assert name == problem.facts[0].name
        assert float(observed) + float(rest) == 1.0
