"""Supporter-action sampling and per-goal combination."""

import pytest

from goalrec.bench import build_problem, parse_hypothesis_line
from goalrec.errors import InsufficientSamplesError, ParameterError
from goalrec.pddl import Literal
from goalrec.relaxed import build_rpg
from goalrec.sampling import (
    SamplerState,
    SupporterSampleSet,
    generate_goal_supporters,
    sample_subgoal_supporters,
)

from reference_rpg import RelaxedState, relaxed_apply

N = 10


def _chain_problem(goal_atom: str):
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "fixtures" / "chain"
    return build_problem(
        (root / "domain.pddl").read_text(),
        (root / "template.pddl").read_text(),
        (parse_hypothesis_line(goal_atom),),
    )


def _sample(problem, goal, n=N, seed=0):
    rpg = build_rpg(problem, goal)
    per_subgoal = {}
    for ordinal, subgoal in enumerate(sorted(goal)):
        sampler = SamplerState.from_seed(seed, 0, ordinal)
        per_subgoal[subgoal] = sample_subgoal_supporters(
            subgoal, rpg, problem.s0, n, sampler, problem
        )
    return rpg, per_subgoal


def _replay(problem, rpg, action_ids):
    """Replay a sample set under delete relaxation in RPG level order."""
    level_of = {}
    for t, batch in enumerate(rpg.action_levels):
        for aid in batch:
            level_of[aid] = t
    state = RelaxedState(problem.s0)
    for aid in sorted(action_ids, key=lambda a: (level_of[a], a)):
        state = relaxed_apply(state, problem.actions[aid])
    return state


class TestSamplerState:
    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            SamplerState.from_seed(-1, 0, 0)


class TestSubgoalSampling:
    def test_subgoal_in_s0_yields_empty_sets(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        (s0_fact,) = problem.s0
        samples = sample_subgoal_supporters(
            s0_fact, rpg, problem.s0, N, SamplerState.from_seed(0, 0, 0), problem
        )
        assert len(samples) == N
        assert all(s.actions == frozenset() for s in samples)

    def test_returns_exactly_n_nonempty_sets(self, grid):
        problem, _ = grid
        _, per_subgoal = _sample(problem, problem.goals[0])
        (samples,) = per_subgoal.values()
        assert len(samples) == N
        assert all(s.actions for s in samples)

    def test_grid_samples_replay_to_relaxed_paths(self, grid):
        problem, _ = grid
        for goal in problem.goals:
            rpg, per_subgoal = _sample(problem, goal)
            for samples in per_subgoal.values():
                for sample in samples:
                    end = _replay(problem, rpg, sample.actions)
                    assert goal <= end.facts

    def test_multiple_optimal_paths_rotate_choices(self, grid):
        # Two relaxed routes reach c1, so the sets cannot all coincide.
        problem, _ = grid
        _, per_subgoal = _sample(problem, problem.goals[0])
        (samples,) = per_subgoal.values()
        assert len({s.actions for s in samples}) > 1

    def test_unique_chain_always_sampled(self):
        problem = _chain_problem("(f2)")
        (goal,) = [problem.goals[0]]
        _, per_subgoal = _sample(problem, goal, n=3)
        expected = frozenset(
            {problem.action_id("(a1)"), problem.action_id("(a2)")}
        )
        (samples,) = per_subgoal.values()
        assert [s.actions for s in samples] == [expected] * 3

    def test_min_count_balance(self, grid):
        # c1 has exactly two supporters at its first level; across N samples
        # their selection counts may differ by at most one.
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        (subgoal,) = problem.goals[0]
        sampler = SamplerState.from_seed(3, 0, 0)
        sample_subgoal_supporters(subgoal, rpg, problem.s0, N, sampler, problem)
        a = sampler.counts.get(problem.action_id("(m c2 c1)"), 0)
        b = sampler.counts.get(problem.action_id("(m c6 c1)"), 0)
        assert a + b == N
        assert abs(a - b) <= 1

    def test_seed_determinism(self, grid):
        problem, _ = grid
        _, first = _sample(problem, problem.goals[0], seed=42)
        _, second = _sample(problem, problem.goals[0], seed=42)
        assert first == second

    def test_invalid_n_rejected(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        (subgoal,) = problem.goals[0]
        with pytest.raises(ValueError):
            sample_subgoal_supporters(
                subgoal, rpg, problem.s0, 0, SamplerState.from_seed(0, 0, 0), problem
            )


class TestGoalCombination:
    def test_single_subgoal_goal_is_permutation(self, grid):
        problem, _ = grid
        goal = problem.goals[0]
        _, per_subgoal = _sample(problem, goal)
        combined = generate_goal_supporters(
            per_subgoal, N, goal, SamplerState.from_seed(0, 0, 99), goal_index=0
        )
        from collections import Counter

        assert Counter(s.actions for s in combined) == Counter(
            s.actions for s in per_subgoal[next(iter(goal))]
        )

    def test_two_subgoals_consume_each_sample_once(self):
        a_sets = [SupporterSampleSet(frozenset({i}), 0) for i in range(N)]
        b_sets = [SupporterSampleSet(frozenset({100 + i}), 1) for i in range(N)]
        combined = generate_goal_supporters(
            {0: a_sets, 1: b_sets},
            N,
            frozenset({0, 1}),
            SamplerState.from_seed(5, 0, 99),
        )
        assert len(combined) == N
        used_a = sorted(min(s.actions) for s in combined)
        used_b = sorted(max(s.actions) for s in combined)
        assert used_a == list(range(N))
        assert used_b == [100 + i for i in range(N)]

    def test_n_equal_one(self):
        combined = generate_goal_supporters(
            {0: [SupporterSampleSet(frozenset({7}), 0)]},
            1,
            frozenset({0}),
            SamplerState.from_seed(0, 0, 99),
        )
        assert combined == [SupporterSampleSet(frozenset({7}), 0)]

    def test_insufficient_samples_raises(self):
        short = [SupporterSampleSet(frozenset({1}), 0)]
        with pytest.raises(InsufficientSamplesError):
            generate_goal_supporters(
                {0: short}, 2, frozenset({0}), SamplerState.from_seed(0, 0, 99)
            )

    def test_goal_fact_coverage(self, logistics):
        problem, _ = logistics
        goal = problem.goals[0]  # two subgoals
        rpg, per_subgoal = _sample(problem, goal)
        combined = generate_goal_supporters(
            per_subgoal, N, goal, SamplerState.from_seed(0, 0, 99), goal_index=0
        )
        for sample in combined:
            for subgoal in goal - problem.s0:
                assert any(
                    subgoal in problem.actions[aid].add for aid in sample.actions
                )
            assert goal <= _replay(problem, rpg, sample.actions).facts
