"""Supporter-action sampling and per-goal combination."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec.bench import build_problem
from goalrec import sampling
from goalrec.errors import ParameterError, UnreachableGoalError
from goalrec.pddl import Literal
from goalrec.probability import estimate
from goalrec.relaxed import build_rpg
from goalrec.sampling import (
    COMBINE_STREAM,
    SupporterSampleSet,
    generate_goal_supporters,
    sample_combined_sets,
    sample_subgoal_supporters,
)

from atoms import parse_hypothesis_line
from conftest import example_grid
from reference_rpg import (
    RelaxedState,
    build_rpg_layered,
    generate_goal_supporters_sequential,
    relaxed_apply,
    sample_subgoal_supporters_scan,
)

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
        rng = np.random.default_rng([seed, 0, ordinal])
        per_subgoal[subgoal] = sample_subgoal_supporters(problem, subgoal, n, rng)
    return rpg, per_subgoal


@pytest.fixture
def reachable_and_blocked(grid_instance):
    """The grid with goal 0 (is-at c1) and goal 1 a blocked cell."""
    blocked = sorted(example_grid().blocked)[0]
    return build_problem(
        grid_instance.domain_text,
        grid_instance.template_text,
        (parse_hypothesis_line("(is-at c1)"), parse_hypothesis_line(f"(is-at {blocked})")),
    )


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


class TestSubgoalSampling:
    def test_subgoal_in_s0_yields_empty_sets(self, grid):
        problem, _ = grid
        (s0_fact,) = problem.s0
        samples = sample_subgoal_supporters(problem, s0_fact, N, np.random.default_rng(0))
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
        # the numbers of sets holding each may differ by at most one.
        problem, _ = grid
        (subgoal,) = problem.goals[0]
        samples = sample_subgoal_supporters(problem, subgoal, N, np.random.default_rng(3))
        a = sum(problem.action_id("(m c2 c1)") in s.actions for s in samples)
        b = sum(problem.action_id("(m c6 c1)") in s.actions for s in samples)
        assert a + b == N
        assert abs(a - b) <= 1

    def test_seed_determinism(self, grid):
        problem, _ = grid
        _, first = _sample(problem, problem.goals[0], seed=42)
        _, second = _sample(problem, problem.goals[0], seed=42)
        assert first == second

    def test_unreachable_subgoal_raises(self, grid):
        problem, _ = grid
        blocked = problem.fact_id(f"(is-at {sorted(example_grid().blocked)[0]})")
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        name = re.escape(problem.facts[blocked])
        with pytest.raises(UnreachableGoalError, match=f"^no supporter for demanded fact {name}$"):
            sample_subgoal_supporters(problem, blocked, N, rng)
        assert rng.bit_generator.state == state


class TestGoalCombination:
    def test_single_subgoal_goal_is_permutation(self, grid):
        problem, _ = grid
        goal = problem.goals[0]
        _, per_subgoal = _sample(problem, goal)
        (samples,) = per_subgoal.values()
        combined = generate_goal_supporters([samples], N, np.random.default_rng(99))
        from collections import Counter

        assert Counter(s.actions for s in combined) == Counter(s.actions for s in samples)

    def test_two_subgoals_consume_each_sample_once(self):
        a_sets = [SupporterSampleSet(frozenset({i})) for i in range(N)]
        b_sets = [SupporterSampleSet(frozenset({100 + i})) for i in range(N)]
        combined = generate_goal_supporters([a_sets, b_sets], N, np.random.default_rng(5))
        assert len(combined) == N
        used_a = sorted(min(s.actions) for s in combined)
        used_b = sorted(max(s.actions) for s in combined)
        assert used_a == list(range(N))
        assert used_b == [100 + i for i in range(N)]

    def test_n_equal_one(self):
        combined = generate_goal_supporters(
            [[SupporterSampleSet(frozenset({7}))]], 1, np.random.default_rng(0)
        )
        assert combined == [SupporterSampleSet(frozenset({7}))]

    def test_goal_fact_coverage(self, logistics):
        problem, _ = logistics
        goal = problem.goals[0]  # two subgoals
        rpg, per_subgoal = _sample(problem, goal)
        pools = [per_subgoal[f] for f in sorted(goal)]
        combined = generate_goal_supporters(pools, N, np.random.default_rng(99))
        for sample in combined:
            for subgoal in goal - problem.s0:
                assert any(
                    subgoal in problem.actions[aid].add for aid in sample.actions
                )
            assert goal <= _replay(problem, rpg, sample.actions).facts

    def test_empty_goal_gives_n_empty_sets(self):
        rng = np.random.default_rng(99)
        state = rng.bit_generator.state
        combined = generate_goal_supporters([], 3, rng)
        assert combined == [SupporterSampleSet(frozenset())] * 3
        assert rng.bit_generator.state == state


class TestCombinedSets:
    def test_stream_per_subgoal_and_one_per_combination(self, grid, logistics):
        def stream(*key):
            return np.random.default_rng(np.random.SeedSequence([7, *key]))

        # The grid's goals have one subgoal each, whose walks split between
        # two corridors, so the order of its sets shows; logistics has a
        # goal of two subgoals and one of one.
        for problem, _ in (grid, logistics):
            for goal_index, goal in enumerate(problem.goals):
                pools = [
                    sample_subgoal_supporters(problem, f, N, stream(goal_index, ordinal))
                    for ordinal, f in enumerate(sorted(goal))
                ]
                combined = sample_combined_sets(problem, goal_index, N, 7)
                if len(pools) == 1:
                    # One subgoal: its pool, in walk order, with no combination.
                    assert combined == pools[0]
                else:
                    combiner = stream(goal_index, COMBINE_STREAM)
                    assert combined == generate_goal_supporters(pools, N, combiner)

    def test_relaxed_unreachable_goal_gives_none(self, reachable_and_blocked):
        assert sample_combined_sets(reachable_and_blocked, 1, N, 0) == []

    # Both checks come before the goal lookup and the reachability
    # shortcut, so the blocked goal 1 is rejected as goal 0 is.
    def test_negative_seed_rejected(self, reachable_and_blocked):
        for run in (sample_combined_sets, estimate):
            for goal_index in (0, 1):
                with pytest.raises(ParameterError, match="^seed must be non-negative, got -1$"):
                    run(reachable_and_blocked, goal_index, N, -1)

    @pytest.mark.parametrize("n", [0, -2])
    def test_invalid_n_rejected(self, reachable_and_blocked, n):
        for run in (sample_combined_sets, estimate):
            for goal_index in (0, 1):
                with pytest.raises(
                    ParameterError, match=f"^number of samples must be positive, got {n}$"
                ):
                    run(reachable_and_blocked, goal_index, n, 0)


@st.composite
def combiner_inputs(draw):
    """0-4 subgoal pools of n sets each, some of the sets empty."""
    n = draw(st.integers(1, 6))
    sets = st.builds(SupporterSampleSet, st.frozensets(st.integers(0, 20), max_size=3))
    pools = draw(st.lists(st.lists(sets, min_size=n, max_size=n), max_size=4))
    return pools, n


class _CountingGenerator:
    """Passes integers calls to a Generator and records their bounds."""

    def __init__(self, rng):
        self._rng = rng
        self.bounds = []

    def integers(self, high):
        self.bounds.append(high)
        return self._rng.integers(high)


class TestDrawStream:
    # The sampler skips draws over one candidate and the combiner draws all
    # its picks in one call; both keep the stream only while these hold.
    @given(
        seed=st.integers(0, 2**64 - 1),
        bounds=st.lists(
            st.one_of(st.just(1), st.integers(2, 40), st.integers(2**31, 2**62)),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_numpy_bounded_draws_keep_the_stream(self, seed, bounds):
        scalar = np.random.default_rng(seed)
        expected = []
        for bound in bounds:
            before = scalar.bit_generator.state
            assert scalar.integers(1) == 0 and scalar.bit_generator.state == before, (
                "numpy assumption broken: integers(1) returns 0 and consumes no random state"
            )
            expected.append(int(scalar.integers(bound)))
        vector = np.random.default_rng(seed)
        assert vector.integers(np.array(bounds)).tolist() == expected, (
            "numpy assumption broken: integers(bounds array) draws what one call per bound draws"
        )
        assert vector.bit_generator.state == scalar.bit_generator.state, (
            "numpy assumption broken: integers(bounds array) ends in the state of one call per bound"
        )

    @given(inputs=combiner_inputs(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_combiner_identical_to_sequential_reference(self, inputs, seed):
        pools, n = inputs
        fast = np.random.default_rng([seed, 0, COMBINE_STREAM])
        slow = np.random.default_rng([seed, 0, COMBINE_STREAM])
        assert generate_goal_supporters(pools, n, fast) == generate_goal_supporters_sequential(
            pools, n, slow
        )
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("name", ["grid", "logistics"])
    def test_draws_only_on_ties_and_once_per_combination(self, request, monkeypatch, name):
        problem, _ = request.getfixturevalue(name)
        goals = range(len(problem.goals))
        expected = [estimate(problem, g, n=N, seed=3).p for g in goals]

        # Each stage is wrapped where sample_combined_sets looks it up, as
        # the benchmark's tracer wraps it, and the generator it receives as
        # its last argument is wrapped to record the draws.
        draws = {"sample_subgoal_supporters": [], "generate_goal_supporters": []}

        def counting(name, stage):
            def wrapped(*args):
                generator = _CountingGenerator(args[-1])
                draws[name].append(generator.bounds)
                return stage(*args[:-1], generator)

            return wrapped

        for stage in draws:
            monkeypatch.setattr(sampling, stage, counting(stage, getattr(sampling, stage)))
        for g in goals:
            assert np.array_equal(estimate(problem, g, n=N, seed=3).p, expected[g])

        tie_bounds = [b for bounds in draws["sample_subgoal_supporters"] for b in bounds]
        assert all(bound > 1 for bound in tie_bounds)
        # One draw per goal of two or more subgoals; a one-subgoal goal
        # takes its pool as walked and is never combined.
        combined_goals = [g for g in goals if len(problem.goals[g]) > 1]
        assert [len(bounds) for bounds in draws["generate_goal_supporters"]] == [1] * len(
            combined_goals
        )

    def test_choice_free_subgoal_walks_once_and_draws_nothing(self):
        # Every fact below (f2) has one first achiever, so all walks agree.
        problem = _chain_problem("(f2)")
        (subgoal,) = problem.goals[0]
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        generator = _CountingGenerator(rng)
        samples = sample_subgoal_supporters(problem, subgoal, N, generator)
        expected = frozenset({problem.action_id("(a1)"), problem.action_id("(a2)")})
        assert samples == [SupporterSampleSet(expected)] * N
        assert generator.bounds == []
        assert rng.bit_generator.state == state

    def test_subgoal_with_a_first_tie_draws_per_tie(self, grid):
        # (is-at c1) has two first achievers, so the first walk already
        # ties; the reference scan draws on every pick, bound 1 included.
        problem, _ = grid
        (subgoal,) = problem.goals[0]
        assert len(problem.relaxed_fixpoint.first_achievers[subgoal]) == 2
        full = build_rpg_layered(problem, frozenset({problem.fact_count}))
        fast = _CountingGenerator(np.random.default_rng(4))
        slow = _CountingGenerator(np.random.default_rng(4))
        samples = sample_subgoal_supporters(problem, subgoal, N, fast)
        reference = sample_subgoal_supporters_scan(subgoal, full, problem.s0, N, slow, problem)
        assert samples == reference
        assert fast.bounds == [bound for bound in slow.bounds if bound > 1]
