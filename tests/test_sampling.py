"""Supporter-action sampling and per-goal combination."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec.bench import build_problem, parse_hypothesis_line
from goalrec.errors import InsufficientSamplesError, ParameterError, UnsupportedFactError
from goalrec.gridgen import example_grid
from goalrec.pddl import Literal
from goalrec.probability import estimate
from goalrec.relaxed import build_rpg
from goalrec.sampling import (
    COMBINE_STREAM,
    SamplerState,
    SupporterSampleSet,
    generate_goal_supporters,
    sample_combined_sets,
    sample_subgoal_supporters,
)

from reference_rpg import RelaxedState, generate_goal_supporters_sequential, relaxed_apply

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
        per_subgoal[subgoal] = sample_subgoal_supporters(problem, subgoal, n, sampler)
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


class TestSubgoalSampling:
    def test_subgoal_in_s0_yields_empty_sets(self, grid):
        problem, _ = grid
        (s0_fact,) = problem.s0
        samples = sample_subgoal_supporters(problem, s0_fact, N, SamplerState.from_seed(0, 0, 0))
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
        (subgoal,) = problem.goals[0]
        sampler = SamplerState.from_seed(3, 0, 0)
        sample_subgoal_supporters(problem, subgoal, N, sampler)
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
        (subgoal,) = problem.goals[0]
        with pytest.raises(ValueError):
            sample_subgoal_supporters(problem, subgoal, 0, SamplerState.from_seed(0, 0, 0))

    def test_unreachable_subgoal_raises(self, grid):
        problem, _ = grid
        blocked = problem.fact_id(f"(is-at {sorted(example_grid().blocked)[0]})")
        sampler = SamplerState.from_seed(0, 0, 0)
        name = re.escape(problem.fact_name(blocked))
        with pytest.raises(UnsupportedFactError, match=f"^no supporter for demanded fact {name}$"):
            sample_subgoal_supporters(problem, blocked, N, sampler)
        assert sampler.counts == {}


class TestGoalCombination:
    def test_single_subgoal_goal_is_permutation(self, grid):
        problem, _ = grid
        goal = problem.goals[0]
        _, per_subgoal = _sample(problem, goal)
        combined = generate_goal_supporters(
            per_subgoal, N, goal, SamplerState.from_seed(0, 0, 99)
        )
        from collections import Counter

        assert Counter(s.actions for s in combined) == Counter(
            s.actions for s in per_subgoal[next(iter(goal))]
        )

    def test_two_subgoals_consume_each_sample_once(self):
        a_sets = [SupporterSampleSet(frozenset({i})) for i in range(N)]
        b_sets = [SupporterSampleSet(frozenset({100 + i})) for i in range(N)]
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
            {0: [SupporterSampleSet(frozenset({7}))]},
            1,
            frozenset({0}),
            SamplerState.from_seed(0, 0, 99),
        )
        assert combined == [SupporterSampleSet(frozenset({7}))]

    def test_insufficient_samples_raises(self):
        short = [SupporterSampleSet(frozenset({1}))]
        with pytest.raises(InsufficientSamplesError):
            generate_goal_supporters(
                {0: short}, 2, frozenset({0}), SamplerState.from_seed(0, 0, 99)
            )

    def test_goal_fact_coverage(self, logistics):
        problem, _ = logistics
        goal = problem.goals[0]  # two subgoals
        rpg, per_subgoal = _sample(problem, goal)
        combined = generate_goal_supporters(
            per_subgoal, N, goal, SamplerState.from_seed(0, 0, 99)
        )
        for sample in combined:
            for subgoal in goal - problem.s0:
                assert any(
                    subgoal in problem.actions[aid].add for aid in sample.actions
                )
            assert goal <= _replay(problem, rpg, sample.actions).facts

    @pytest.mark.parametrize("n", [0, -2])
    def test_invalid_n_rejected(self, n):
        with pytest.raises(
            ParameterError, match=f"^number of samples must be positive, got {n}$"
        ):
            generate_goal_supporters({}, n, frozenset(), SamplerState.from_seed(0, 0, 99))

    def test_empty_goal_gives_n_empty_sets(self):
        sampler = SamplerState.from_seed(0, 0, 99)
        state = sampler.rng.bit_generator.state
        combined = generate_goal_supporters({}, 3, frozenset(), sampler)
        assert combined == [SupporterSampleSet(frozenset())] * 3
        assert sampler.rng.bit_generator.state == state


class TestCombinedSets:
    def test_stream_per_subgoal_and_one_per_combination(self, logistics):
        problem, _ = logistics
        for goal_index, goal in enumerate(problem.goals):
            per_subgoal = {
                f: sample_subgoal_supporters(
                    problem, f, N, SamplerState.from_seed(7, goal_index, ordinal)
                )
                for ordinal, f in enumerate(sorted(goal))
            }
            combiner = SamplerState.from_seed(7, goal_index, COMBINE_STREAM)
            assert sample_combined_sets(problem, goal_index, N, 7) == generate_goal_supporters(
                per_subgoal, N, goal, combiner
            )

    def test_relaxed_unreachable_goal_gives_none(self, grid_instance):
        blocked = sorted(example_grid().blocked)[0]
        problem = build_problem(
            grid_instance.domain_text,
            grid_instance.template_text,
            (parse_hypothesis_line(f"(is-at {blocked})"),),
        )
        assert sample_combined_sets(problem, 0, N, 0) is None


@st.composite
def combiner_inputs(draw):
    """0-4 subgoals, each with a pool of n or more sets, some of them empty."""
    n = draw(st.integers(1, 6))
    sets = st.builds(SupporterSampleSet, st.frozensets(st.integers(0, 20), max_size=3))
    subgoals = draw(st.lists(st.integers(0, 30), max_size=4, unique=True))
    per_subgoal = {f: draw(st.lists(sets, min_size=n, max_size=n + 4)) for f in subgoals}
    return per_subgoal, n


class _CountingGenerator:
    """Passes integers calls to a Generator and records their bounds."""

    def __init__(self, rng):
        self._rng = rng
        self.bounds = []

    def integers(self, high):
        self.bounds.append(high)
        return self._rng.integers(high)


class TestDrawStream:
    @given(inputs=combiner_inputs(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_combiner_identical_to_sequential_reference(self, inputs, seed):
        per_subgoal, n = inputs
        goal = frozenset(per_subgoal)
        fast = SamplerState.from_seed(seed, 0, COMBINE_STREAM)
        slow = SamplerState.from_seed(seed, 0, COMBINE_STREAM)
        assert generate_goal_supporters(
            per_subgoal, n, goal, fast
        ) == generate_goal_supporters_sequential(per_subgoal, n, goal, slow)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state

    @pytest.mark.parametrize("name", ["grid", "logistics"])
    def test_draws_only_on_ties_and_once_per_combination(self, request, monkeypatch, name):
        problem, _ = request.getfixturevalue(name)
        goals = range(len(problem.goals))
        expected = [estimate(problem, g, n=N, seed=3).p for g in goals]

        generators = {}
        from_seed = SamplerState.from_seed.__func__

        def counting(cls, seed, *stream):
            sampler = from_seed(cls, seed, *stream)
            sampler.rng = generators[stream] = _CountingGenerator(sampler.rng)
            return sampler

        monkeypatch.setattr(SamplerState, "from_seed", classmethod(counting))
        for g in goals:
            assert np.array_equal(estimate(problem, g, n=N, seed=3).p, expected[g])

        tie_bounds = [
            bound
            for stream, generator in generators.items()
            if stream[-1] != COMBINE_STREAM
            for bound in generator.bounds
        ]
        assert all(bound > 1 for bound in tie_bounds)
        assert {
            stream: len(generator.bounds)
            for stream, generator in generators.items()
            if stream[-1] == COMBINE_STREAM
        } == {(g, COMBINE_STREAM): 1 for g in goals}
