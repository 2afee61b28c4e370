"""Delete-relaxation semantics and relaxed planning graph levels."""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalrec.bench import build_problem
from goalrec.errors import GoalRecError, ParameterError
from goalrec.gridgen import DOMAIN_TEXT, random_grid, shortest_path, template_text
from goalrec.grounding import GroundAction, GroundProblem
from goalrec.probability import estimate
from goalrec.relaxed import build_rpg
from goalrec.sampling import sample_subgoal_supporters

from atoms import parse_hypothesis_line
from conftest import example_grid
from reference_rpg import (
    InapplicableActionError,
    RelaxedState,
    build_rpg_layered,
    relaxed_apply,
    relaxed_reachable,
    sample_subgoal_supporters_scan,
)

SPEC = example_grid()
BLOCKED = sorted(SPEC.blocked)


class TestRelaxedApply:
    def test_add_without_delete(self, grid):
        problem, _ = grid
        state = RelaxedState(problem.s0)
        state = relaxed_apply(state, problem.actions[problem.action_id("(m c23 c22)")])
        assert state.facts == {
            problem.fact_id("(is-at c23)"),
            problem.fact_id("(is-at c22)"),
        }

    def test_idempotent_when_adds_present(self, grid):
        problem, _ = grid
        action = problem.actions[problem.action_id("(m c23 c22)")]
        state = relaxed_apply(RelaxedState(problem.s0), action)
        again = relaxed_apply(state, action)
        assert again.facts == state.facts

    def test_unmet_precondition_raises(self, grid):
        problem, _ = grid
        action = problem.actions[problem.action_id("(m c1 c2)")]
        with pytest.raises(InapplicableActionError, match="m c1 c2"):
            relaxed_apply(RelaxedState(problem.s0), action)

    def test_three_step_chain_matches_observed_state(self, grid):
        problem, _ = grid
        state = RelaxedState(problem.s0)
        for name in ("(m c23 c22)", "(m c22 c21)"):
            state = relaxed_apply(state, problem.actions[problem.action_id(name)])
        assert state.facts == {
            problem.fact_id(f"(is-at {c})") for c in ("c23", "c22", "c21")
        }


class TestBuildRpg:
    def test_fact_levels_equal_bfs_distances(self, grid):
        # Independent oracle: BFS over the open grid cells.
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        for cell in SPEC.open_cells():
            dist = len(shortest_path(SPEC, SPEC.start, cell)) - 1
            assert rpg.fact_levels[problem.fact_id(f"(is-at {cell})")] == dist

    def test_goal_level_is_shortest_path_length(self, grid):
        problem, _ = grid
        for goal_cell, goal in zip(("c1", "c5"), (problem.goals[0], problem.goals[1])):
            rpg = build_rpg(problem, goal)
            assert rpg.levels == len(shortest_path(SPEC, SPEC.start, goal_cell)) - 1 == 6

    def test_goal_in_s0_yields_zero_levels(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, frozenset(problem.s0))
        assert rpg.levels == 0
        assert not rpg.unreachable
        assert rpg.action_levels == []

    def test_unreachable_goal_flagged(self, grid):
        problem, _ = grid
        blocked_fact = problem.fact_id(f"(is-at {BLOCKED[0]})")
        rpg = build_rpg(problem, frozenset({blocked_fact}))
        assert rpg.unreachable
        assert rpg.unreached_goal_facts == {blocked_fact}

    def test_layer_monotonicity_and_disjoint_action_levels(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        assert all(level <= rpg.levels for level in rpg.fact_levels.values())
        seen = set()
        for batch in rpg.action_levels:
            assert not batch & seen
            seen |= batch
        assert rpg.levels <= problem.fact_count

    def test_actions_at_level_have_supported_preconditions(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        for t, batch in enumerate(rpg.action_levels):
            for aid in batch:
                for f in problem.actions[aid].pre:
                    assert rpg.fact_levels[f] <= t


class TestRelaxedReachable:
    def test_s0_facts_reachable(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        for f in problem.s0:
            assert relaxed_reachable(rpg, f, problem.fact_count)

    def test_blocked_cells_unreachable(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        for cell in BLOCKED:
            fact = problem.fact_id(f"(is-at {cell})")
            assert not relaxed_reachable(rpg, fact, problem.fact_count)

    def test_goal_fact_reachable(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        assert relaxed_reachable(rpg, problem.fact_id("(is-at c1)"), problem.fact_count)

    def test_unknown_id_raises(self, grid):
        problem, _ = grid
        rpg = build_rpg(problem, problem.goals[0])
        with pytest.raises(ParameterError, match=f"^unknown fact id: {problem.fact_count}$"):
            relaxed_reachable(rpg, problem.fact_count, problem.fact_count)


class TestFixpoint:
    def test_threads_estimate_like_one_thread(self):
        problem = _random_grid_problem(4, 15, 15)
        goals = range(len(problem.goals))
        start = threading.Barrier(8)

        def estimate_all():
            start.wait(timeout=60)
            return [estimate(problem, g, seed=3).p for g in goals]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(estimate_all) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(previous)
        serial = _random_grid_problem(4, 15, 15)
        expected = [estimate(serial, g, seed=3).p for g in goals]
        for tables in results:
            assert all(np.array_equal(p, q) for p, q in zip(tables, expected, strict=True))

    def test_not_part_of_equality_or_repr(self):
        problem = _random_grid_problem(4, 5, 5)
        other = _random_grid_problem(4, 5, 5)
        assert problem == other
        assert "relaxed_fixpoint" not in repr(problem)

    def test_freed_with_its_problem(self):
        problem = _random_grid_problem(4, 5, 5)
        ref = weakref.ref(problem.relaxed_fixpoint)
        del problem
        gc.collect()
        assert ref() is None

    def test_first_achievers_sorted_at_earliest_level(self, grid):
        problem, _ = grid
        fp = problem.relaxed_fixpoint
        assert set(fp.first_achievers) == set(fp.fact_levels) - problem.s0
        for f, achievers in fp.first_achievers.items():
            level = fp.fact_levels[f] - 1
            assert list(achievers) == sorted(achievers)
            assert set(achievers) == {
                a for a in fp.action_levels[level] if f in problem.actions[a].add
            }
            for earlier in fp.action_levels[:level]:
                assert not any(f in problem.actions[a].add for a in earlier)


# ── Fixpoint and first-achiever lookup against the layered reference ──────


@st.composite
def strips_problems(draw):
    """Random STRIPS tasks: random pre/add sets, some goals unreachable."""
    n_facts = draw(st.integers(1, 10))
    fact = st.integers(0, n_facts - 1)
    facts = [f"(f{i})" for i in range(n_facts)]
    actions = [
        GroundAction(
            f"(a{i})",
            frozenset(draw(st.lists(fact, max_size=3))),
            frozenset(draw(st.lists(fact, min_size=1, max_size=3))),
            frozenset(),
        )
        for i in range(draw(st.integers(0, 14)))
    ]
    s0 = frozenset(draw(st.lists(fact, max_size=3)))
    goals = draw(st.lists(st.frozensets(fact, max_size=3), min_size=1, max_size=3))
    return GroundProblem(facts, actions, s0, goals)


def _random_grid_problem(seed, width, height):
    spec = random_grid(np.random.default_rng(seed), width=width, height=height, n_goals=2)
    hyps = tuple(parse_hypothesis_line(f"(is-at {g})") for g in spec.goal_cells)
    return build_problem(DOMAIN_TEXT, template_text(spec), hyps)


def _outcome(sample, subgoals, seed):
    """Samples and generator state after each subgoal, all drawn from one
    generator, or those and the error raised after the subgoals before it."""
    rng = np.random.default_rng([seed, 0, 0])
    steps = []
    try:
        for f in subgoals:
            steps.append((sample(f, rng), rng.bit_generator.state))
    except GoalRecError as exc:
        return steps, type(exc), str(exc)
    return steps


def _strips(n_facts, actions, goal):
    """A task with facts f0.. and empty s0; each action is a (pre, add) pair."""
    return GroundProblem(
        [f"(f{i})" for i in range(n_facts)],
        [
            GroundAction(f"(a{i})", frozenset(pre), frozenset(add), frozenset())
            for i, (pre, add) in enumerate(actions)
        ],
        frozenset(),
        [frozenset(goal)],
    )


# Walks in which a fact is found by a later pick's add list: f1 while it is
# still demanded in the round a2 is picked for f0, and f1 while it is needed
# in the next round, by the a1 picked for f0.
FOUND_WHILE_DEMANDED = _strips(3, [((), {1}), ({0, 1}, {2}), ((), {0, 1})], {2})
FOUND_WHILE_NEEDED = _strips(2, [((), {1}), ({1}, {0, 1})], {0})


def _assert_matches_reference(problem, n, seed):
    for goal in problem.goals:
        rpg = build_rpg(problem, goal)
        ref = build_rpg_layered(problem, goal)
        assert rpg == ref
        assert list(rpg.fact_levels.items()) == list(ref.fact_levels.items())

    # No action adds the fact id past the last, so the layered graph runs
    # to its fixpoint, last batch included, and so no level bound can stop
    # the scan short of a fact the fixpoint reaches.
    full = build_rpg_layered(problem, frozenset({problem.fact_count}))
    assert problem.relaxed_fixpoint == replace(full, unreached_goal_facts=frozenset())
    assert list(problem.relaxed_fixpoint.fact_levels.items()) == list(full.fact_levels.items())

    def walk(f, rng):
        return sample_subgoal_supporters(problem, f, n, rng)

    def scan(f, rng):
        return sample_subgoal_supporters_scan(f, full, problem.s0, n, rng, problem)

    # Each goal's subgoals in order, sharing one generator, then every fact.
    orders = [sorted(goal) for goal in problem.goals]
    orders += [[f] for f in range(problem.fact_count)]
    for order in orders:
        assert _outcome(walk, order, seed) == _outcome(scan, order, seed)


class TestReferenceEquality:
    @given(
        problem=strips_problems(),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    @example(problem=FOUND_WHILE_DEMANDED, n=1, seed=0)
    @example(problem=FOUND_WHILE_NEEDED, n=1, seed=0)
    def test_random_strips_identical_to_reference(self, problem, n, seed):
        _assert_matches_reference(problem, n, seed)

    @given(
        grid_seed=st.integers(0, 10**6),
        width=st.integers(3, 7),
        height=st.integers(3, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_grid_identical_to_reference(self, grid_seed, width, height, seed):
        problem = _random_grid_problem(grid_seed, width, height)
        _assert_matches_reference(problem, 5, seed)

    @pytest.mark.parametrize("name", ["grid", "chain", "logistics"])
    def test_fixture_identical_to_reference(self, request, name):
        problem, _ = request.getfixturevalue(name)
        _assert_matches_reference(problem, 20, 11)
