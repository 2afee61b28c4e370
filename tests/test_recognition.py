"""Vector mappings, ranking heuristic, and the online recognition loop.

The definitional mappings and heuristic live in reference_recognition;
`Recognizer` is checked against them with `==`.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import goalrec.recognition
from goalrec.bench import build_problem, estimate_tables
from goalrec.errors import GoalRecError, ParameterError
from goalrec.gridgen import DOMAIN_TEXT, random_grid, template_text
from goalrec.grounding import GroundAction, GroundProblem
from goalrec.probability import FactProbabilityTable, estimate, exact_oracle
from goalrec.recognition import ObservationEvent, Recognizer, recognize, recognize_online

from atoms import parse_hypothesis_line
from conftest import TABLE1
from reference_recognition import direction, heuristic, map_probs, map_state, odot, progress
from reference_rpg import RelaxedState

unit_vectors = arrays(
    float, st.integers(1, 8), elements=st.floats(0.0, 1.0, width=32)
)


def _grid_tables(problem):
    return [
        FactProbabilityTable(
            i,
            np.array([TABLE1[name][i] for name in problem.facts]),
        )
        for i in range(2)
    ]


class TestVectorMappings:
    def test_map_state_single_fact(self, grid):
        problem, _ = grid
        v = map_state(problem.s0, problem.fact_count)
        assert v.sum() == 1.0
        assert v[problem.fact_id("(is-at c23)")] == 1.0

    def test_map_state_empty_and_full(self):
        assert np.array_equal(map_state(frozenset(), 4), np.zeros(4))
        assert np.array_equal(map_state(frozenset(range(4)), 4), np.ones(4))

    def test_map_state_rejects_unknown_ids(self):
        with pytest.raises(ParameterError, match="^state contains fact ids outside the problem$"):
            map_state(frozenset({4}), 4)

    def test_map_probs_toy_vector(self):
        table = FactProbabilityTable(0, np.array([0.8, 0.3, 0.6]))
        assert np.array_equal(map_probs(table), np.array([0.8, 0.3, 0.6]))

    def test_map_probs_zero_table(self):
        table = FactProbabilityTable(0, np.zeros(5))
        assert np.array_equal(map_probs(table), np.zeros(5))


class TestOdot:
    def test_casewise_example(self):
        out = odot(np.array([1.0, 1.0, 0.0]), np.array([0.5, 0.0, 0.7]))
        assert np.array_equal(out, np.array([0.5, 1.0, 0.0]))

    def test_positive_v_is_plain_product(self):
        s = np.array([1.0, 0.0, 1.0])
        v = np.array([0.5, 0.2, 0.9])
        assert np.array_equal(odot(s, v), s * v)

    def test_zero_s_stays_zero(self):
        v = np.array([0.5, 0.0, 0.9])
        assert np.array_equal(odot(np.zeros(3), v), np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            odot(np.zeros(2), np.zeros(3))

    @given(s=unit_vectors, v=unit_vectors)
    @settings(max_examples=50)
    def test_casewise_definition(self, s, v):
        n = min(len(s), len(v))
        s, v = s[:n], v[:n]
        out = odot(s, v)
        for i in range(n):
            assert out[i] == (s[i] * v[i] if v[i] > 0 else s[i])


class TestDirection:
    def test_equal_points(self):
        assert np.array_equal(direction(np.ones(3), np.ones(3)), np.zeros(3))

    def test_from_origin(self):
        y = np.array([0.3, 0.7])
        assert np.array_equal(direction(np.zeros(2), y), y)

    def test_basis_flip(self):
        out = direction(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(out, np.array([-1.0, 1.0]))

    @given(x=unit_vectors)
    @settings(max_examples=50)
    def test_antisymmetric(self, x):
        y = 1.0 - x
        assert np.array_equal(direction(x, y), -direction(y, x))


class TestHeuristic:
    def test_grid_goal_one_norms(self, grid):
        problem, _ = grid
        pv = map_probs(_grid_tables(problem)[0])
        s0v = map_state(problem.s0, problem.fact_count)
        stv = map_state(
            frozenset(problem.fact_id(f"(is-at {c})") for c in ("c23", "c22", "c21")),
            problem.fact_count,
        )
        first = float(np.linalg.norm(direction(odot(s0v, pv), pv)))
        second = float(np.linalg.norm(direction(odot(stv, pv), pv)))
        assert first == pytest.approx(math.sqrt(3.5), abs=1e-9)
        assert second == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert heuristic(s0v, stv, pv) == pytest.approx(first - second)

    def test_grid_goal_two_punished(self, grid):
        # The observed cells have probability zero for goal 1, so its score
        # drops below the no-observation baseline of zero.
        problem, _ = grid
        pv = map_probs(_grid_tables(problem)[1])
        s0v = map_state(problem.s0, problem.fact_count)
        stv = map_state(
            frozenset(problem.fact_id(f"(is-at {c})") for c in ("c23", "c22", "c21")),
            problem.fact_count,
        )
        h = heuristic(s0v, stv, pv)
        assert h == pytest.approx(math.sqrt(3.5) - math.sqrt(5.5), abs=1e-9)
        assert h < 0

    def test_no_observations_scores_zero(self, grid):
        problem, _ = grid
        s0v = map_state(problem.s0, problem.fact_count)
        for table in _grid_tables(problem):
            assert heuristic(s0v, s0v, map_probs(table)) == 0.0

    def test_bounded_by_first_norm(self, grid):
        problem, _ = grid
        s0v = map_state(problem.s0, problem.fact_count)
        full = map_state(frozenset(range(problem.fact_count)), problem.fact_count)
        for table in _grid_tables(problem):
            pv = map_probs(table)
            bound = float(np.linalg.norm(direction(odot(s0v, pv), pv)))
            assert heuristic(s0v, full, pv) <= bound

    def test_monotone_in_positive_probability_facts(self, grid):
        problem, _ = grid
        pv = map_probs(_grid_tables(problem)[0])
        s0v = map_state(problem.s0, problem.fact_count)
        state = set(problem.s0)
        previous = 0.0
        for cell in ("c22", "c21", "c16", "c11", "c6", "c1"):
            state.add(problem.fact_id(f"(is-at {cell})"))
            h = heuristic(s0v, map_state(frozenset(state), problem.fact_count), pv)
            assert h >= previous
            previous = h

    def test_zero_probability_fact_strictly_decreases(self, grid):
        problem, _ = grid
        pv = map_probs(_grid_tables(problem)[0])
        s0v = map_state(problem.s0, problem.fact_count)
        state = set(problem.s0)
        before = heuristic(s0v, map_state(frozenset(state), problem.fact_count), pv)
        state.add(problem.fact_id("(is-at c24)"))  # p = 0 for goal 0
        after = heuristic(s0v, map_state(frozenset(state), problem.fact_count), pv)
        assert after < before


class TestProgress:
    def test_action_observation_unions_adds(self, grid):
        problem, _ = grid
        state = RelaxedState(problem.s0)
        obs = ObservationEvent.action(problem.action_id("(m c23 c22)"))
        out = progress(state, obs, problem)
        assert out.facts == problem.s0 | {problem.fact_id("(is-at c22)")}

    def test_state_observation_unions_facts(self, grid):
        problem, _ = grid
        obs = ObservationEvent.state({problem.fact_id("(is-at c21)")})
        out = progress(RelaxedState(problem.s0), obs, problem)
        assert out.facts == problem.s0 | {problem.fact_id("(is-at c21)")}

    def test_preconditions_not_enforced(self, grid):
        # Observation sequences may be incomplete; m(c1,c2) is observable
        # even though (is-at c1) is not in the current state.
        problem, _ = grid
        obs = ObservationEvent.action(problem.action_id("(m c1 c2)"))
        out = progress(RelaxedState(problem.s0), obs, problem)
        assert problem.fact_id("(is-at c2)") in out.facts

    def test_unknown_ids_rejected(self, grid):
        problem, _ = grid
        with pytest.raises(ParameterError, match="^unknown action id: 1000000$"):
            progress(RelaxedState(problem.s0), ObservationEvent.action(10**6), problem)
        with pytest.raises(ParameterError, match="^observed state contains unknown fact ids$"):
            progress(
                RelaxedState(problem.s0),
                ObservationEvent.state({problem.fact_count}),
                problem,
            )

    def test_event_requires_exactly_one_kind(self):
        with pytest.raises(ValueError):
            ObservationEvent()
        with pytest.raises(ValueError):
            ObservationEvent(action_id=0, state_facts=frozenset({1}))
        with pytest.raises(GoalRecError):
            ObservationEvent()


class TestRecognize:
    def test_grid_example_recognizes_goal_one(self, grid):
        problem, events = grid
        result = recognize(problem, _grid_tables(problem), events)
        assert result.recognized == [0]
        assert result.t == 2

    def test_zero_observations_all_goals_tie(self, grid):
        problem, _ = grid
        result = recognize(problem, _grid_tables(problem), [])
        assert result.recognized == [0, 1]
        assert all(h == 0.0 for h in result.heuristic)

    def test_three_goal_toy_hand_computed(self):
        # Facts f0,f1,f2; s0 empty; only goal 2 assigns positive
        # probability to the observed fact f0.
        problem = GroundProblem(
            facts=[f"(f{i})" for i in range(3)],
            actions=[],
            s0=frozenset(),
            goals=[frozenset({1}), frozenset({2}), frozenset({0})],
        )
        tables = [
            FactProbabilityTable(0, np.array([0.0, 1.0, 0.0])),
            FactProbabilityTable(1, np.array([0.0, 0.0, 1.0])),
            FactProbabilityTable(2, np.array([1.0, 0.5, 0.0])),
        ]
        result = recognize(
            problem, tables, [ObservationEvent.state({0})]
        )
        # Goal 2: sqrt(1 + .25) - 0.5; goals 0 and 1: 1 - sqrt(2) < 0.
        assert result.heuristic[2] == pytest.approx(math.sqrt(1.25) - 0.5)
        assert result.heuristic[0] == pytest.approx(1.0 - math.sqrt(2.0))
        assert result.recognized == [2]

    def test_table_count_must_match_goals(self, grid):
        problem, events = grid
        with pytest.raises(ValueError):
            recognize(problem, _grid_tables(problem)[:1], events)

    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_scores_once_for_any_number_of_observations(self, k, logistics, monkeypatch):
        problem, events = logistics
        assert len(events) >= k
        tables = estimate_tables(problem, 10, 0)
        original = goalrec.recognition.heuristic
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(goalrec.recognition, "heuristic", counted)
        result = recognize(problem, tables, events[:k])
        assert len(calls) == 1
        assert result.t == k


class TestRecognizeOnline:
    def test_trace_ends_in_goal_one(self, grid):
        problem, events = grid
        trace = recognize_online(problem, _grid_tables(problem), events)
        assert len(trace.steps) == 2
        assert frozenset(trace.steps[-1].recognized) == {0}

    def test_empty_observations_empty_trace(self, grid):
        problem, _ = grid
        trace = recognize_online(problem, _grid_tables(problem), [])
        assert trace.steps == []

    def test_prefix_consistency(self, grid):
        problem, events = grid
        tables = _grid_tables(problem)
        trace = recognize_online(problem, tables, events)
        for t in range(1, len(events) + 1):
            result = recognize(problem, tables, events[:t])
            step = trace.steps[t - 1]
            assert step.heuristic == [result.heuristic[i] for i in range(2)]
            assert step.recognized == result.recognized

    def test_permutation_insensitivity(self, grid):
        problem, events = grid
        tables = _grid_tables(problem)
        forward = recognize(problem, tables, events)
        backward = recognize(problem, tables, list(reversed(events)))
        assert forward.heuristic == backward.heuristic

    def test_estimated_and_exact_tables_agree_on_argmax(self, grid):
        problem, events = grid
        for tables in (
            [estimate(problem, i) for i in range(2)],
            [exact_oracle(problem, i) for i in range(2)],
        ):
            trace = recognize_online(problem, tables, events)
            assert frozenset(trace.steps[-1].recognized) == {0}

    def test_json_serialization(self, grid):
        problem, events = grid
        trace = recognize_online(problem, _grid_tables(problem), events)
        steps = json.loads(trace.to_json())
        assert [s["t"] for s in steps] == [1, 2]
        assert all({"t", "h", "recognized"} == set(s) for s in steps)
        assert steps == trace.records()

    def test_trace_is_reproducible(self, grid):
        problem, events = grid
        a = recognize_online(problem, _grid_tables(problem), events)
        b = recognize_online(problem, _grid_tables(problem), events)
        assert a.to_json() == b.to_json()


@st.composite
def recognition_cases(draw):
    """A small problem, one table per goal and a stream of observations.

    Tables have zero entries (also on s0 facts), and observations repeat
    facts of s0 and of earlier observations.
    """
    fact_count = draw(st.integers(1, 8))
    fact = st.integers(0, fact_count - 1)
    adds = draw(st.lists(st.frozensets(fact, max_size=3), max_size=5))
    goal_count = draw(st.integers(1, 4))
    problem = GroundProblem(
        facts=[f"(f{i})" for i in range(fact_count)],
        actions=[
            GroundAction(f"(a{i})", frozenset(), add, frozenset())
            for i, add in enumerate(adds)
        ],
        s0=draw(st.frozensets(fact, max_size=fact_count)),
        goals=[frozenset({draw(fact)}) for _ in range(goal_count)],
    )
    prob = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    tables = [
        FactProbabilityTable(g, np.array(draw(st.lists(prob, min_size=fact_count, max_size=fact_count))))
        for g in range(goal_count)
    ]
    event = st.frozensets(fact, max_size=3).map(ObservationEvent.state)
    if adds:
        event = event | st.integers(0, len(adds) - 1).map(ObservationEvent.action)
    return problem, tables, draw(st.lists(event, max_size=8))


def _tiny_problem(goal_count=2):
    """Three facts, s0 = {f0}, goals alternating between f1 and f2."""
    return GroundProblem(
        facts=[f"(f{i})" for i in range(3)],
        actions=[GroundAction("(a0)", frozenset(), frozenset({1}), frozenset())],
        s0=frozenset({0}),
        goals=[frozenset({1 + g % 2}) for g in range(goal_count)],
    )


def _random_grid_40():
    """A seeded 40x40 random grid: 1,600 facts, 10 goals and a full-plan stream."""
    spec = random_grid(np.random.default_rng(40), width=40, height=40, n_goals=10)
    hyps = tuple(parse_hypothesis_line(f"(is-at {g})") for g in spec.goal_cells)
    problem = build_problem(DOMAIN_TEXT, template_text(spec), hyps)
    events = [ObservationEvent.action(problem.action_id(f"(m {a} {b})")) for a, b in spec.observations]
    return problem, events


class TestRecognizer:
    @given(recognition_cases())
    @settings(max_examples=300, deadline=None)
    def test_scores_and_explanation_equal_reference(self, case):
        problem, tables, events = case
        recognizer = Recognizer(problem, tables)
        pvs = [map_probs(t) for t in tables]
        s0v = map_state(problem.s0, problem.fact_count)
        assert recognizer.scores() == [heuristic(s0v, s0v, pv) for pv in pvs]
        state = RelaxedState(problem.s0)
        stv = s0v
        for event in events:
            state = progress(state, event, problem)
            stv = map_state(state.facts, problem.fact_count)
            assert recognizer.observe(event) == [heuristic(s0v, stv, pv) for pv in pvs]
        for pv, goal in zip(pvs, recognizer.explain()):
            assert goal["reward"] == float(np.linalg.norm(direction(odot(s0v, pv), pv)))
            left = direction(odot(stv, pv), pv)[pv > 0]
            assert goal["remaining"] == float(np.linalg.norm(left))
            zero = {problem.facts[f] for f in state.facts - problem.s0 if pv[f] == 0}
            assert sorted(goal["penalized_facts"]) == sorted(zero)

    @given(recognition_cases())
    @settings(max_examples=100, deadline=None)
    def test_recognize_equals_last_online_step(self, case):
        problem, tables, events = case
        result = recognize(problem, tables, events)
        trace = recognize_online(problem, tables, events)
        final = trace.steps[-1].heuristic if trace.steps else Recognizer(problem, tables).scores()
        assert [result.heuristic[g] for g in range(len(tables))] == final

    def test_scores_before_observations_are_zero(self):
        problem = _tiny_problem()
        tables = [FactProbabilityTable(g, np.array([0.0, 0.3, 1.0])) for g in range(2)]
        assert Recognizer(problem, tables).scores() == [0.0, 0.0]

    def test_table_count_must_match_goals(self):
        problem = _tiny_problem()
        with pytest.raises(ParameterError, match="1 probability tables for 2 goals"):
            Recognizer(problem, [FactProbabilityTable(0, np.zeros(3))])

    def test_table_length_must_match_facts(self):
        problem = _tiny_problem()
        tables = [FactProbabilityTable(0, np.zeros(3)), FactProbabilityTable(1, np.zeros(4))]
        with pytest.raises(ParameterError, match="every table needs 3 probabilities"):
            Recognizer(problem, tables)

    @pytest.mark.parametrize(
        "shapes", [[(3,), (4,), (3,)], [(1, 3)], [(3,), (1, 3)], [(3, 1), (3, 1)], [(), ()]]
    )
    def test_table_shapes_are_checked_on_the_whole_matrix(self, shapes):
        problem = _tiny_problem(len(shapes))
        tables = [FactProbabilityTable(g, np.zeros(shape)) for g, shape in enumerate(shapes)]
        with pytest.raises(ParameterError, match="every table needs 3 probabilities"):
            Recognizer(problem, tables)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
    def test_probabilities_must_lie_in_unit_interval(self, bad):
        problem = _tiny_problem()
        tables = [FactProbabilityTable(g, np.array([0.0, bad, 1.0])) for g in range(2)]
        with pytest.raises(ParameterError, match=r"must lie in \[0, 1\]"):
            Recognizer(problem, tables)

    @pytest.mark.parametrize("bad", [-0.5, 1.5, math.nan])
    def test_bad_probability_in_the_last_table_only(self, bad):
        problem = _tiny_problem(3)
        tables = [FactProbabilityTable(g, np.array([0.0, 0.5, 1.0])) for g in range(3)]
        tables[-1].p[-1] = bad
        with pytest.raises(ParameterError, match=r"must lie in \[0, 1\]"):
            Recognizer(problem, tables)

    @pytest.mark.parametrize("goal_count", [1, 2])
    def test_problem_without_facts_builds(self, goal_count):
        problem = GroundProblem(facts=[], actions=[], s0=frozenset(), goals=[frozenset()] * goal_count)
        tables = [FactProbabilityTable(g, np.zeros(0)) for g in range(goal_count)]
        assert Recognizer(problem, tables).scores() == [0.0] * goal_count

    @pytest.mark.parametrize(
        "run",
        [
            lambda problem: Recognizer(problem, []),
            lambda problem: recognize(problem, [], []),
            lambda problem: recognize_online(problem, [], []),
        ],
        ids=["Recognizer", "recognize", "recognize_online"],
    )
    def test_problem_without_goals_is_rejected(self, run):
        # ground never builds one; a hand-built problem can.
        problem = GroundProblem(facts=["(f0)"], actions=[], s0=frozenset(), goals=[])
        with pytest.raises(ParameterError, match="^at least one goal is required$"):
            run(problem)

    def test_unknown_ids_rejected(self, grid):
        problem, _ = grid
        recognizer = Recognizer(problem, _grid_tables(problem))
        with pytest.raises(ParameterError, match=f"^unknown action id: {len(problem.actions)}$"):
            recognizer.observe(ObservationEvent.action(len(problem.actions)))
        with pytest.raises(ParameterError, match="^observed state contains unknown fact ids$"):
            recognizer.observe(ObservationEvent.state({-1}))
        assert recognizer.scores() == [0.0, 0.0]

    def test_explain_splits_the_score(self, grid):
        problem, events = grid
        recognizer = Recognizer(problem, _grid_tables(problem))
        for event in events:
            scores = recognizer.observe(event)
        first, second = recognizer.explain()
        assert first["penalized_facts"] == []
        assert second["penalized_facts"] == ["(is-at c22)", "(is-at c21)"]
        assert first["reward"] == pytest.approx(math.sqrt(3.5), abs=1e-9)
        assert first["remaining"] == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert second["remaining"] == pytest.approx(math.sqrt(3.5), abs=1e-9)
        for g, goal in enumerate((first, second)):
            assert goal["reward"] - float(np.linalg.norm(recognizer.directions[g])) == scores[g]

    def test_explain_names_no_s0_fact(self, grid):
        # Goal 1's table is 0 on s0's (is-at c23): that fact reads -1 in its
        # direction row from the start, adds as much to the reward term as to
        # the length, and was never observed, so it is no penalty.
        problem, events = grid
        tables = _grid_tables(problem)
        [start] = problem.s0
        tables[1].p[start] = 0.0
        recognizer = Recognizer(problem, tables)
        assert recognizer.scores() == [0.0, 0.0]
        assert [goal["penalized_facts"] for goal in recognizer.explain()] == [[], []]
        recognizer.fold(events[0])
        assert recognizer.explain()[1]["penalized_facts"] == ["(is-at c22)"]


class TestBitIdentityAtScale:
    """Past the few facts that the property above draws, BLAS sums long rows
    in blocks; every score must still equal the row-by-row norm exactly."""

    @pytest.mark.parametrize("case", ["random-40x40", "logistics"])
    def test_scores_equal_per_row_norms(self, case, logistics):
        problem, events = _random_grid_40() if case == "random-40x40" else logistics
        tables = [estimate(problem, g, 10, 7) for g in range(len(problem.goals))]
        recognizer = Recognizer(problem, tables)
        start = [math.sqrt(row.dot(row)) for row in recognizer.directions]
        pvs = [map_probs(t) for t in tables]
        s0v = map_state(problem.s0, problem.fact_count)
        state = RelaxedState(problem.s0)
        assert len(events) > 1
        for event in events:
            scores = recognizer.observe(event)
            rows = [s - math.sqrt(row.dot(row)) for s, row in zip(start, recognizer.directions)]
            assert scores == rows
            state = progress(state, event, problem)
            stv = map_state(state.facts, problem.fact_count)
            assert scores == [heuristic(s0v, stv, pv) for pv in pvs]
