"""Grounding: dense ids, static-predicate handling, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec import bench, grounding
from goalrec.bench import build_problem, load_instance, parse_hypothesis_line, prepare_instance
from goalrec.errors import GroundingError
from goalrec.gridgen import DOMAIN_TEXT, example_grid, random_grid, template_text
from goalrec.grounding import ground, ground_instantiations, objects_by_type, static_predicates
from goalrec.negation import compile_negations
from goalrec.pddl import (
    ROOT_TYPE,
    ActionSchema,
    DomainAst,
    Literal,
    Predicate,
    ProblemAst,
    parse_domain,
    parse_problem,
)

from conftest import FIXTURES
from exhaustive_grounding import ground_exhaustive

SPEC = example_grid()


def _grid_problem():
    hyps = (
        parse_hypothesis_line("(is-at c1)"),
        parse_hypothesis_line("(is-at c5)"),
    )
    return build_problem(DOMAIN_TEXT, template_text(SPEC), hyps)


class TestGridGrounding:
    def test_fact_universe_is_25_cells(self):
        problem = _grid_problem()
        assert problem.fact_count == 25
        assert {f.name for f in problem.facts} == {
            f"(is-at c{i})" for i in range(1, 26)
        }

    def test_move_action_shape(self):
        problem = _grid_problem()
        aid = problem.action_id("(m c23 c22)")
        action = problem.actions[aid]
        assert action.pre == {problem.fact_id("(is-at c23)")}
        assert action.add == {problem.fact_id("(is-at c22)")}
        assert action.delete == {problem.fact_id("(is-at c23)")}

    def test_move_count_matches_open_adjacency(self):
        # Independent count: directed 4-connected edges between open cells.
        open_cells = set(SPEC.open_cells())
        edges = 0
        for cell in open_cells:
            row, col = SPEC.coords(cell)
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r, c = row + dr, col + dc
                if 1 <= r <= 5 and 1 <= c <= 5 and SPEC.cell(r, c) in open_cells:
                    edges += 1
        problem = _grid_problem()
        assert len(problem.actions) == edges
        assert edges == 2 * (edges // 2)  # directed edges pair up

    def test_goals_resolve_to_fact_ids(self):
        problem = _grid_problem()
        assert problem.goals[0] == {problem.fact_id("(is-at c1)")}
        assert problem.goals[1] == {problem.fact_id("(is-at c5)")}
        assert problem.s0 == {problem.fact_id("(is-at c23)")}


class TestGroundProblemContracts:
    def test_fact_id_bijection(self):
        problem = _grid_problem()
        for fact in problem.facts:
            assert problem.fact_id(fact.name) == fact.id
            assert problem.fact_name(fact.id) == fact.name
        assert [f.id for f in problem.facts] == list(range(problem.fact_count))

    def test_ids_follow_lexicographic_names(self):
        problem = _grid_problem()
        names = [f.name for f in problem.facts]
        assert names == sorted(names)
        assert [a.name for a in problem.actions] == sorted(
            a.name for a in problem.actions
        )

    def test_grounding_is_deterministic(self):
        a, b = _grid_problem(), _grid_problem()
        assert [f.name for f in a.facts] == [f.name for f in b.facts]
        assert [(x.name, x.pre, x.add, x.delete) for x in a.actions] == [
            (x.name, x.pre, x.add, x.delete) for x in b.actions
        ]
        assert a.s0 == b.s0 and a.goals == b.goals

    def test_add_delete_disjoint(self):
        problem = _grid_problem()
        for action in problem.actions:
            assert not action.add & action.delete

    def test_unknown_names_raise(self):
        problem = _grid_problem()
        with pytest.raises(GroundingError):
            problem.fact_id("(is-at c99)")
        with pytest.raises(GroundingError):
            problem.action_id("(m c1 c25)")


class TestHypothesisGrounding:
    def test_ungroundable_hypothesis_rejected(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        bad = [frozenset({Literal("adj", ("c1", "c2"))})]  # static, not a fact
        with pytest.raises(GroundingError, match="not groundable"):
            ground(domain, problem, bad)

    def test_empty_hypothesis_list_rejected(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        with pytest.raises(GroundingError):
            ground(domain, problem, [])

    def test_negated_hypothesis_requires_compilation(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        bad = [frozenset({Literal("is-at", ("c1",), negated=True)})]
        with pytest.raises(GroundingError, match="negated"):
            ground(domain, problem, bad)


class TestNegationSoundness:
    DOMAIN = """\
(define (domain doors)
  (:requirements :strips :negative-preconditions)
  (:predicates (locked ?d) (open ?d))
  (:action push
    :parameters (?d)
    :precondition (not (locked ?d))
    :effect (open ?d))
  (:action lock
    :parameters (?d)
    :precondition (and)
    :effect (locked ?d))
  (:action unlock
    :parameters (?d)
    :precondition (locked ?d)
    :effect (not (locked ?d))))
"""
    PROBLEM = """\
(define (problem p)
  (:domain doors)
  (:objects d1 d2)
  (:init (locked d2))
  (:goal (open d1)))
"""

    def test_exclusivity_preserved_under_application(self):
        domain = parse_domain(self.DOMAIN)
        problem = parse_problem(self.PROBLEM, domain)
        gp = ground(*compile_negations(domain, problem))
        pairs = [
            (gp.fact_id(f"(locked {d})"), gp.fact_id(f"(not-locked {d})"))
            for d in ("d1", "d2")
        ]

        def exclusive(state):
            return all((p in state) != (q in state) for p, q in pairs)

        frontier = [gp.s0]
        seen = {gp.s0}
        while frontier:
            state = frontier.pop()
            assert exclusive(state)
            for action in gp.actions:
                if action.pre <= state:
                    succ = frozenset((state - action.delete) | action.add)
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
        assert len(seen) > 1


class TestTypedGrounding:
    def test_logistics_static_link_restricts_drives(self, logistics):
        problem, _ = logistics
        drives = [a for a in problem.actions if a.name.startswith("(drive")]
        # 4 directed links, 1 truck.
        assert len(drives) == 4
        assert "(drive t1 l1 l3)" not in {a.name for a in problem.actions}

    def test_logistics_fact_universe_excludes_statics(self, logistics):
        problem, _ = logistics
        names = {f.name for f in problem.facts}
        assert not any(n.startswith("(link") for n in names)
        # at-truck: 1x3, at-pkg: 2x3, in: 2x1
        assert problem.fact_count == 3 + 6 + 2


# ── Join grounder against the exhaustive reference ──────────────────────


def _checked_against_reference(monkeypatch):
    """Make bench's ground() assert equality with the reference on every call."""
    calls = []

    def both(domain, problem, hypotheses=None):
        joined = ground(domain, problem, hypotheses)
        assert joined == ground_exhaustive(domain, problem, hypotheses)
        calls.append(joined)
        return joined

    monkeypatch.setattr(bench, "ground", both)
    return calls


class TestReferenceEquality:
    @pytest.mark.parametrize("name", ["grid", "chain", "logistics"])
    def test_fixture_identical_to_reference(self, monkeypatch, name):
        calls = _checked_against_reference(monkeypatch)
        prepare_instance(load_instance(FIXTURES / name))
        assert len(calls) == 1 and calls[0].actions

    def test_random_grid_identical_to_reference(self, monkeypatch):
        calls = _checked_against_reference(monkeypatch)
        spec = random_grid(np.random.default_rng(3), width=9, height=8, n_goals=4)
        hyps = tuple(parse_hypothesis_line(f"(is-at {g})") for g in spec.goal_cells)
        build_problem(DOMAIN_TEXT, template_text(spec), hyps)
        assert len(calls) == 1

    def test_bindings_are_facts_plus_actions(self, monkeypatch):
        yielded = []
        original = grounding.ground_instantiations

        def counted(*args, **kwargs):
            items = list(original(*args, **kwargs))
            yielded.append(len(items))
            return iter(items)

        monkeypatch.setattr(grounding, "ground_instantiations", counted)
        problem = _grid_problem()
        assert sum(yielded) == problem.fact_count + len(problem.actions)


def _subset(draw, pool):
    pool = list(pool)
    return draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []


@st.composite
def typed_tasks(draw):
    """Small random typed domains with static preconditions of every shape.

    Types form a hierarchy under object.  Static predicates have arity 0-3
    and random parameter types; the last one never has init atoms.  Schema
    literals draw their variables independently, so a variable may repeat
    within a literal and a parameter may be bound by no static literal.
    Negated static preconditions are compiled away before grounding.
    """
    n_types = draw(st.integers(0, 3))
    types = tuple(
        (f"t{i}", draw(st.sampled_from([ROOT_TYPE] + [f"t{j}" for j in range(i)])))
        for i in range(n_types)
    )
    type_of = st.sampled_from([ROOT_TYPE] + [name for name, _ in types])

    def predicate(name, max_arity, typ):
        arity = draw(st.integers(0, max_arity))
        return Predicate(name, tuple((f"?a{j}", draw(typ)) for j in range(arity)))

    statics = [predicate(f"s{i}", 3, type_of) for i in range(draw(st.integers(1, 3)))]
    statics.append(predicate("empty", 2, type_of))
    fluents = [
        predicate(f"f{i}", 2, st.just(ROOT_TYPE)) for i in range(draw(st.integers(1, 2)))
    ]

    schemas = []
    for k in range(draw(st.integers(1, 3))):
        params = tuple(
            (f"?v{j}", draw(type_of)) for j in range(draw(st.integers(0, 3)))
        )
        variables = [var for var, _ in params]

        def literals(preds, max_count, negatable=False):
            usable = [p for p in preds if p.arity == 0 or variables]
            if not usable:
                return []
            out = []
            for _ in range(draw(st.integers(0, max_count))):
                pred = draw(st.sampled_from(usable))
                args = tuple(draw(st.sampled_from(variables)) for _ in pred.params)
                negated = negatable and draw(st.booleans())
                out.append(Literal(pred.name, args, negated))
            return out

        pre = literals(statics, 3, negatable=True) + literals(fluents, 2)
        schemas.append(
            ActionSchema(
                f"act{k}", params, tuple(pre), tuple(literals(fluents, 2)),
                tuple(literals(fluents, 1)),
            )
        )

    domain = DomainAst(
        "random",
        frozenset({":strips", ":typing", ":negative-preconditions"}),
        types,
        tuple(statics + fluents),
        tuple(schemas),
    )
    objects = tuple((f"o{i}", draw(type_of)) for i in range(draw(st.integers(0, 5))))
    universe = objects_by_type(domain, ProblemAst("p", "random", objects, frozenset(), frozenset()))

    def atoms(pred):
        return [Literal(pred.name, args) for args in ground_instantiations(pred.params, universe)]

    init = [lit for pred in statics[:-1] + fluents for lit in _subset(draw, atoms(pred))]
    changing = [p for p in fluents if p.name not in static_predicates(domain)]
    goal = _subset(draw, [lit for pred in changing for lit in atoms(pred)])
    problem = ProblemAst("p", "random", objects, frozenset(init), frozenset(goal))
    return compile_negations(domain, problem)


class TestReferenceProperty:
    @given(task=typed_tasks())
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference(self, task):
        domain, problem = task
        assert ground(domain, problem) == ground_exhaustive(domain, problem)
