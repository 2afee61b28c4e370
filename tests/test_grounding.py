"""Grounding: dense ids, static-predicate handling, determinism."""

from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from goalrec import bench, grounding
from goalrec.bench import build_problem, load_instance, prepare_instance
from goalrec.errors import GoalRecError, ParameterError, ValidationError
from goalrec.gridgen import DOMAIN_TEXT, random_grid, template_text
from goalrec.grounding import (
    GroundAction,
    GroundProblem,
    ground,
    ground_instantiations,
    static_predicates,
)
from goalrec.negation import COMPLEMENT_PREFIX, compile_negations
from goalrec.pddl import (
    ROOT_TYPE,
    ActionSchema,
    DomainAst,
    Literal,
    Predicate,
    ProblemAst,
    objects_by_type,
    parse_domain,
    parse_problem,
)

from atoms import parse_hypothesis_line
from conftest import FIXTURES, example_grid
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
        assert set(problem.facts) == {
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
        for fact_id, name in enumerate(problem.facts):
            assert problem.fact_id(name) == fact_id

    def test_ids_follow_lexicographic_names(self):
        problem = _grid_problem()
        assert problem.facts == sorted(problem.facts)
        assert [a.name for a in problem.actions] == sorted(
            a.name for a in problem.actions
        )

    def test_grounding_is_deterministic(self):
        a, b = _grid_problem(), _grid_problem()
        assert a.facts == b.facts
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
        with pytest.raises(ParameterError, match=r"^unknown fact: \(is-at c99\)$"):
            problem.fact_id("(is-at c99)")
        with pytest.raises(ParameterError, match=r"^unknown action: \(m c1 c25\)$"):
            problem.action_id("(m c1 c25)")

    def test_hand_built_problem_resolves_names(self):
        problem = GroundProblem(
            ["(f0)", "(f1)"],
            [GroundAction("(a0)", frozenset({0}), frozenset({1}), frozenset())],
            frozenset({0}),
            [frozenset({1})],
        )
        assert problem.fact_id("(f1)") == 1
        assert problem.action_id("(a0)") == 0


class TestHypothesisGrounding:
    def test_ungroundable_hypothesis_rejected(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        bad = (frozenset({Literal("adj", ("c1", "c2"))}),)  # static, not a fact
        message = r"^hypothesis literal not groundable: \(adj c1 c2\)$"
        with pytest.raises(ValidationError, match=message):
            ground(domain, replace(problem, goals=bad))

    def test_empty_hypothesis_list_rejected(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        with pytest.raises(ParameterError, match="^at least one goal hypothesis is required$"):
            ground(domain, replace(problem, goals=()))

    def test_negated_static_hypothesis_is_named_as_written(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        bad = (frozenset({Literal("adj", ("c1", "c2"), negated=True)}),)
        message = r"^hypothesis literal not groundable: \(not \(adj c1 c2\)\)$"
        with pytest.raises(ValidationError, match=message):
            ground(domain, replace(problem, goals=bad))

    def test_negated_hypothesis_is_compiled_first(self):
        domain = parse_domain(DOMAIN_TEXT)
        problem = parse_problem(
            template_text(SPEC).replace("<HYPOTHESIS>", "(is-at c1)"), domain
        )
        problem = replace(problem, goals=(frozenset({Literal("is-at", ("c1",), negated=True)}),))
        assert ground(domain, problem) == ground(*compile_negations(domain, problem))

    def test_negated_precondition_is_compiled_first(self):
        domain = parse_domain(
            "(define (domain d) (:predicates (p))"
            " (:action a :parameters () :precondition (not (p)) :effect (p)))"
        )
        problem = parse_problem("(define (problem q) (:domain d) (:init) (:goal (p)))", domain)
        assert ground(domain, problem) == ground(*compile_negations(domain, problem))


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
        domain, problem = compile_negations(domain, problem)
        gp = ground(domain, problem)
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
        names = set(problem.facts)
        assert not any(n.startswith("(link") for n in names)
        # at-truck: 1x3, at-pkg: 2x3, in: 2x1
        assert problem.fact_count == 3 + 6 + 2

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                ":precondition (and (at-truck ?t ?l) (at-pkg ?p ?l))",
                ":precondition (and (at-truck ?t ?l) (at-pkg ?t ?l))",
                r"object t1 of type truck does not fit package "
                r"in \(at-pkg \?t \?l\) of schema load",
            ),
            (
                ":effect (and (at-pkg ?p ?l) (not (in ?p ?t))",
                ":effect (and (at-pkg ?p ?l) (at-truck ?p ?l) (not (in ?p ?t))",
                r"object p1 of type package does not fit truck "
                r"in \(at-truck \?p \?l\) of schema unload",
            ),
        ],
        ids=["precondition", "effect"],
    )
    def test_variable_in_a_fluent_slot_it_does_not_fit_raises(self, old, new, message):
        instance = load_instance(FIXTURES / "logistics")
        assert instance.domain_text.count(old) == 1
        with pytest.raises(ValidationError, match=message):
            build_problem(
                instance.domain_text.replace(old, new), instance.template_text, instance.hypotheses
            )

    def test_static_precondition_narrows_a_supertype_variable_to_its_fluent_slot(self):
        domain = parse_domain("""\
(define (domain narrow) (:requirements :strips :typing) (:types a - object c - a)
  (:predicates (at ?x - c) (is-c ?x - c) (on ?y))
  (:action go :parameters (?x ?y) :precondition (and (is-c ?x) (on ?y))
    :effect (at ?x)))
""")
        problem = parse_problem("""\
(define (problem p) (:domain narrow) (:objects x1 - a z1 - c)
  (:init (is-c z1) (on x1)) (:goal (at z1)))
""", domain)
        actions = ground(domain, problem).actions
        assert [a.name for a in actions] == ["(go z1 x1)"]


# ── Join grounder against the exhaustive reference ──────────────────────


def _checked_against_reference(monkeypatch):
    """Make bench's ground() assert equality with the reference on every call."""
    calls = []

    def both(domain, problem):
        joined = ground(domain, problem)
        assert joined == ground_exhaustive(domain, problem)
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


def _rarely(draw):
    """True about one draw in eight: three booleans, which Hypothesis draws
    about evenly, unlike a small integer, which it draws as 0 far more often."""
    return all(draw(st.booleans()) for _ in range(3))


@st.composite
def typed_tasks(draw):
    """Small random typed domains with static preconditions of every shape.

    Types form a hierarchy under object.  Static predicates have arity 0-3
    and random parameter types; the last one never has init atoms.  Schema
    literals draw their variables independently, so a variable may repeat
    within a literal and a parameter may be bound by no static literal.
    A schema with enough variables for some static predicate of arity 2 or
    3 also gets a literal over distinct variables and the same literal in
    reverse order, so that the join keys one of them on two or more bound
    positions; that predicate's init holds about half of its atoms, so
    they are seldom symmetric and seldom empty.  Static preconditions may
    be negated, and so may goal literals over fluents; sometimes a goal
    also negates one static atom, and sometimes the domain declares the
    complement of a predicate.  The task is returned as drawn, before
    compilation.
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
    paired = set()  # the predicates of the reversed pairs
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

        static_pre = literals(statics, 3, negatable=True)
        binary = [p for p in statics[:-1] if 2 <= p.arity <= len(variables)]
        if binary:
            pred = draw(st.sampled_from(binary))
            args = tuple(draw(st.permutations(variables))[: pred.arity])
            static_pre += [Literal(pred.name, args), Literal(pred.name, args[::-1])]
            paired.add(pred.name)
        pre = static_pre + literals(fluents, 2)
        schemas.append(
            ActionSchema(
                f"act{k}", params, tuple(pre), tuple(literals(fluents, 2)),
                tuple(literals(fluents, 1)),
            )
        )

    domain = DomainAst("random", types, tuple(statics + fluents), tuple(schemas))
    objects = tuple((f"o{i}", draw(type_of)) for i in range(draw(st.integers(0, 5))))
    universe = objects_by_type(domain, objects)

    def atoms(pred):
        return list(ground_instantiations(pred.params, universe))

    def init_atoms(pred):
        if pred.name in paired:
            return [args for args in atoms(pred) if draw(st.booleans())]
        return _subset(draw, atoms(pred))

    init = {pred.name: frozenset(init_atoms(pred)) for pred in statics[:-1] + fluents}
    changing = [p for p in fluents if p.name not in static_predicates(domain)]
    goal = [
        Literal(pred.name, args, draw(st.booleans()))
        for pred in changing
        for args in _subset(draw, atoms(pred))
    ]
    # A static predicate negated only here is left open, so its literal
    # names no fact; one such literal at most keeps the first one named
    # the same in both grounders.
    static_atoms = [(pred.name, args) for pred in statics for args in atoms(pred)]
    if static_atoms and _rarely(draw):
        goal.append(Literal(*draw(st.sampled_from(static_atoms)), negated=True))
    if _rarely(draw):
        # A declared complement, which collides if its predicate is negated.
        pred = draw(st.sampled_from(statics + fluents))
        complement = Predicate(COMPLEMENT_PREFIX + pred.name, pred.params)
        domain = replace(domain, predicates=domain.predicates + (complement,))
    return domain, ProblemAst(objects, init, (frozenset(goal),))


def _negation_paths(domain, problem):
    """The compilation paths a task takes, checking each one's outcome: a
    collision, or per predicate negated only in goals, its complement left
    open (static) or closed (fluent)."""
    try:
        compiled = compile_negations(domain, problem)[1]
    except ValidationError as error:
        assert "collides with negation compilation" in str(error)
        return ["collision"]
    in_pre = {lit.predicate for s in domain.schemas for lit in s.pre if lit.negated}
    in_goal = {lit.predicate for goal in problem.goals for lit in goal if lit.negated}
    paths = []
    for name in sorted(in_goal - in_pre):
        closed = COMPLEMENT_PREFIX + name in compiled.init
        assert closed == (name not in static_predicates(domain))
        paths.append("goal-only fluent closed" if closed else "goal-only static left open")
    return paths


_EDGE_PROBLEM = """\
(define (problem p) (:domain edge) (:objects o1 o2)
  (:init (adj o1 o1) (adj o1 o2) (adj o2 o2) (at o1) (h)) (:goal (at o2)))
"""

# Domain and problem texts of tasks that random ones seldom hit.  They are
# parsed inside the test, so a reader fault fails each case on its own.
EDGE_CASES = {
    # A fluent predicate with no objects of its type, in a delete list: its
    # schema has no bindings and the predicate no facts.
    "empty-type-delete": (
        """\
(define (domain edge) (:requirements :strips :typing) (:types t)
  (:predicates (adj ?x ?y) (at ?x) (h) (gone ?x - t))
  (:action drop :parameters (?x - t) :precondition (and) :effect (not (gone ?x)))
  (:action m :parameters (?x ?y) :precondition (and (at ?x) (adj ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
""",
        _EDGE_PROBLEM,
    ),
    # 0-ary fluents in preconditions, adds and deletes, and a variable
    # repeated within a static precondition.
    "nullary-and-repeated": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (at ?x) (h) (k))
  (:action m :parameters (?x ?y) :precondition (and (h) (at ?x) (adj ?x ?y))
    :effect (and (k) (at ?y) (not (at ?x)) (not (h))))
  (:action stay :parameters (?x) :precondition (and (k) (adj ?x ?x) (at ?x))
    :effect (and (h) (not (k)))))
""",
        _EDGE_PROBLEM,
    ),
    # A static literal joined on two already bound variables, over atoms
    # that are not symmetric: its table must be keyed on those positions in
    # order.
    "two-bound-positions": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (link ?x ?y) (at ?x))
  (:action m :parameters (?x ?y) :precondition (and (at ?x) (adj ?x ?y) (link ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
""",
        """\
(define (problem p) (:domain edge) (:objects o1 o2 o3)
  (:init (adj o1 o2) (adj o2 o1) (adj o2 o3)
    (link o1 o2) (link o2 o3) (link o3 o2) (link o1 o3) (at o1))
  (:goal (at o3)))
""",
    ),
    # A parameter of a strict subtype of the static predicate's declared
    # type: its init atoms prove only the wider type, so the join must still
    # drop the atom over o1.
    "subtype-parameter": (
        """\
(define (domain edge) (:requirements :strips :typing) (:types a - object b - a)
  (:predicates (s ?x - a) (at ?x))
  (:action m :parameters (?x - b) :precondition (and (s ?x)) :effect (at ?x)))
""",
        """\
(define (problem p) (:domain edge) (:objects o1 - a o2 - b)
  (:init (s o1) (s o2)) (:goal (at o2)))
""",
    ),
    # A typed parameter repeated within an untyped static predicate: each
    # atom's objects fit t at both positions or at neither, and none repeats
    # an object of type t, so only the equality check drops them all.
    "repeated-slot-untyped": (
        """\
(define (domain edge) (:requirements :strips :typing) (:types t)
  (:predicates (r ?x ?y) (at ?x))
  (:action m :parameters (?x - t) :precondition (and (r ?x ?x)) :effect (at ?x)))
""",
        """\
(define (problem p) (:domain edge) (:objects o1 o2 - t o3)
  (:init (r o1 o2) (r o2 o1) (r o3 o3)) (:goal (at o1)))
""",
    ),
    # The grid's move: its one static literal, joined first, is over the
    # parameters in order, so its init rows are taken as the bindings.
    "first-literal-in-order": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (at ?x) (h))
  (:action m :parameters (?x ?y) :precondition (and (at ?x) (adj ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
""",
        _EDGE_PROBLEM,
    ),
    # The same literal reversed, over atoms that are not symmetric: its rows
    # must be placed by slot, not taken as they are.
    "first-literal-reversed": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (at ?x) (h))
  (:action m :parameters (?x ?y) :precondition (and (at ?x) (adj ?y ?x))
    :effect (and (at ?y) (not (at ?x)))))
""",
        _EDGE_PROBLEM,
    ),
    # A variable repeated in the first literal, and a parameter it leaves
    # free, which ranges over its type.
    "first-literal-repeated": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (at ?x) (h))
  (:action m :parameters (?x ?y) :precondition (and (at ?x) (adj ?x ?x))
    :effect (and (at ?y) (not (at ?x)))))
""",
        _EDGE_PROBLEM,
    ),
    # A first literal over the parameters in order whose declared types are
    # wider than theirs: the type check drops the rows over o1 and o3 before
    # they are taken as bindings.
    "first-literal-typed": (
        """\
(define (domain edge) (:requirements :strips :typing) (:types a - object b - a)
  (:predicates (adj ?x ?y - a) (at ?x))
  (:action m :parameters (?x ?y - b) :precondition (and (adj ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
""",
        """\
(define (problem p) (:domain edge) (:objects o1 o3 - a o2 o4 - b)
  (:init (adj o1 o2) (adj o2 o4) (adj o4 o2) (adj o4 o3) (adj o3 o1))
  (:goal (at o2)))
""",
    ),
    # A 0-ary static literal with no init atoms is joined first and leaves
    # no binding: the literal over the parameters in order, joined next,
    # must not bring its rows back.
    "nullary-static-without-atoms": (
        """\
(define (domain edge) (:requirements :strips)
  (:predicates (adj ?x ?y) (at ?x) (h) (open))
  (:action m :parameters (?x ?y) :precondition (and (open) (at ?x) (adj ?x ?y))
    :effect (and (at ?y) (not (at ?x)))))
""",
        _EDGE_PROBLEM,
    ),
}


class TestGroundInstantiations:
    @given(
        universe=st.dictionaries(
            st.sampled_from(["t0", "t1", "t2"]),
            st.lists(st.sampled_from(["o0", "o1", "o2", "o3"]), unique=True, max_size=3),
        ),
        types=st.lists(st.sampled_from(["t0", "t1", "t2", "t3"]), max_size=4),
    )
    def test_without_static_literals_is_the_type_product(self, universe, types):
        # t3 and any type the dictionary leaves out have no objects.
        params = [(f"?v{i}", typ) for i, typ in enumerate(types)]
        pools = [universe.get(typ, []) for typ in types]
        assert list(ground_instantiations(params, universe)) == list(product(*pools))


def _outcome(grounder, domain, problem):
    """The grounded problem, or the type and message of the error raised."""
    try:
        return grounder(domain, problem)
    except GoalRecError as error:
        return type(error), str(error)


class TestReferenceProperty:
    @given(task=typed_tasks())
    @settings(max_examples=300, deadline=None)
    def test_identical_to_reference(self, task):
        for path in _negation_paths(*task):
            event(path)
        assert _outcome(ground, *task) == _outcome(ground_exhaustive, *task)

    @given(task=typed_tasks())
    @settings(max_examples=100, deadline=None)
    def test_compiling_negations_twice_is_compiling_once(self, task):
        paths = _negation_paths(*task)
        for path in paths:
            event(path)
        if paths != ["collision"]:
            once = compile_negations(*task)
            assert compile_negations(*once) == once

    def test_tasks_reach_every_negation_path(self):
        # The same derandomized draws each run: the strategy must reach a
        # collision and both completions of a goal-only negation.
        reached = Counter()

        @given(task=typed_tasks())
        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        def count(task):
            reached.update(_negation_paths(*task))

        count()
        assert set(reached) == {
            "collision", "goal-only fluent closed", "goal-only static left open"
        }, reached

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_case_identical_to_reference(self, name):
        domain_text, problem_text = EDGE_CASES[name]
        domain = parse_domain(domain_text)
        problem = parse_problem(problem_text, domain)
        assert ground(domain, problem) == ground_exhaustive(domain, problem)
