"""Parser, validation, negation compilation, and round-trip printing."""

from fractions import Fraction

import pytest

from goalrec.errors import (
    PddlSyntaxError,
    UnsupportedRequirementError,
    ValidationError,
)
from goalrec.gridgen import DOMAIN_TEXT
from goalrec.negation import compile_negations
from goalrec.pddl import (
    Literal,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
)

from conftest import TYPED_DOMAIN

MINIMAL_DOMAIN = """\
(define (domain grid-nav)
  (:predicates (is-at ?x) (adj ?x ?y))
  (:action m
    :parameters (?x ?y)
    :precondition (and (is-at ?x) (adj ?x ?y))
    :effect (and (is-at ?y) (not (is-at ?x)))))
"""

DOOR_DOMAIN = """\
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
    :effect (locked ?d)))
"""


def _problem(text: str, domain_text: str = MINIMAL_DOMAIN):
    domain = parse_domain(domain_text)
    return domain, parse_problem(text, domain)


class TestParseDomain:
    def test_minimal_domain_counts(self):
        domain = parse_domain(MINIMAL_DOMAIN)
        assert len(domain.predicates) == 2
        assert len(domain.schemas) == 1
        assert domain.schemas[0].name == "m"

    def test_empty_input_is_a_syntax_error(self):
        with pytest.raises(PddlSyntaxError):
            parse_domain("")

    def test_adl_requirement_rejected(self):
        text = MINIMAL_DOMAIN.replace(
            "(:predicates", "(:requirements :adl)\n  (:predicates"
        )
        with pytest.raises(UnsupportedRequirementError, match=":adl"):
            parse_domain(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(PddlSyntaxError):
            parse_domain("(define (domain d)")

    def test_arity_mismatch_rejected(self):
        text = MINIMAL_DOMAIN.replace("(is-at ?x) (adj ?x ?y)", "(is-at ?x ?y) (adj ?x ?y)")
        with pytest.raises(ValidationError, match="arity"):
            parse_domain(text)

    def test_duplicate_schema_names_rejected(self):
        dup = MINIMAL_DOMAIN.rstrip()[:-1] + """
  (:action m
    :parameters (?x ?y)
    :precondition (is-at ?x)
    :effect (is-at ?y)))
"""
        with pytest.raises(ValidationError, match="duplicate"):
            parse_domain(dup)

    def test_undeclared_variable_rejected(self):
        text = MINIMAL_DOMAIN.replace("(is-at ?y)", "(is-at ?z)")
        with pytest.raises(ValidationError, match=r"\?z"):
            parse_domain(text)

    def test_undeclared_predicate_rejected(self):
        text = MINIMAL_DOMAIN.replace(
            ":precondition (and (is-at ?x) (adj ?x ?y))",
            ":precondition (and (is-at ?x) (near ?x ?y))",
        )
        with pytest.raises(ValidationError, match="near"):
            parse_domain(text)

    @pytest.mark.parametrize("types", ["a - b b - a", "a - a"])
    def test_cyclic_types_rejected(self, types):
        text = MINIMAL_DOMAIN.replace(
            "(:predicates", f"(:requirements :typing)\n  (:types {types})\n  (:predicates"
        )
        with pytest.raises(ValidationError, match="own ancestor"):
            parse_domain(text)

    def test_identifiers_lowercased(self):
        domain = parse_domain(MINIMAL_DOMAIN.replace("is-at", "IS-AT"))
        assert domain.predicates[0].name == "is-at"

    def test_action_costs_parsed_as_rational(self):
        text = """\
(define (domain costly)
  (:requirements :strips :action-costs)
  (:predicates (f))
  (:functions (total-cost))
  (:action a
    :parameters ()
    :precondition (and)
    :effect (and (f) (increase (total-cost) 3))))
"""
        domain = parse_domain(text)
        assert domain.schemas[0].cost == Fraction(3)

    def test_default_cost_is_one(self):
        domain = parse_domain(MINIMAL_DOMAIN)
        assert domain.schemas[0].cost == Fraction(1)


class TestParseProblem:
    def test_grid_problem(self):
        _, problem = _problem(
            """\
(define (problem p)
  (:domain grid-nav)
  (:objects c1 c23)
  (:init (is-at c23))
  (:goal (is-at c1)))
"""
        )
        assert problem.init == frozenset({Literal("is-at", ("c23",))})
        assert problem.goal == frozenset({Literal("is-at", ("c1",))})

    def test_undeclared_object_rejected(self):
        with pytest.raises(ValidationError, match="c99"):
            _problem(
                """\
(define (problem p)
  (:domain grid-nav)
  (:objects c23)
  (:init (is-at c23))
  (:goal (is-at c99)))
"""
            )

    def test_repeated_object_rejected(self):
        with pytest.raises(ValidationError, match="c1 is declared more than once"):
            _problem(
                """\
(define (problem p)
  (:domain grid-nav)
  (:objects c1 c2 c1)
  (:init (is-at c2) (adj c1 c2))
  (:goal (is-at c1)))
"""
            )

    def test_object_repeated_under_another_type_rejected(self):
        with pytest.raises(ValidationError, match="x1 is declared more than once"):
            _problem(
                """\
(define (problem p)
  (:domain typed)
  (:objects x1 x2 - a x1 - b)
  (:init (at x1))
  (:goal (at x2)))
""",
                TYPED_DOMAIN,
            )

    def test_mistyped_init_atom_rejected(self):
        with pytest.raises(ValidationError, match=r"y1 of type b does not fit a in init atom \(at y1\)"):
            _problem(
                """\
(define (problem p)
  (:domain typed)
  (:objects x1 - a y1 - b)
  (:init (at y1))
  (:goal (at x1)))
""",
                TYPED_DOMAIN,
            )

    def test_mistyped_goal_atom_rejected(self):
        with pytest.raises(ValidationError, match=r"goal atom \(at y1\)"):
            _problem(
                """\
(define (problem p)
  (:domain typed)
  (:objects x1 - a y1 - b)
  (:init (at x1))
  (:goal (at y1)))
""",
                TYPED_DOMAIN,
            )

    def test_subtype_fits_supertype_parameter(self):
        _, problem = _problem(
            """\
(define (problem p)
  (:domain typed)
  (:objects x1 - a z1 - c)
  (:init (at z1) (near z1 x1))
  (:goal (at x1)))
""",
            TYPED_DOMAIN,
        )
        assert Literal("near", ("z1", "x1")) in problem.init

    def test_goal_equal_to_init_is_valid(self):
        _, problem = _problem(
            """\
(define (problem p)
  (:domain grid-nav)
  (:objects c23)
  (:init (is-at c23))
  (:goal (is-at c23)))
"""
        )
        assert problem.goal == problem.init

    def test_domain_name_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="grid-nav"):
            _problem(
                """\
(define (problem p)
  (:domain blocks)
  (:objects c23)
  (:init (is-at c23))
  (:goal (is-at c23)))
"""
            )


class TestCompileNegations:
    DOOR_PROBLEM = """\
(define (problem p)
  (:domain doors)
  (:objects d1 d2)
  (:init (locked d2))
  (:goal (open d1)))
"""

    def _compiled(self):
        domain = parse_domain(DOOR_DOMAIN)
        problem = parse_problem(self.DOOR_PROBLEM, domain)
        return compile_negations(domain, problem)

    def test_negated_precondition_rewritten(self):
        domain, _ = self._compiled()
        push = next(s for s in domain.schemas if s.name == "push")
        assert Literal("not-locked", ("?d",)) in push.pre
        assert not any(lit.negated for lit in push.pre)

    def test_adder_of_predicate_deletes_complement(self):
        domain, _ = self._compiled()
        lock = next(s for s in domain.schemas if s.name == "lock")
        assert Literal("not-locked", ("?d",)) in lock.delete

    def test_closed_world_completion(self):
        # d1 is not locked in init, so its complement atom must be.
        _, problem = self._compiled()
        assert Literal("not-locked", ("d1",)) in problem.init
        assert Literal("not-locked", ("d2",)) not in problem.init

    def test_output_has_no_negations(self):
        domain, problem = self._compiled()
        for schema in domain.schemas:
            assert not any(lit.negated for lit in schema.pre)
        assert not any(lit.negated for lit in problem.goal)

    def test_identity_when_no_negations(self):
        domain = parse_domain(MINIMAL_DOMAIN.replace(
            "(and (is-at ?y) (not (is-at ?x)))", "(is-at ?y)"
        ))
        problem = parse_problem(
            """\
(define (problem p)
  (:domain grid-nav)
  (:objects c23)
  (:init (is-at c23))
  (:goal (is-at c23)))
""",
            domain,
        )
        out_domain, out_problem = compile_negations(domain, problem)
        assert out_domain is domain
        assert out_problem is problem


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL_DOMAIN, DOOR_DOMAIN, DOMAIN_TEXT])
    def test_domain_round_trip(self, text):
        ast = parse_domain(text)
        assert parse_domain(print_domain(ast)) == ast

    def test_problem_round_trip(self):
        domain, problem = _problem(
            """\
(define (problem p)
  (:domain grid-nav)
  (:objects c1 c22 c23)
  (:init (is-at c23) (adj c23 c22) (adj c22 c23))
  (:goal (and (is-at c1))))
"""
        )
        assert parse_problem(print_problem(problem), domain) == problem
