"""Parser, validation and negation compilation."""

import re
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrec.errors import PddlSyntaxError, ValidationError
from goalrec.gridgen import DOMAIN_TEXT
from goalrec.grounding import ground
from goalrec.negation import compile_negations
from goalrec.pddl import (
    MAX_NESTING_DEPTH,
    ROOT_TYPE,
    DomainAst,
    Literal,
    Predicate,
    _read_single,
    _token_position,
    _token_texts,
    objects_by_type,
    parse_domain,
    parse_problem,
    read_forms,
)

from atoms import parse_atom
from conftest import FIXTURES, TYPED_DOMAIN
from reference_reader import (
    reference_parse_problem,
    reference_read_forms,
    reference_read_single,
    tokenize_by_character,
)

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


GRID_PROBLEM = """\
(define (problem p)
  (:domain grid-nav)
  (:objects c1 c23)
  (:init (is-at c23))
  (:goal (is-at c1)))
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
        with pytest.raises(ValidationError, match="^unsupported requirement: :adl$"):
            parse_domain(text)

    @pytest.mark.parametrize("tag", ["(:strips)", "()"])
    def test_parenthesised_requirement_tag_rejected(self, tag):
        text = MINIMAL_DOMAIN.replace(
            "(:predicates", f"(:requirements :typing {tag})\n  (:predicates"
        )
        with pytest.raises(ValidationError, match="requirement tags are symbols"):
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

    def test_duplicate_predicate_rejected(self):
        text = MINIMAL_DOMAIN.replace("(is-at ?x) (adj ?x ?y)", "(is-at) (is-at ?x) (adj ?x ?y)")
        with pytest.raises(ValidationError, match="duplicate predicate name: is-at"):
            parse_domain(text)

    @pytest.mark.parametrize(
        "section",
        [
            "(:requirements :strips)",
            "(:types cell)",
            "(:predicates (q))",
            "(:functions (total-cost))",
        ],
    )
    def test_repeated_section_rejected(self, section):
        header = "(define (domain grid-nav)"
        text = MINIMAL_DOMAIN.replace(header, f"{header} {section} {section}")
        head = section.split()[0][1:]
        with pytest.raises(ValidationError, match=f"repeated domain section: {head}"):
            parse_domain(text)

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

    def test_empty_precondition_form_is_no_precondition(self):
        domain = parse_domain(
            "(define (domain d) (:predicates (p))"
            " (:action a :parameters () :precondition () :effect (p)))"
        )
        assert domain.schemas[0].pre == ()


class TestObjectsByType:
    def test_subtypes_fit_their_ancestors_in_declaration_order(self):
        domain = DomainAst("d", (("vehicle", ROOT_TYPE), ("truck", "vehicle")), (), ())
        objects = (("t2", "truck"), ("v1", "vehicle"), ("b", ROOT_TYPE), ("t1", "truck"))
        assert objects_by_type(domain, objects) == {
            ROOT_TYPE: ["t2", "v1", "b", "t1"],
            "vehicle": ["t2", "v1", "t1"],
            "truck": ["t2", "t1"],
        }

    def test_object_of_an_undeclared_type_fits_no_type(self):
        domain = DomainAst("d", (("truck", ROOT_TYPE),), (), ())
        objects = (("x", "boat"), ("t1", "truck"))
        assert objects_by_type(domain, objects) == {ROOT_TYPE: ["t1"], "truck": ["t1"]}


class TestParseProblem:
    def test_grid_problem(self):
        _, problem = _problem(GRID_PROBLEM)
        assert problem.init == {"is-at": frozenset({("c23",)})}
        assert problem.goals == (frozenset({Literal("is-at", ("c1",))}),)

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

    @pytest.mark.parametrize("where", ["init", "goal"])
    def test_arity_mismatch_names_expected_and_got(self, where):
        atoms = {"init": "(is-at c23)", "goal": "(is-at c1)"}
        atoms[where] = "(adj c1)"
        text = GRID_PROBLEM.replace("(is-at c23))", f"{atoms['init']})").replace(
            "(:goal (is-at c1))", f"(:goal {atoms['goal']})"
        )
        with pytest.raises(
            ValidationError, match=f"arity mismatch for adj in {where}: expected 2, got 1"
        ):
            _problem(text)

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
        assert ("z1", "x1") in problem.init["near"]

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
        assert problem.init == {"is-at": frozenset({("c23",)})}
        assert problem.goals == (frozenset({Literal("is-at", ("c23",))}),)

    @pytest.mark.parametrize("goal", ["(:goal)", "(:goal (is-at c1) (is-at c23))"])
    def test_goal_must_hold_one_form(self, goal):
        with pytest.raises(ValidationError, match="must hold one form"):
            _problem(GRID_PROBLEM.replace("(:goal (is-at c1))", goal))

    @pytest.mark.parametrize(
        "section",
        [
            "(:domain grid-nav)",
            "(:objects c2)",
            "(:init (is-at c1))",
            "(:goal (is-at c23))",
            "(:metric minimize (total-cost))",
        ],
    )
    def test_repeated_section_rejected(self, section):
        header = "(define (problem p)"
        text = GRID_PROBLEM.replace(header, f"{header} {section} {section}")
        head = section.split()[0][1:]
        with pytest.raises(ValidationError, match=f"repeated problem section: {head}"):
            _problem(text)

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


# Templates for the input-error table: a domain d with its sections, an
# action over (p ?x), and a problem with its objects.
_DOMAIN = "(define (domain d) {})"
_ACTION = _DOMAIN.format(
    "(:predicates (p ?x)) (:action a :parameters ({}) :precondition (and {}) :effect (and {}))"
)
_PROBLEM = "(define (problem q) (:domain d) (:objects {}) (:init) (:goal (and)))"


class TestInputErrors:
    @pytest.mark.parametrize(
        "domain,problem,error,message",
        [
            ("(define (domain))", None, PddlSyntaxError, "expected (domain <name>) header"),
            (_DOMAIN.format("(:types a (b))"), None, ValidationError,
             "unexpected nested form in typed list: (b)"),
            (_DOMAIN.format("(:types a -)"), None, ValidationError, "dangling '-' in typed list"),
            (_DOMAIN.format("(:predicates p)"), None, ValidationError,
             "malformed predicate declaration: p"),
            (_DOMAIN.format("(:functions (fuel))"), None, ValidationError,
             "unsupported function declaration: (fuel)"),
            (_DOMAIN.format("(:constants c)"), None, ValidationError,
             "unsupported domain section: :constants"),
            (_DOMAIN.format("(:action)"), None, ValidationError, "malformed action: (:action)"),
            (_DOMAIN.format("(:predicates (p ?x)) (:action a :parameters ?x)"), None,
             ValidationError, "malformed :parameters in a"),
            (_ACTION.format("?x", "", "(p ?x) (increase (fuel) 1)"), None, ValidationError,
             "unsupported effect expression (increase (fuel) 1) in a"),
            (_ACTION.format("?x", "", "(increase (total-cost) x)"), None, ValidationError,
             "invalid cost 'x' in a"),
            (_ACTION.format("?x", "", "(increase (total-cost) 1/0)"), None, ValidationError,
             "invalid cost '1/0' in a"),
            (_ACTION.format("?x", "", "(increase (total-cost) -1)"), None, ValidationError,
             "negative cost in a"),
            (_DOMAIN.format("(:predicates (p ?x - u))"), None, ValidationError,
             "unknown type u in predicate p"),
            (_ACTION.format("?x ?x", "", "(p ?x)"), None, ValidationError,
             "duplicate parameter in schema a"),
            (_ACTION.format("?x - u", "", "(p ?x)"), None, ValidationError,
             "unknown type u in schema a"),
            (_ACTION.format("?x", "(p c)", "(p ?x)"), None, ValidationError,
             "constants in schemas are not supported (c in a)"),
            (_DOMAIN.format("(:predicates (p ?x))"), _PROBLEM.format("c - u"), ValidationError,
             "object c has unknown type u"),
            (_DOMAIN.format(
                "(:predicates (p ?x) (not-p ?x))"
                " (:action a :parameters (?x) :precondition (not (p ?x)) :effect (p ?x))"
             ), _PROBLEM.format("c"), ValidationError,
             "predicate not-p collides with negation compilation"),
            (_DOMAIN.format("(:action a :parameters)"), None, ValidationError,
             "malformed action body near :parameters in a"),
            (_DOMAIN.format("(:action a (x) y)"), None, ValidationError,
             "malformed action body near (x) in a"),
            (_DOMAIN.format("(:action a :parameters () :foo ())"), None, ValidationError,
             "unsupported action keyword :foo in a"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:init)", "(:requirements :strips) (:init)"),
             ValidationError, "unsupported problem section: :requirements"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:init)", "(:init (= (total-cost) 0) (= (fuel c) 5))"),
             ValidationError, "unsupported numeric init form: (= (fuel c) 5)"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:init)", "(:init (=))"),
             ValidationError, "unsupported numeric init form: (=)"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:init)", "(:init (= (total-cost) x))"),
             ValidationError, "unsupported numeric init form: (= (total-cost) x)"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:goal (and))", "(:goal (and)) (:metric maximize (total-cost))"),
             ValidationError, "unsupported metric: (:metric maximize (total-cost))"),
            (_DOMAIN.format("((a) b)"), None, PddlSyntaxError, "malformed domain section: ((a) b)"),
            (_DOMAIN.format("(:requirements (:strips))"), None, ValidationError,
             "requirement tags are symbols, got (:strips)"),
            (_ACTION.format("?x", "((p) ?x)", "(p ?x)"), None, ValidationError,
             "malformed literal: ((p) ?x)"),
            (_ACTION.format("?x", "(not (p ?x) (p ?x))", "(p ?x)"), None, ValidationError,
             "malformed negated literal: (not (p ?x) (p ?x))"),
            (_ACTION.format("?x", "(p (?x))", "(p ?x)"), None, ValidationError,
             "malformed literal arguments: (p (?x))"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("c").replace("(:init)", "(:init (not (p c)))"),
             ValidationError, "negation not allowed here: (not (p c))"),
            (_DOMAIN.format("(:predicates (p ?x)) (:action a :parameters (?x) :parameters ())"),
             None, ValidationError, "repeated action keyword :parameters in a"),
            (_DOMAIN.format(
                "(:predicates (p ?x))"
                " (:action a :parameters (?x) :precondition (p ?x) :precondition (p ?x))"
             ), None, ValidationError, "repeated action keyword :precondition in a"),
            (_DOMAIN.format(
                "(:predicates (p ?x)) (:action a :parameters (?x) :effect (p ?x) :effect (p ?x))"
             ), None, ValidationError, "repeated action keyword :effect in a"),
            (_ACTION.format("?x", "", "(p ?x) (increase (total-cost) 1) (increase (total-cost) 2)"),
             None, ValidationError, "more than one cost effect in a"),
            # Two faults: the shape of an init atom is checked as its section
            # is read, before the domain name, later sections and the atoms'
            # predicates and objects.
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("o").replace("(:domain d)", "(:domain other)")
             .replace("(:init)", "(:init (not (p o)))"),
             ValidationError, "negation not allowed here: (not (p o))"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("o").replace("(:init)", "(:init (p (o)))")
             .replace("(:goal (and))", "(:goal (and) (p o))"),
             ValidationError, "malformed literal arguments: (p (o))"),
            (_DOMAIN.format("(:predicates (p ?x))"),
             _PROBLEM.format("o").replace("(:init)", "(:init (p z))")
             .replace("(:goal (and))", "(:goal (and)) (:metric maximize (total-cost))"),
             ValidationError, "unsupported metric: (:metric maximize (total-cost))"),
        ],
    )
    def test_message(self, domain, problem, error, message):
        with pytest.raises(error) as info:
            parsed = parse_domain(domain)
            if problem is not None:
                compile_negations(parsed, parse_problem(problem, parsed))
        assert str(info.value) == message


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
        assert problem.init["not-locked"] == frozenset({("d1",)})
        assert problem.init["locked"] == frozenset({("d2",)})

    def test_static_predicate_negated_only_in_goals_is_left_open(self):
        # near is static and negated only by the goal, which names no fact;
        # jammed is static too, but a precondition reads its complement.
        domain = parse_domain(
            "(define (domain d) (:predicates (at ?a) (near ?a ?b) (jammed ?a))"
            " (:action go :parameters (?a ?b)"
            " :precondition (and (at ?a) (near ?a ?b) (not (jammed ?b)))"
            " :effect (and (at ?b) (not (at ?a)))))"
        )
        problem = parse_problem(
            "(define (problem q) (:domain d) (:objects x y)"
            " (:init (at x) (near x y)) (:goal (not (near y x))))",
            domain,
        )
        out_domain, out_problem = compile_negations(domain, problem)
        assert {"not-near", "not-jammed"} <= {pred.name for pred in out_domain.predicates}
        assert out_problem.goals == (frozenset({Literal("not-near", ("y", "x"))}),)
        assert "not-near" not in out_problem.init
        assert out_problem.init["not-jammed"] == frozenset({("x",), ("y",)})
        message = r"^hypothesis literal not groundable: \(not \(near y x\)\)$"
        with pytest.raises(ValidationError, match=message):
            ground(domain, problem)

    def test_output_has_no_negations(self):
        domain, problem = self._compiled()
        for schema in domain.schemas:
            assert not any(lit.negated for lit in schema.pre)
        assert not any(lit.negated for goal in problem.goals for lit in goal)

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


class TestParseAtom:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(IS-AT C1)", Literal("is-at", ("c1",))),
            ("(handempty)", Literal("handempty", ())),
            ("  (adj c1\tc2)  ", Literal("adj", ("c1", "c2"))),
            ("(not (adj c1 c2))", Literal("adj", ("c1", "c2"), negated=True)),
            ("(is-at c1) ; seen twice", Literal("is-at", ("c1",))),
        ],
    )
    def test_reads_one_atom(self, text, expected):
        assert parse_atom(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "is-at", "()", "(is-at (c1))", "(is-at c1", "(is-at c1) (is-at c2)",
         "(not)", "(not is-at)", "(not (not (is-at c1)))", "(is-at c1;c2)"],
    )
    def test_malformed_atom_raises(self, text):
        with pytest.raises((PddlSyntaxError, ValidationError)):
            parse_atom(text)


def _triples(text):
    return [(tok, *_token_position(text, i)) for i, tok in enumerate(_token_texts(text))]


class TestTokenizer:
    @pytest.mark.parametrize(
        "path", sorted(FIXTURES.glob("*/*.pddl")), ids=lambda p: f"{p.parent.name}/{p.name}"
    )
    def test_fixture_tokens_match_reference(self, path):
        text = path.read_text()
        assert _triples(text) == tokenize_by_character(text)

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(list("()(); \t\r\n\f\x0b-?:aZ") + ["İ", "ß", "Σ"]),
                st.characters(),
            )
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_random_text_tokens_match_reference(self, text):
        expected = tokenize_by_character(text)
        assert _triples(text) == expected
        assert _token_texts(text) == [token for token, _, _ in expected]

    @pytest.mark.parametrize(
        "blank",
        [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in " \t\r\n"],
        ids=lambda c: f"U+{ord(c):04X}",
    )
    def test_other_whitespace_separates_symbols(self, blank):
        # str.isspace() is the one whitespace rule: every code point it
        # holds for separates tokens, as space, tab, CR and LF do.
        text = f"(A{blank}b\n c)"
        assert _triples(text) == tokenize_by_character(text)
        assert _token_texts(text) == ["(", "a", "b", "c", ")"]

    @pytest.mark.parametrize(
        "text,message,line,column",
        [
            ("", "empty input", 1, 1),
            ("(define (domain d)", "unclosed parenthesis", 1, 1),
            ("(a\n  (b ; (c)\n", "unclosed parenthesis", 2, 3),
            ("; lead\n\t)", "unexpected ')'", 2, 2),
            ("(a)\n  (b)", "trailing input after top-level form", 2, 3),
            ("  Foo", "expected a parenthesized form", 1, 3),
        ],
    )
    def test_syntax_errors_carry_token_position(self, text, message, line, column):
        with pytest.raises(PddlSyntaxError, match=re.escape(message)) as info:
            parse_domain(text)
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("(" * 3000 + ")" * 3000, 1, 101),
            # "(define" opens level 1, so line 2's 100th parenthesis opens level 101.
            ("(define\n" + "(" * 100 + ")" * 101, 2, 100),
        ],
        ids=["3000-deep", "101-deep"],
    )
    def test_nesting_past_the_bound_is_a_syntax_error(self, text, line, column):
        assert MAX_NESTING_DEPTH == 100
        with pytest.raises(PddlSyntaxError, match="parentheses nested deeper than 100") as info:
            parse_domain(text)
        assert (info.value.line, info.value.column) == (line, column)

    def test_nesting_at_the_bound_is_read(self):
        text = "(" * MAX_NESTING_DEPTH + ")" * MAX_NESTING_DEPTH
        deepest = reduce(lambda inner, _: [inner], range(MAX_NESTING_DEPTH - 1), [])
        assert read_forms(text) == [deepest]

    def test_comment_and_positions(self):
        assert _triples("(A ;x y)\n  b)") == [("(", 1, 1), ("a", 1, 2), ("b", 2, 3), (")", 2, 4)]


def _outcome(read, text):
    """The forms read from text, or the syntax error's message and position."""
    try:
        return read(text)
    except PddlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


@st.composite
def token_texts(draw):
    """Random token lists of "(", ")" and symbols, some nested past the bound.

    Tokens are joined by random blanks and newlines, so positions vary.
    """
    opening = draw(st.sampled_from([0, 0, 1, MAX_NESTING_DEPTH - 1, MAX_NESTING_DEPTH,
                                    MAX_NESTING_DEPTH + 1]))
    body = draw(st.lists(st.sampled_from(["(", ")", "a", "b2", ":x"]), max_size=60))
    closing = draw(st.integers(0, opening + 1))
    tokens = ["("] * opening + body + [")"] * closing
    gaps = draw(st.lists(st.sampled_from(["", " ", "\n", " ; c\n"]),
                         min_size=len(tokens), max_size=len(tokens)))
    # Two symbols need a blank between them to stay two tokens.
    return "".join(
        tok + (gap or ("" if tok in "()" else " ")) for tok, gap in zip(tokens, gaps)
    )


class TestReaderAgainstReference:
    @given(text=token_texts())
    @settings(max_examples=300, deadline=None)
    def test_forms_and_errors_match_recursive_reader(self, text):
        assert _outcome(read_forms, text) == _outcome(reference_read_forms, text)
        assert _outcome(_read_single, text) == _outcome(reference_read_single, text)


# Faults of one init form each, and two that the file-order scan must name
# first (a repeated object) or last (a goal atom).
PROBLEM_FAULTS = (
    "undeclared predicate", "wrong arity", "undeclared object", "type misfit",
    "nested argument", "negation", "numeric form", "repeated object", "goal predicate",
)


@st.composite
def faulty_problems(draw):
    """A random typed domain and a problem text over it, with 0-3 faults,
    most of them faulty init forms among its well-typed init atoms.

    Types form a hierarchy under object; predicates have arity 0-3 and
    random parameter types.  The init atoms are drawn from each predicate's
    type-consistent argument tuples, repeats allowed, and shuffled with a
    valid (= (total-cost) N) and the faulty forms.  The goal holds some of
    the same atoms.
    """
    types = tuple(
        (f"t{i}", draw(st.sampled_from([ROOT_TYPE] + [f"t{j}" for j in range(i)])))
        for i in range(draw(st.integers(0, 3)))
    )
    type_of = st.sampled_from([ROOT_TYPE] + [name for name, _ in types])
    predicates = tuple(
        Predicate(f"p{i}", tuple((f"?a{j}", draw(type_of)) for j in range(draw(st.integers(0, 3)))))
        for i in range(draw(st.integers(1, 3)))
    )
    domain = DomainAst("d", types, predicates, ())
    objects = [(f"o{i}", draw(type_of)) for i in range(draw(st.integers(1, 5)))]
    fitting = {
        typ: [obj for obj, t in objects if typ in domain.type_ancestors[t]]
        for typ in domain.type_ancestors
    }

    def args_of(pred):
        return [draw(st.sampled_from(fitting[typ])) for _, typ in pred.params]

    valid = [pred for pred in predicates if all(fitting[typ] for _, typ in pred.params)]
    heads = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=8)) if valid else []
    atoms = [f"({' '.join([pred.name] + args_of(pred))})" for pred in heads]
    goal = draw(st.lists(st.sampled_from(atoms), max_size=2)) if atoms else []
    atoms.append("(= (total-cost) 0)")

    for kind in draw(st.lists(st.sampled_from(PROBLEM_FAULTS), max_size=3)):
        pred = draw(st.sampled_from(predicates))
        args = [draw(st.sampled_from([obj for obj, _ in objects])) for _ in pred.params]
        if kind == "undeclared predicate":
            form = f"(q {' '.join(args)})"
        elif kind == "wrong arity":
            form = f"({' '.join([pred.name] + args + ['o0'] * draw(st.integers(1, 2)))})"
            if args and draw(st.booleans()):
                form = f"({' '.join([pred.name] + args[:-1])})"
        elif kind == "undeclared object":
            if not args:
                continue
            args[draw(st.integers(0, len(args) - 1))] = "z"
            form = f"({' '.join([pred.name] + args)})"
        elif kind == "type misfit":
            misfits = [
                (other, j, obj) for other in predicates for j, (_, typ) in enumerate(other.params)
                for obj, _ in objects if obj not in fitting[typ]
            ]
            if not misfits:
                continue
            pred, j, misfit = draw(st.sampled_from(misfits))
            args = [draw(st.sampled_from([obj for obj, _ in objects])) for _ in pred.params]
            args[j] = misfit
            form = f"({' '.join([pred.name] + args)})"
        elif kind == "nested argument":
            form = f"({pred.name} ({' '.join(args)}))"
        elif kind == "negation":
            form = f"(not ({' '.join([pred.name] + args)}))"
        elif kind == "numeric form":
            form = draw(st.sampled_from(["(=)", "(= (fuel) 1)", "(= (total-cost) x)"]))
        elif kind == "repeated object":
            objects.append((draw(st.sampled_from(objects))[0], draw(type_of)))
            continue
        else:
            goal.append("(q)")
            continue
        atoms.append(form)

    declared = " ".join(f"{obj} - {typ}" for obj, typ in objects)
    text = (
        f"(define (problem q) (:domain d) (:objects {declared})"
        f" (:init {' '.join(draw(st.permutations(atoms)))}) (:goal (and {' '.join(goal)})))"
    )
    return domain, text


def _parsed(parse, text, domain):
    """The problem parsed from text, or the error's type and message."""
    try:
        return parse(text, domain)
    except ValidationError as exc:
        return type(exc), str(exc)


class TestInitAgainstReference:
    @given(task=faulty_problems())
    @settings(max_examples=400, deadline=None)
    def test_same_problem_or_error_as_atom_by_atom_reader(self, task):
        domain, text = task
        expected = _parsed(reference_parse_problem, text, domain)
        assert _parsed(parse_problem, text, domain) == expected
