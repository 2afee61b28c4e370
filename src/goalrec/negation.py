"""Compiling negated preconditions and goals away.

For every predicate p appearing negated in a schema precondition or in any
of the problem's goals, a complement predicate not-p is introduced; adds of
p delete not-p and deletes of p add not-p.  The initial state is closed so
that exactly one of p/not-p holds per ground instantiation: not-p's init
atoms are p's type-consistent argument tuples less p's.  A static p that
no precondition negates is left open: only goals read its not-p, and a
goal literal on a static predicate names no fact, so `ground` rejects
the goal and never reads not-p's init atoms.  Every goal of the problem
is rewritten with `complement_literal`.  `grounding.ground` compiles its
input here; compiled input has no negations left, so it comes
back unchanged.  This module and grounding import each other as modules.
"""

from __future__ import annotations

from dataclasses import replace

from . import grounding
from .errors import ValidationError
from .pddl import DomainAst, Literal, Predicate, ProblemAst, objects_by_type

COMPLEMENT_PREFIX = "not-"


def complement_literal(lit: Literal) -> Literal:
    """Rewrite a negated literal to its positive complement atom."""
    if not lit.negated:
        return lit
    return Literal(COMPLEMENT_PREFIX + lit.predicate, lit.args)


def compile_negations(domain: DomainAst, problem: ProblemAst) -> tuple[DomainAst, ProblemAst]:
    """Total transformation; identity when no negations occur."""
    in_pre = {lit.predicate for schema in domain.schemas for lit in schema.pre if lit.negated}
    negated = in_pre | {lit.predicate for goal in problem.goals for lit in goal if lit.negated}
    if not negated:
        return domain, problem

    preds = domain.predicate_map
    for name in negated:
        if COMPLEMENT_PREFIX + name in preds:
            raise ValidationError(
                f"predicate {COMPLEMENT_PREFIX + name} collides with negation compilation"
            )

    new_predicates = list(domain.predicates)
    for name in sorted(negated):
        base = preds[name]
        new_predicates.append(Predicate(COMPLEMENT_PREFIX + name, base.params))

    new_schemas = []
    for schema in domain.schemas:
        pre = tuple(map(complement_literal, schema.pre))
        add = schema.add + tuple(
            complement_literal(lit.negate()) for lit in schema.delete if lit.predicate in negated
        )
        delete = schema.delete + tuple(
            complement_literal(lit.negate()) for lit in schema.add if lit.predicate in negated
        )
        new_schemas.append(replace(schema, pre=pre, add=add, delete=delete))

    new_domain = replace(domain, predicates=tuple(new_predicates), schemas=tuple(new_schemas))

    # Closed-world completion: needs the object universe, hence done here
    # rather than at parse time.  Only goals would read the completion of a
    # static predicate that no precondition negates, up to |objects|^arity
    # tuples, and ground rejects those goals without reading it.
    left_open = grounding.static_predicates(domain) - in_pre
    universe = objects_by_type(new_domain, problem.objects)
    init = dict(problem.init)
    for name in sorted(negated - left_open):
        instantiations = frozenset(grounding.ground_instantiations(preds[name].params, universe))
        init[COMPLEMENT_PREFIX + name] = instantiations - problem.init.get(name, frozenset())

    goals = tuple(frozenset(map(complement_literal, goal)) for goal in problem.goals)
    return new_domain, replace(problem, init=init, goals=goals)
