"""Compiling negated preconditions and goals away.

For every predicate p appearing negated in a schema precondition or in any
of the problem's goals, a complement predicate not-p is introduced; adds of
p delete not-p and deletes of p add not-p.  One sorted pass refuses the
first p whose not-p is declared, and a second declares each not-p and
closes the world for it: not-p's init atoms are p's type-consistent argument
tuples less p's, so exactly one of p/not-p holds per ground instantiation.
A static p that no precondition negates is left open: only goals read its
not-p, and a goal literal on a static predicate names no fact, so `ground`
rejects the goal and never reads not-p's init atoms.  Every goal is
rewritten with `complement_literal`.  `grounding.ground` compiles its input
here; compiled input has no negations left, so it comes back unchanged.
This module and grounding import each other as modules.
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
    for name in sorted(negated):
        if COMPLEMENT_PREFIX + name in preds:
            raise ValidationError(
                f"predicate {COMPLEMENT_PREFIX + name} collides with negation compilation"
            )

    statics = grounding.static_predicates(domain)
    universe = objects_by_type(domain, problem.objects)
    predicates = list(domain.predicates)
    init = dict(problem.init)
    for name in sorted(negated):
        complement, params = COMPLEMENT_PREFIX + name, preds[name].params
        predicates.append(Predicate(complement, params))
        if name in in_pre or name not in statics:
            instantiations = frozenset(grounding.ground_instantiations(params, universe))
            init[complement] = instantiations - problem.init.get(name, frozenset())

    schemas = []
    for schema in domain.schemas:
        pre = tuple(map(complement_literal, schema.pre))
        add = schema.add + tuple(
            complement_literal(lit.negate()) for lit in schema.delete if lit.predicate in negated
        )
        delete = schema.delete + tuple(
            complement_literal(lit.negate()) for lit in schema.add if lit.predicate in negated
        )
        schemas.append(replace(schema, pre=pre, add=add, delete=delete))

    goals = tuple(frozenset(map(complement_literal, goal)) for goal in problem.goals)
    domain = replace(domain, predicates=tuple(predicates), schemas=tuple(schemas))
    return domain, replace(problem, init=init, goals=goals)
