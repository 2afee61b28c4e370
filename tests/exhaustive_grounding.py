"""Exhaustive reference grounder, kept for tests only.

It enumerates every type-consistent binding of each schema, names it, and
only then checks the static preconditions against the initial state.  The
cost is |objects|^arity per schema, so it suits small instances; the tests
compare `goalrec.grounding.ground` against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from goalrec.errors import GroundingError
from goalrec.grounding import (
    GroundAction,
    GroundFact,
    GroundProblem,
    objects_by_type,
    static_predicates,
)
from goalrec.pddl import atom_name


def _type_product(params, universe):
    return product(*(universe.get(typ, []) for _, typ in params))


def ground_exhaustive(domain, problem, hypotheses=None) -> GroundProblem:
    if hypotheses is None:
        hypotheses = [problem.goal]
    if not hypotheses:
        raise GroundingError("at least one goal hypothesis is required")

    for schema in domain.schemas:
        if any(lit.negated for lit in schema.pre):
            raise GroundingError(
                f"schema {schema.name} has negated preconditions; compile negations first"
            )

    universe = objects_by_type(domain, problem)
    statics = static_predicates(domain)

    fact_names: list[str] = []
    for pred in domain.predicates:
        if pred.name in statics:
            continue
        for args in _type_product(pred.params, universe):
            fact_names.append(atom_name(pred.name, tuple(args)))
    fact_names.sort()
    fact_ids = {name: i for i, name in enumerate(fact_names)}
    facts = [GroundFact(i, name) for i, name in enumerate(fact_names)]

    static_truth = {
        atom_name(lit.predicate, lit.args)
        for lit in problem.init
        if lit.predicate in statics
    }

    grounded: list[tuple[str, frozenset[int], frozenset[int], frozenset[int], Fraction]] = []
    for schema in domain.schemas:
        var_index = {var: i for i, (var, _) in enumerate(schema.params)}

        def bind(lit, binding):
            args = tuple(
                binding[var_index[a]] if a.startswith("?") else a for a in lit.args
            )
            return atom_name(lit.predicate, args)

        for binding in _type_product(schema.params, universe):
            binding = tuple(binding)
            pre: set[int] = set()
            applicable = True
            for lit in schema.pre:
                name = bind(lit, binding)
                if lit.predicate in statics:
                    if name not in static_truth:
                        applicable = False
                        break
                else:
                    pre.add(fact_ids[name])
            if not applicable:
                continue
            add = frozenset(fact_ids[bind(lit, binding)] for lit in schema.add)
            delete = frozenset(fact_ids[bind(lit, binding)] for lit in schema.delete)
            name = atom_name(schema.name, binding)
            grounded.append((name, frozenset(pre), add, delete - add, schema.cost))

    grounded.sort(key=lambda item: item[0])
    actions = [
        GroundAction(i, name, pre, add, delete, cost)
        for i, (name, pre, add, delete, cost) in enumerate(grounded)
    ]
    action_ids = {a.name: a.id for a in actions}

    s0 = frozenset(
        fact_ids[atom_name(lit.predicate, lit.args)]
        for lit in problem.init
        if lit.predicate not in statics
    )

    goals: list[frozenset[int]] = []
    for hyp in hypotheses:
        ids = set()
        for lit in hyp:
            if lit.negated:
                raise GroundingError(
                    f"hypothesis literal {lit.canonical()} is negated; compile negations first"
                )
            name = atom_name(lit.predicate, lit.args)
            if name not in fact_ids:
                raise GroundingError(f"hypothesis literal not groundable: {name}")
            ids.add(fact_ids[name])
        goals.append(frozenset(ids))

    return GroundProblem(facts, actions, s0, goals, fact_ids, action_ids)
