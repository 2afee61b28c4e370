"""Exhaustive reference grounder, kept for tests only.

It enumerates every type-consistent binding of each schema, names it, and
only then checks the static preconditions against the initial state.  The
cost is |objects|^arity per schema, so it suits small instances; the tests
compare `goalrec.grounding.ground` against it.  Like `ground`, it compiles
negations first and names a goal literal as written.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from goalrec.errors import ParameterError, ValidationError
from goalrec.grounding import GroundAction, GroundProblem, static_predicates
from goalrec.negation import compile_negations, complement_literal
from goalrec.pddl import atom_name, objects_by_type


def _type_product(params, universe):
    return product(*(universe.get(typ, []) for _, typ in params))


def ground_exhaustive(domain, problem) -> GroundProblem:
    if not problem.goals:
        raise ParameterError("at least one goal hypothesis is required")
    goals_as_written = problem.goals
    domain, problem = compile_negations(domain, problem)

    universe = objects_by_type(domain, problem.objects)
    statics = static_predicates(domain)

    facts: list[str] = []
    for pred in domain.predicates:
        if pred.name in statics:
            continue
        for args in _type_product(pred.params, universe):
            facts.append(atom_name(pred.name, tuple(args)))
    facts.sort()
    fact_ids = {name: i for i, name in enumerate(facts)}

    static_truth = {
        atom_name(pred, args)
        for pred, atoms in problem.init.items()
        if pred in statics
        for args in atoms
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
    actions = [GroundAction(*item) for item in grounded]

    s0 = frozenset(
        fact_ids[atom_name(pred, args)]
        for pred, atoms in problem.init.items()
        if pred not in statics
        for args in atoms
    )

    goals: list[frozenset[int]] = []
    for goal in goals_as_written:
        ids = set()
        for lit in goal:
            atom = complement_literal(lit)
            name = atom_name(atom.predicate, atom.args)
            if name not in fact_ids:
                raise ValidationError(f"hypothesis literal not groundable: {lit.canonical()}")
            ids.add(fact_ids[name])
        goals.append(frozenset(ids))

    return GroundProblem(facts, actions, s0, goals)
