"""Grounding of typed schemas into dense, lexicographically indexed facts/actions.

Negated preconditions and goals are compiled away first (see negation), so
any parsed problem can be grounded; a goal literal is still named as written.
Predicates that never occur in any add or delete effect are static: they
restrict instantiation against the initial state and are then dropped, so
the fact universe only contains fluent facts.  An action schema is
instantiated by joining its static preconditions against the problem's
init table, which holds each predicate's init atoms as argument tuples;
the table's fluent entries give s0, and each of the problem's goals
becomes one goal description.  Each literal's atoms are indexed when that
literal is joined: those whose repeated variables agree and whose newly
bound objects fit their types, by their values at the already bound
positions.  Every init atom fits its predicate's declared types (see
ProblemAst), so an object's type is checked only at a position whose
declared type is not the parameter's type or a subtype of it; the
equality of a repeated variable is always checked.  Parameters that no
static precondition mentions range over their type.  Only bindings that
satisfy every static precondition are named, so the cost follows the
number of actions rather than |objects|^arity.  Each schema's bindings are then taken as one list, and
the fact ids of each fluent literal are looked up as one column over all
of them, in a dict per predicate from argument values to fact id; each
action's pre, add and delete sets are built from those columns.  A binding
whose object does not fit the type of a fluent slot it fills has no fact
there, and grounding raises ValidationError.  No reachability pruning is
applied; the result is deterministic.  A fact's or action's id is its
position in the problem's list, in lexicographic name order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, repeat
from operator import attrgetter, itemgetter

from . import negation
from .errors import ParameterError, ValidationError
from .pddl import DomainAst, Literal, ProblemAst, atom_name, objects_by_type
from .relaxed import RelaxedPlanningGraph, compute_fixpoint


def _key_getter(positions):
    """A C-level getter of the values at positions, for use as a dict key.

    It returns a tuple, except that one position gives the bare value;
    every table a key indexes is built with the same getter.
    """
    return itemgetter(*positions) if positions else (lambda _: ())


def _join_order(literals, atoms) -> list[Literal]:
    """Fewest matching atoms first, preferring literals on bound variables."""
    remaining = sorted(
        literals, key=lambda lit: (len(atoms.get(lit.predicate, ())), lit.canonical())
    )
    order: list[Literal] = []
    bound: set[str] = set()
    while remaining:
        pick = next((lit for lit in remaining if bound.intersection(lit.args)), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        bound.update(pick.args)
    return order


def ground_instantiations(
    params, universe: dict[str, list[str]], statics=(), atoms=None, domain=None
):
    """Type-consistent argument tuples for a typed parameter list.

    Given literals over the parameters, a problem's init table (see
    ProblemAst) and the domain that declares the literals' predicates, only
    the tuples under which every literal is an init atom are produced; each
    literal's atoms are indexed when that literal is joined.  An init atom
    fits its predicate's declared types, so an object is type-checked only
    at a position whose declared type is not the parameter's type or a
    subtype of it.  A parameter that no literal binds ranges over its type,
    so with no literals this is the type product.
    """
    pools = [universe.get(typ, []) for _, typ in params]
    slot_of = {var: i for i, (var, _) in enumerate(params)}
    partial: list[tuple] = [(None,) * len(params)]
    bound: set[int] = set()
    for lit in _join_order(statics, atoms):
        slots = [slot_of[arg] for arg in lit.args]
        keyed = [j for j, s in enumerate(slots) if s in bound]
        fresh: dict[int, int] = {}  # slot -> first position binding it
        repeats = []  # (position, first position of its slot)
        checks = []  # (position, type pool) where the declared type proves nothing
        declared = domain.predicate_map[lit.predicate].params
        for j, s in enumerate(slots):
            if s in bound:
                continue
            if fresh.setdefault(s, j) != j:
                repeats.append((j, fresh[s]))
            if params[s][1] not in domain.type_ancestors[declared[j][1]]:
                checks.append((j, frozenset(pools[s])))
        # The literal's atoms whose repeated slots agree and whose new
        # objects fit their types, by their values at the bound positions.
        rows = atoms.get(lit.predicate, ())
        if repeats or checks:
            rows = [
                args for args in rows
                if all(args[j] == args[first] for j, first in repeats)
                and all(args[j] in pool for j, pool in checks)
            ]
        table = {(): rows}
        if keyed:
            atom_key = _key_getter(keyed)
            table = defaultdict(list)
            for args in rows:
                table[atom_key(args)].append(args)
        key = _key_getter([slots[j] for j in keyed])
        grown = []
        for binding in partial:
            for args in table.get(key(binding), ()):
                extended = list(binding)
                for s, j in fresh.items():
                    extended[s] = args[j]
                grown.append(tuple(extended))
        partial = grown
        bound.update(fresh)
        if not partial:
            return
    if len(bound) == len(params):
        yield from partial
        return
    for binding in partial:
        yield from product(*[(v,) if i in bound else pools[i] for i, v in enumerate(binding)])


@dataclass(frozen=True)
class GroundAction:
    name: str
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]
    cost: Fraction = Fraction(1)


@dataclass
class GroundProblem:
    facts: list[str]  # fact i is named facts[i]
    actions: list[GroundAction]
    s0: frozenset[int]
    goals: list[frozenset[int]]
    # Name indexes and the goal-independent relaxed planning graph, all
    # derived from the fields above when the problem is built.
    fact_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    action_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    relaxed_fixpoint: RelaxedPlanningGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.fact_ids = {name: i for i, name in enumerate(self.facts)}
        self.action_ids = {a.name: i for i, a in enumerate(self.actions)}
        self.relaxed_fixpoint = compute_fixpoint(self)

    @property
    def fact_count(self) -> int:
        return len(self.facts)

    def goal(self, goal_index: int) -> frozenset[int]:
        if not 0 <= goal_index < len(self.goals):
            raise ParameterError(f"unknown goal index: {goal_index}")
        return self.goals[goal_index]

    def fact_id(self, name: str) -> int:
        try:
            return self.fact_ids[name]
        except KeyError:
            raise ParameterError(f"unknown fact: {name}") from None

    def action_id(self, name: str) -> int:
        try:
            return self.action_ids[name]
        except KeyError:
            raise ParameterError(f"unknown action: {name}") from None


def _misfit(domain, problem, schema, bindings) -> ValidationError:
    """The error for a binding that puts an object in a fluent slot of a type
    it does not fit, the only way a fact lookup can miss.  An object fits a
    type as in the problem's init and goal atoms.  The bindings follow the
    static atoms, which come from a set, so they are sorted: the first misfit
    named does not depend on string hashing."""
    slot_of = {var: i for i, (var, _) in enumerate(schema.params)}
    object_type = dict(problem.objects)
    bindings = sorted(bindings)
    for lit in schema.pre + schema.add + schema.delete:
        for arg, (_, typ) in zip(lit.args, domain.predicate_map[lit.predicate].params):
            for binding in bindings:
                obj = binding[slot_of[arg]]
                if typ not in domain.type_ancestors[object_type[obj]]:
                    return ValidationError(
                        f"object {obj} of type {object_type[obj]} does not fit {typ} "
                        f"in {lit.canonical()} of schema {schema.name}"
                    )
    raise AssertionError(f"no misfit in schema {schema.name}")


def static_predicates(domain: DomainAst) -> frozenset[str]:
    fluent = set()
    for schema in domain.schemas:
        fluent.update(lit.predicate for lit in schema.add)
        fluent.update(lit.predicate for lit in schema.delete)
    return frozenset(p.name for p in domain.predicates) - fluent


def ground(domain: DomainAst, problem: ProblemAst) -> GroundProblem:
    """Ground a domain/problem pair, one goal description per goal of the
    problem.  Negations are compiled first (see negation), and a goal literal
    that names no fact is reported as written."""
    if not problem.goals:
        raise ParameterError("at least one goal hypothesis is required")
    goals_as_written = problem.goals
    domain, problem = negation.compile_negations(domain, problem)

    universe = objects_by_type(domain, problem.objects)
    statics = static_predicates(domain)

    # Each fluent predicate maps the key of an argument tuple (see
    # _key_getter) to its fact name, and then to its fact id.
    names_of: dict[str, dict] = {}
    for pred in domain.predicates:
        if pred.name not in statics:
            key = _key_getter(range(pred.arity))
            names_of[pred.name] = {
                key(args): atom_name(pred.name, tuple(args))
                for args in ground_instantiations(pred.params, universe)
            }
    facts = sorted(name for names in names_of.values() for name in names.values())
    fact_ids = {name: i for i, name in enumerate(facts)}
    ids_of = {}
    for pred, names in names_of.items():
        ids_of[pred] = {k: fact_ids[name] for k, name in names.items()}

    actions: list[GroundAction] = []
    for schema in domain.schemas:
        slot_of = {var: i for i, (var, _) in enumerate(schema.params)}
        static_pre = [lit for lit in schema.pre if lit.predicate in statics]
        bindings = list(
            ground_instantiations(schema.params, universe, static_pre, problem.init, domain)
        )

        def id_sets(literals):
            """One frozenset of the literals' fact ids per binding, built column by column."""
            columns = [
                map(
                    ids_of[lit.predicate].__getitem__,
                    map(_key_getter([slot_of[arg] for arg in lit.args]), bindings),
                )
                for lit in literals
            ]
            return map(frozenset, zip(*columns)) if columns else [frozenset()] * len(bindings)

        try:
            added = list(id_sets(schema.add))
            actions.extend(
                map(
                    GroundAction,
                    map(atom_name, repeat(schema.name), bindings),
                    id_sets([lit for lit in schema.pre if lit.predicate not in statics]),
                    added,
                    map(frozenset.__sub__, id_sets(schema.delete), added),
                    repeat(schema.cost),
                )
            )
        except KeyError:
            raise _misfit(domain, problem, schema, bindings) from None
    actions.sort(key=attrgetter("name"))

    s0 = frozenset(
        fact_ids[atom_name(pred, args)]
        for pred, atoms in problem.init.items()
        if pred not in statics
        for args in atoms
    )

    goals: list[frozenset[int]] = []
    for goal in goals_as_written:
        ids = set()
        for lit in sorted(goal, key=Literal.canonical):
            name = negation.complement_literal(lit).canonical()
            if name not in fact_ids:
                raise ValidationError(f"hypothesis literal not groundable: {lit.canonical()}")
            ids.add(fact_ids[name])
        goals.append(frozenset(ids))

    return GroundProblem(facts, actions, s0, goals)
