"""Grounding of typed schemas into dense, lexicographically indexed facts/actions.

Predicates that never occur in any add or delete effect are static: they
restrict instantiation against the initial state and are then dropped, so
the fact universe only contains fluent facts.  An action schema is
instantiated by joining its static preconditions against the static init
atoms, indexed by predicate and by the values at bound argument positions;
parameters that no static precondition mentions range over their type.
Only bindings that satisfy every static precondition are named, so the
cost follows the number of actions rather than |objects|^arity.  No
reachability pruning is applied; the result is deterministic, with facts
and actions numbered in lexicographic name order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import GroundingError, UnknownIdError
from .pddl import ROOT_TYPE, DomainAst, Literal, ProblemAst, atom_name, type_ancestors
from .relaxed import RelaxedFixpoint, compute_fixpoint


def objects_by_type(domain: DomainAst, problem: ProblemAst) -> dict[str, list[str]]:
    """Sorted object lists per type, honoring the type hierarchy."""
    ancestors = type_ancestors(domain)
    out: dict[str, list[str]] = {typ: [] for typ in ancestors}
    for obj, typ in sorted(problem.objects):
        for anc in ancestors.get(typ, {ROOT_TYPE}):
            out.setdefault(anc, []).append(obj)
    return out


class StaticIndex:
    """Static init atoms by predicate, and by their values at chosen positions.

    A positional index is built on first use and kept for the lifetime of
    the index, so each (predicate, positions) pair is scanned once.
    """

    def __init__(self, atoms):
        self._atoms: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        for lit in atoms:
            self._atoms[lit.predicate].append(lit.args)
        self._by_positions: dict[tuple, dict[tuple[str, ...], list[tuple[str, ...]]]] = {}

    def count(self, predicate: str) -> int:
        return len(self._atoms.get(predicate, ()))

    def lookup(self, predicate: str, positions: tuple[int, ...]):
        """Map from the values at `positions` to the atoms carrying them."""
        key = (predicate, positions)
        table = self._by_positions.get(key)
        if table is None:
            table = defaultdict(list)
            for args in self._atoms.get(predicate, ()):
                table[tuple(args[j] for j in positions)].append(args)
            self._by_positions[key] = table
        return table


def _join_order(literals, index: StaticIndex) -> list[Literal]:
    """Fewest matching atoms first, preferring literals on bound variables."""
    remaining = sorted(literals, key=lambda lit: (index.count(lit.predicate), lit.canonical()))
    order: list[Literal] = []
    bound: set[str] = set()
    while remaining:
        pick = next((lit for lit in remaining if bound.intersection(lit.args)), remaining[0])
        remaining.remove(pick)
        order.append(pick)
        bound.update(pick.args)
    return order


def _join(params, pools, literals, index: StaticIndex):
    slot_of = {var: i for i, (var, _) in enumerate(params)}
    typed = [frozenset(pool) for pool in pools]
    partial: list[tuple] = [(None,) * len(params)]
    bound: set[int] = set()
    for lit in _join_order(literals, index):
        slots = [slot_of[arg] for arg in lit.args]
        keyed = tuple(j for j, s in enumerate(slots) if s in bound)
        fresh: dict[int, int] = {}  # slot -> first position binding it
        repeats: list[tuple[int, int]] = []  # positions that must agree
        for j, s in enumerate(slots):
            if s in bound:
                continue
            if s in fresh:
                repeats.append((j, fresh[s]))
            else:
                fresh[s] = j
        table = index.lookup(lit.predicate, keyed)
        grown = []
        for binding in partial:
            for args in table.get(tuple(binding[slots[j]] for j in keyed), ()):
                if any(args[j] != args[k] for j, k in repeats):
                    continue
                if any(args[j] not in typed[s] for s, j in fresh.items()):
                    continue
                extended = list(binding)
                for s, j in fresh.items():
                    extended[s] = args[j]
                grown.append(tuple(extended))
        partial = grown
        bound.update(fresh)
        if not partial:
            return
    free = [i for i in range(len(params)) if i not in bound]
    if not free:
        yield from partial
        return
    for binding in partial:
        for values in product(*(pools[i] for i in free)):
            extended = list(binding)
            for i, value in zip(free, values):
                extended[i] = value
            yield tuple(extended)


def ground_instantiations(
    params, universe: dict[str, list[str]], statics=(), index: StaticIndex | None = None
):
    """Type-consistent argument tuples for a typed parameter list.

    With no static literals this is the full type product.  Given literals
    over the parameters and a StaticIndex of the init atoms, only the
    tuples under which every literal is an init atom are produced.
    """
    pools = [universe.get(typ, []) for _, typ in params]
    if not statics:
        return product(*pools)
    return _join(params, pools, statics, index)


@dataclass(frozen=True)
class GroundFact:
    id: int
    name: str


@dataclass(frozen=True)
class GroundAction:
    id: int
    name: str
    pre: frozenset[int]
    add: frozenset[int]
    delete: frozenset[int]
    cost: Fraction = Fraction(1)


@dataclass
class GroundProblem:
    facts: list[GroundFact]
    actions: list[GroundAction]
    s0: frozenset[int]
    goals: list[frozenset[int]]
    fact_ids: dict[str, int] = field(repr=False, default_factory=dict)
    action_ids: dict[str, int] = field(repr=False, default_factory=dict)
    # The goal-independent relaxed planning graph, computed from actions
    # and s0 when the problem is built.
    relaxed_fixpoint: RelaxedFixpoint = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.relaxed_fixpoint = compute_fixpoint(self)

    @property
    def fact_count(self) -> int:
        return len(self.facts)

    def goal(self, goal_index: int) -> frozenset[int]:
        if not 0 <= goal_index < len(self.goals):
            raise UnknownIdError(f"unknown goal index: {goal_index}")
        return self.goals[goal_index]

    def fact_name(self, fact_id: int) -> str:
        return self.facts[fact_id].name

    def fact_id(self, name: str) -> int:
        try:
            return self.fact_ids[name]
        except KeyError:
            raise GroundingError(f"unknown fact: {name}") from None

    def action_id(self, name: str) -> int:
        try:
            return self.action_ids[name]
        except KeyError:
            raise GroundingError(f"unknown action: {name}") from None


def static_predicates(domain: DomainAst) -> frozenset[str]:
    fluent = set()
    for schema in domain.schemas:
        fluent.update(lit.predicate for lit in schema.add)
        fluent.update(lit.predicate for lit in schema.delete)
    return frozenset(p.name for p in domain.predicates) - fluent


def _templates(literals, slot_of: dict[str, int]) -> list[tuple[str, list[int]]]:
    """Each literal as its predicate and the parameter slots of its arguments."""
    return [(lit.predicate, [slot_of[arg] for arg in lit.args]) for lit in literals]


def _bound_ids(templates, binding: tuple[str, ...], fact_ids: dict[str, int]) -> frozenset[int]:
    """Fact ids of (predicate, parameter slots) templates under a binding."""
    return frozenset(
        fact_ids[atom_name(pred, tuple(binding[i] for i in slots))] for pred, slots in templates
    )


def ground(
    domain: DomainAst,
    problem: ProblemAst,
    hypotheses: list[frozenset[Literal]] | None = None,
) -> GroundProblem:
    """Ground a compiled (negation-free) domain/problem pair.

    Each hypothesis literal set becomes one goal description; when none
    are given, the problem's own goal is the single hypothesis.
    """
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
        for args in ground_instantiations(pred.params, universe):
            fact_names.append(atom_name(pred.name, tuple(args)))
    fact_names.sort()
    fact_ids = {name: i for i, name in enumerate(fact_names)}
    facts = [GroundFact(i, name) for i, name in enumerate(fact_names)]

    index = StaticIndex(lit for lit in problem.init if lit.predicate in statics)

    grounded: list[tuple[str, frozenset[int], frozenset[int], frozenset[int], Fraction]] = []
    for schema in domain.schemas:
        slot_of = {var: i for i, (var, _) in enumerate(schema.params)}
        static_pre = [lit for lit in schema.pre if lit.predicate in statics]
        pre = _templates((lit for lit in schema.pre if lit.predicate not in statics), slot_of)
        add = _templates(schema.add, slot_of)
        delete = _templates(schema.delete, slot_of)
        for binding in ground_instantiations(schema.params, universe, static_pre, index):
            added = _bound_ids(add, binding, fact_ids)
            grounded.append(
                (
                    atom_name(schema.name, binding),
                    _bound_ids(pre, binding, fact_ids),
                    added,
                    _bound_ids(delete, binding, fact_ids) - added,
                    schema.cost,
                )
            )

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
