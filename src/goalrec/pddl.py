"""Parser and ASTs for the supported STRIPS subset of PDDL.

Supported requirement tags: :strips, :typing, :negative-preconditions,
:action-costs.  Everything else is rejected loudly.  All identifiers are
lowercased; canonical atom form is "(pred arg1 ... argk)" with single
spaces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PddlSyntaxError, UnsupportedRequirementError, ValidationError

SUPPORTED_REQUIREMENTS = frozenset(
    {":strips", ":typing", ":negative-preconditions", ":action-costs"}
)

ROOT_TYPE = "object"


# ── ASTs ─────────────────────────────────────────────────────────────────


def atom_name(predicate: str, args: tuple[str, ...]) -> str:
    inner = " ".join((predicate,) + args) if args else predicate
    return f"({inner})"


@dataclass(frozen=True)
class Literal:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def negate(self) -> "Literal":
        return Literal(self.predicate, self.args, not self.negated)

    def canonical(self) -> str:
        atom = atom_name(self.predicate, self.args)
        return f"(not {atom})" if self.negated else atom


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]
    pre: tuple[Literal, ...]
    add: tuple[Literal, ...]
    delete: tuple[Literal, ...]
    cost: Fraction = Fraction(1)


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: frozenset[str]
    types: tuple[tuple[str, str], ...]  # (type, parent); object is implicit
    predicates: tuple[Predicate, ...]
    schemas: tuple[ActionSchema, ...]

    def predicate_map(self) -> dict[str, Predicate]:
        return {p.name: p for p in self.predicates}

    def type_parents(self) -> dict[str, str | None]:
        parents: dict[str, str | None] = {ROOT_TYPE: None}
        for name, parent in self.types:
            parents.setdefault(parent, ROOT_TYPE)
            parents[name] = parent
        parents[ROOT_TYPE] = None
        return parents


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type)
    init: frozenset[Literal]
    goal: frozenset[Literal]


def type_ancestors(domain: DomainAst) -> dict[str, set[str]]:
    """Map each type to itself plus all its ancestors (up to object)."""
    parents = domain.type_parents()
    out: dict[str, set[str]] = {}
    for typ in parents:
        chain = set()
        cur: str | None = typ
        while cur is not None:
            if cur in chain:
                raise ValidationError(f"type {typ} is its own ancestor")
            chain.add(cur)
            cur = parents.get(cur)
        out[typ] = chain
    return out


# ── Tokenizer / s-expression reader ──────────────────────────────────────


@dataclass
class _Token:
    text: str
    line: int
    column: int


# A comment, running to the end of its line, or a token: a parenthesis or
# a run of symbol characters.  Blanks (space, tab, carriage return) and
# newlines match nothing and are skipped.
_TOKEN_RE = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


def _token_texts(text: str) -> list[str]:
    """The lowercased tokens of text, without their positions."""
    return [token for token in _TOKEN_RE.findall(text.lower()) if token]


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text with their 1-based line and column."""
    tokens: list[_Token] = []
    line, line_start, prev = 1, 0, 0
    for match in _TOKEN_RE.finditer(text):
        token = match.group(1)
        if token is None:
            continue
        start = match.start()
        newlines = text.count("\n", prev, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", prev, start) + 1
        prev = start
        tokens.append(_Token(token.lower(), line, start - line_start + 1))
    return tokens


class _Malformed(Exception):
    """A syntax error at a token index; positions are looked up only then."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.message = message
        self.index = index


def _read_sexp(tokens: list[str], pos: int) -> tuple[object, int]:
    if pos >= len(tokens):
        raise _Malformed("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items: list[object] = []
        start = pos
        pos += 1
        while True:
            if pos >= len(tokens):
                raise _Malformed("unclosed parenthesis", start)
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read_sexp(tokens, pos)
            items.append(item)
    if tok == ")":
        raise _Malformed("unexpected ')'", pos)
    return tok, pos + 1


def _read_single(text: str) -> list:
    tokens = _token_texts(text)
    try:
        if not tokens:
            raise PddlSyntaxError("empty input", 1, 1)
        sexp, pos = _read_sexp(tokens, 0)
        if pos != len(tokens):
            raise _Malformed("trailing input after top-level form", pos)
        if not isinstance(sexp, list):
            raise _Malformed("expected a parenthesized form", 0)
    except _Malformed as exc:
        if exc.index is None:
            raise PddlSyntaxError(exc.message) from None
        tok = _tokenize(text)[exc.index]
        raise PddlSyntaxError(exc.message, tok.line, tok.column) from None
    return sexp


def _parse_typed_list(items: list) -> list[tuple[str, str]]:
    """Parse "a b - t c d - u e" into [(a,t),(b,t),(c,u),(d,u),(e,object)]."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        item = items[i]
        if not isinstance(item, str):
            raise ValidationError(f"unexpected nested form in typed list: {item}")
        if item == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], str):
                raise ValidationError("dangling '-' in typed list")
            typ = items[i + 1]
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(item)
            i += 1
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _parse_literal(sexp: object, *, allow_negation: bool) -> Literal:
    if not isinstance(sexp, list) or not sexp or not isinstance(sexp[0], str):
        raise ValidationError(f"malformed literal: {sexp}")
    if sexp[0] == "not":
        if not allow_negation:
            raise ValidationError(f"negation not allowed here: {sexp}")
        if len(sexp) != 2:
            raise ValidationError(f"malformed negated literal: {sexp}")
        return _parse_literal(sexp[1], allow_negation=False).negate()
    head, *args = sexp
    if not all(isinstance(a, str) for a in args):
        raise ValidationError(f"malformed literal arguments: {sexp}")
    return Literal(head, tuple(args))


def parse_atom(text: str) -> Literal:
    """One ground atom, "(pred arg ...)" or "(not (pred arg ...))"."""
    return _parse_literal(_read_single(text), allow_negation=True)


def _flatten_conjunction(sexp: object) -> list:
    if isinstance(sexp, list) and sexp and sexp[0] == "and":
        out: list = []
        for part in sexp[1:]:
            out.extend(_flatten_conjunction(part))
        return out
    if isinstance(sexp, list) and not sexp:  # ()
        return []
    return [sexp]


# ── Domain parsing ───────────────────────────────────────────────────────


def parse_domain(text: str) -> DomainAst:
    """Parse a domain definition and validate it.

    Raises PddlSyntaxError on malformed input, UnsupportedRequirementError
    on requirement tags outside the supported subset, and ValidationError
    on arity mismatches, undeclared names and cyclic type declarations.
    """
    sexp = _read_single(text)
    if len(sexp) < 2 or sexp[0] != "define":
        raise PddlSyntaxError("expected (define (domain ...) ...)")
    header = sexp[1]
    if not isinstance(header, list) or len(header) != 2 or header[0] != "domain":
        raise PddlSyntaxError("expected (domain <name>) header")
    name = header[1]

    requirements: frozenset[str] = frozenset({":strips"})
    types: tuple[tuple[str, str], ...] = ()
    predicates: list[Predicate] = []
    schemas: list[ActionSchema] = []

    for section in sexp[2:]:
        if not isinstance(section, list) or not section or not isinstance(section[0], str):
            raise PddlSyntaxError(f"malformed domain section: {section}")
        head = section[0]
        if head == ":requirements":
            tags = section[1:]
            for tag in tags:
                if tag not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedRequirementError(tag)
            requirements = frozenset(tags) | {":strips"}
        elif head == ":types":
            types = tuple(_parse_typed_list(section[1:]))
        elif head == ":predicates":
            for pred in section[1:]:
                if not isinstance(pred, list) or not pred or not isinstance(pred[0], str):
                    raise ValidationError(f"malformed predicate declaration: {pred}")
                params = _parse_typed_list(pred[1:])
                predicates.append(Predicate(pred[0], tuple(params)))
        elif head == ":functions":
            # Only (total-cost) is tolerated, as :action-costs plumbing.
            for fn in section[1:]:
                if fn != ["total-cost"]:
                    raise ValidationError(f"unsupported function declaration: {fn}")
        elif head == ":action":
            schemas.append(_parse_action(section))
        else:
            raise ValidationError(f"unsupported domain section: {head}")

    domain = DomainAst(name, requirements, types, tuple(predicates), tuple(schemas))
    _validate_domain(domain)
    return domain


def _parse_action(section: list) -> ActionSchema:
    if len(section) < 2 or not isinstance(section[1], str):
        raise ValidationError(f"malformed action: {section}")
    name = section[1]
    params: tuple[tuple[str, str], ...] = ()
    pre: list[Literal] = []
    add: list[Literal] = []
    delete: list[Literal] = []
    cost = Fraction(1)

    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str) or i + 1 >= len(section):
            raise ValidationError(f"malformed action body near {key!r} in {name}")
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise ValidationError(f"malformed :parameters in {name}")
            params = tuple(_parse_typed_list(value))
        elif key == ":precondition":
            for part in _flatten_conjunction(value):
                pre.append(_parse_literal(part, allow_negation=True))
        elif key == ":effect":
            for part in _flatten_conjunction(value):
                if isinstance(part, list) and part and part[0] == "increase":
                    cost = _parse_cost(part, name)
                    continue
                lit = _parse_literal(part, allow_negation=True)
                (delete if lit.negated else add).append(lit.negate() if lit.negated else lit)
        else:
            raise ValidationError(f"unsupported action keyword {key} in {name}")
        i += 2

    return ActionSchema(name, params, tuple(pre), tuple(add), tuple(delete), cost)


def _parse_cost(part: list, action: str) -> Fraction:
    if len(part) != 3 or part[1] != ["total-cost"] or not isinstance(part[2], str):
        raise ValidationError(f"unsupported effect expression {part} in {action}")
    try:
        cost = Fraction(part[2])
    except ValueError as exc:
        raise ValidationError(f"invalid cost {part[2]!r} in {action}") from exc
    if cost < 0:
        raise ValidationError(f"negative cost in {action}")
    return cost


def _validate_domain(domain: DomainAst) -> None:
    seen = set()
    for schema in domain.schemas:
        if schema.name in seen:
            raise ValidationError(f"duplicate action schema name: {schema.name}")
        seen.add(schema.name)

    known_types = type_ancestors(domain)
    for pred in domain.predicates:
        for _, typ in pred.params:
            if typ not in known_types:
                raise ValidationError(f"unknown type {typ} in predicate {pred.name}")

    preds = domain.predicate_map()
    for schema in domain.schemas:
        declared = {v for v, _ in schema.params}
        if len(declared) != len(schema.params):
            raise ValidationError(f"duplicate parameter in schema {schema.name}")
        for _, typ in schema.params:
            if typ not in known_types:
                raise ValidationError(f"unknown type {typ} in schema {schema.name}")
        for lit in schema.pre + schema.add + schema.delete:
            pred = preds.get(lit.predicate)
            if pred is None:
                raise ValidationError(
                    f"undeclared predicate {lit.predicate} in schema {schema.name}"
                )
            if len(lit.args) != pred.arity:
                raise ValidationError(
                    f"arity mismatch for {lit.predicate} in schema {schema.name}: "
                    f"expected {pred.arity}, got {len(lit.args)}"
                )
            for arg in lit.args:
                if arg.startswith("?") and arg not in declared:
                    raise ValidationError(
                        f"undeclared variable {arg} in schema {schema.name}"
                    )
                if not arg.startswith("?"):
                    raise ValidationError(
                        f"constants in schemas are not supported ({arg} in {schema.name})"
                    )


# ── Problem parsing ──────────────────────────────────────────────────────


def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    """Parse a problem definition against an already parsed domain."""
    sexp = _read_single(text)
    if len(sexp) < 2 or sexp[0] != "define":
        raise PddlSyntaxError("expected (define (problem ...) ...)")
    header = sexp[1]
    if not isinstance(header, list) or len(header) != 2 or header[0] != "problem":
        raise PddlSyntaxError("expected (problem <name>) header")
    name = header[1]

    domain_name = None
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Literal] = []
    goal: list[Literal] = []

    for section in sexp[2:]:
        if not isinstance(section, list) or not section or not isinstance(section[0], str):
            raise PddlSyntaxError(f"malformed problem section: {section}")
        head = section[0]
        if head == ":domain":
            domain_name = section[1] if len(section) == 2 else None
        elif head == ":objects":
            objects = tuple(_parse_typed_list(section[1:]))
        elif head == ":init":
            for atom in section[1:]:
                if isinstance(atom, list) and atom and atom[0] == "=":
                    continue  # (= (total-cost) 0)
                init.append(_parse_literal(atom, allow_negation=False))
        elif head == ":goal":
            for part in _flatten_conjunction(section[1]):
                goal.append(_parse_literal(part, allow_negation=True))
        elif head == ":metric":
            continue
        else:
            raise ValidationError(f"unsupported problem section: {head}")

    if domain_name != domain.name:
        raise ValidationError(
            f"problem {name} references domain {domain_name!r}, expected {domain.name!r}"
        )

    problem = ProblemAst(name, domain_name, objects, frozenset(init), frozenset(goal))
    _validate_problem(problem, domain)
    return problem


def _validate_problem(problem: ProblemAst, domain: DomainAst) -> None:
    ancestors = type_ancestors(domain)
    object_type: dict[str, str] = {}
    for obj, typ in problem.objects:
        if typ not in ancestors:
            raise ValidationError(f"object {obj} has unknown type {typ}")
        if obj in object_type:
            raise ValidationError(f"object {obj} is declared more than once")
        object_type[obj] = typ
    preds = domain.predicate_map()
    for where, literals in (("init", problem.init), ("goal", problem.goal)):
        for lit in literals:
            pred = preds.get(lit.predicate)
            if pred is None:
                raise ValidationError(f"undeclared predicate {lit.predicate} in {where}")
            if len(lit.args) != pred.arity:
                raise ValidationError(
                    f"arity mismatch for {lit.predicate} in {where}"
                )
            for arg, (_, typ) in zip(lit.args, pred.params):
                if arg not in object_type:
                    raise ValidationError(f"undeclared object {arg} in {where}")
                if typ not in ancestors[object_type[arg]]:
                    raise ValidationError(
                        f"object {arg} of type {object_type[arg]} does not fit "
                        f"{typ} in {where} atom {lit.canonical()}"
                    )
