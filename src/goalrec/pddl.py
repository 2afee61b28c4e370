"""Parser and ASTs for the supported STRIPS subset of PDDL.

Supported requirement tags: :strips, :typing, :negative-preconditions,
:action-costs.  Everything else is rejected loudly.  Parentheses and
whitespace, as str.isspace() defines it, separate tokens, and ";" starts a
comment that runs to the next newline.  All identifiers are lowercased;
canonical atom form is "(pred arg1 ... argk)" with single spaces.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import PddlSyntaxError, ValidationError

SUPPORTED_REQUIREMENTS = frozenset(
    {":strips", ":typing", ":negative-preconditions", ":action-costs"}
)

ROOT_TYPE = "object"

# Rendering a form in an error message recurses once per level, so the
# reader rejects a deeper form as a syntax error, not a RecursionError.
MAX_NESTING_DEPTH = 100


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
    types: tuple[tuple[str, str], ...]  # (type, parent); object is implicit
    predicates: tuple[Predicate, ...]
    schemas: tuple[ActionSchema, ...]

    @cached_property
    def predicate_map(self) -> dict[str, Predicate]:
        return {p.name: p for p in self.predicates}

    @cached_property
    def type_ancestors(self) -> dict[str, set[str]]:
        """Each declared type mapped to itself plus all its ancestors, up to object."""
        parents: dict[str, str | None] = {ROOT_TYPE: None}
        for name, parent in self.types:
            parents.setdefault(parent, ROOT_TYPE)
            parents[name] = parent
        parents[ROOT_TYPE] = None
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


def objects_by_type(domain: DomainAst, objects) -> dict[str, list[str]]:
    """Each declared type's objects in declaration order, a subtype's objects
    also under its ancestors.  An object of an undeclared type fits no type."""
    ancestors = domain.type_ancestors
    out: dict[str, list[str]] = {typ: [] for typ in ancestors}
    for obj, typ in objects:
        for anc in ancestors.get(typ, ()):
            out[anc].append(obj)
    return out


@dataclass(frozen=True)
class ProblemAst:
    """A recognition problem: one initial state and the goals scored against it.

    init maps a predicate to the argument tuples of its init atoms; a
    predicate it leaves out has none.  Every tuple fits its predicate's
    declared types: each argument is an object whose type is the declared
    type or a subtype of it.  parse_problem checks that, and the closed-world
    completion of compile_negations keeps it, so the grounder's join relies
    on it instead of checking each atom again.  A parsed problem has one goal.
    """

    objects: tuple[tuple[str, str], ...]  # (object, type)
    init: dict[str, frozenset[tuple[str, ...]]]
    goals: tuple[frozenset[Literal], ...]


# ── Tokenizer / s-expression reader ──────────────────────────────────────


# Parentheses and whitespace, as str.isspace() defines it, separate tokens;
# ";" starts a comment that runs to the next newline.
_COMMENT_RE = re.compile(r";[^\n]*")

# Used only to find a token's position: it matches a comment or captures a
# token, and its tokens are exactly those of _token_texts.
_TOKEN_RE = re.compile(r";[^\n]*|([()]|[^\s();]+)")


def _token_texts(text: str) -> list[str]:
    """The lowercased tokens of text, without their positions."""
    # No code point lowercases to whitespace, a parenthesis or ";", so
    # lowering first moves no token boundary.
    uncommented = _COMMENT_RE.sub("", text.lower())
    return uncommented.replace("(", " ( ").replace(")", " ) ").split()


def _token_position(text: str, index: int) -> tuple[int, int]:
    """The 1-based line and column of the index-th token of text."""
    start = [m.start() for m in _TOKEN_RE.finditer(text) if m.group(1)][index]
    line_start = text.rfind("\n", 0, start) + 1
    return text.count("\n", 0, start) + 1, start - line_start + 1


def read_forms(text: str, single: bool = False) -> list:
    """Every top-level form of text, in order: a list for a parenthesized form,
    a string for a bare symbol; none for blank or comment-only text.  One pass
    with an explicit stack raises each syntax error at its token, in token order,
    and an unclosed parenthesis at its innermost open '('.  With single, any
    token after the first complete form is trailing input."""
    tokens = _token_texts(text)

    def malformed(message: str, index: int) -> PddlSyntaxError:
        return PddlSyntaxError(message, *_token_position(text, index))

    forms: list = []
    items = forms
    stack: list[tuple[list, int]] = []  # the enclosing list and index of each open '('
    last = len(tokens) - 1
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_NESTING_DEPTH:
                raise malformed(f"parentheses nested deeper than {MAX_NESTING_DEPTH}", i)
            stack.append((items, i))
            items = []
        elif tok == ")":
            if not stack:
                raise malformed("unexpected ')'", i)
            outer = stack.pop()[0]
            outer.append(items)
            items = outer
        else:
            items.append(tok)
        if single and not stack and i < last:
            raise malformed("trailing input after top-level form", i + 1)
    if stack:
        raise malformed("unclosed parenthesis", stack[-1][1])
    return forms


def _pddl(form) -> str:
    """A read form as PDDL text, for error messages."""
    return form if isinstance(form, str) else f"({' '.join(map(_pddl, form))})"


def _read_single(text: str) -> list:
    """The one top-level form of a domain or problem, which must be parenthesized."""
    forms = read_forms(text, single=True)
    if not forms:
        raise PddlSyntaxError("empty input", 1, 1)
    if not isinstance(forms[0], list):
        raise PddlSyntaxError("expected a parenthesized form", *_token_position(text, 0))
    return forms[0]


def _define_sections(text: str, kind: str) -> tuple[str, list[list]]:
    """The name and sections of "(define (<kind> <name>) <section> ...)".

    Every section is a parenthesized form headed by a symbol; only
    :action may appear more than once.
    """
    sexp = _read_single(text)
    if len(sexp) < 2 or sexp[0] != "define":
        raise PddlSyntaxError(f"expected (define ({kind} ...) ...)")
    header = sexp[1]
    if not isinstance(header, list) or len(header) != 2 or header[0] != kind:
        raise PddlSyntaxError(f"expected ({kind} <name>) header")
    seen = set()
    for section in sexp[2:]:
        if not isinstance(section, list) or not section or not isinstance(section[0], str):
            raise PddlSyntaxError(f"malformed {kind} section: {_pddl(section)}")
        if section[0] in seen:
            raise ValidationError(f"repeated {kind} section: {section[0]}")
        if section[0] != ":action":
            seen.add(section[0])
    return header[1], sexp[2:]


def _parse_typed_list(items: list) -> list[tuple[str, str]]:
    """Parse "a b - t c d - u e" into [(a,t),(b,t),(c,u),(d,u),(e,object)]."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        item = items[i]
        if not isinstance(item, str):
            raise ValidationError(f"unexpected nested form in typed list: {_pddl(item)}")
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


def parse_literal(sexp: object, *, allow_negation: bool) -> Literal:
    """One read atom form, or its "(not ...)" where negation is allowed."""
    if not isinstance(sexp, list) or not sexp or not isinstance(sexp[0], str):
        raise ValidationError(f"malformed literal: {_pddl(sexp)}")
    if sexp[0] == "not":
        if not allow_negation:
            raise ValidationError(f"negation not allowed here: {_pddl(sexp)}")
        if len(sexp) != 2:
            raise ValidationError(f"malformed negated literal: {_pddl(sexp)}")
        return parse_literal(sexp[1], allow_negation=False).negate()
    head, *args = sexp
    if list in map(type, args):
        raise ValidationError(f"malformed literal arguments: {_pddl(sexp)}")
    return Literal(head, tuple(args))


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

    Raises PddlSyntaxError on malformed input, and ValidationError on
    requirement tags outside the supported subset, repeated sections,
    action keywords or names, arity mismatches, undeclared names and
    cyclic type declarations.
    """
    name, sections = _define_sections(text, "domain")
    types: tuple[tuple[str, str], ...] = ()
    predicates: list[Predicate] = []
    schemas: list[ActionSchema] = []

    for section in sections:
        head = section[0]
        if head == ":requirements":
            for tag in section[1:]:
                if not isinstance(tag, str):
                    raise ValidationError(f"requirement tags are symbols, got {_pddl(tag)}")
                if tag not in SUPPORTED_REQUIREMENTS:
                    raise ValidationError(f"unsupported requirement: {tag}")
        elif head == ":types":
            types = tuple(_parse_typed_list(section[1:]))
        elif head == ":predicates":
            for pred in section[1:]:
                if not isinstance(pred, list) or not pred or not isinstance(pred[0], str):
                    raise ValidationError(f"malformed predicate declaration: {_pddl(pred)}")
                params = _parse_typed_list(pred[1:])
                predicates.append(Predicate(pred[0], tuple(params)))
        elif head == ":functions":
            # Only (total-cost) is tolerated, as :action-costs plumbing.
            for fn in section[1:]:
                if fn != ["total-cost"]:
                    raise ValidationError(f"unsupported function declaration: {_pddl(fn)}")
        elif head == ":action":
            schemas.append(_parse_action(section))
        else:
            raise ValidationError(f"unsupported domain section: {head}")

    domain = DomainAst(name, types, tuple(predicates), tuple(schemas))
    _validate_domain(domain)
    return domain


def _parse_action(section: list) -> ActionSchema:
    if len(section) < 2 or not isinstance(section[1], str):
        raise ValidationError(f"malformed action: {_pddl(section)}")
    name = section[1]
    params: tuple[tuple[str, str], ...] = ()
    pre: list[Literal] = []
    add: list[Literal] = []
    delete: list[Literal] = []
    cost = None
    seen = set()

    i = 2
    while i < len(section):
        key = section[i]
        if not isinstance(key, str) or i + 1 >= len(section):
            raise ValidationError(f"malformed action body near {_pddl(key)} in {name}")
        if key in seen:
            raise ValidationError(f"repeated action keyword {key} in {name}")
        seen.add(key)
        value = section[i + 1]
        if key == ":parameters":
            if not isinstance(value, list):
                raise ValidationError(f"malformed :parameters in {name}")
            params = tuple(_parse_typed_list(value))
        elif key == ":precondition":
            for part in _flatten_conjunction(value):
                pre.append(parse_literal(part, allow_negation=True))
        elif key == ":effect":
            for part in _flatten_conjunction(value):
                if isinstance(part, list) and part and part[0] == "increase":
                    if cost is not None:
                        raise ValidationError(f"more than one cost effect in {name}")
                    cost = _parse_cost(part, name)
                    continue
                lit = parse_literal(part, allow_negation=True)
                (delete if lit.negated else add).append(lit.negate() if lit.negated else lit)
        else:
            raise ValidationError(f"unsupported action keyword {key} in {name}")
        i += 2

    cost = Fraction(1) if cost is None else cost
    return ActionSchema(name, params, tuple(pre), tuple(add), tuple(delete), cost)


def _parse_cost(part: list, action: str) -> Fraction:
    if len(part) != 3 or part[1] != ["total-cost"] or not isinstance(part[2], str):
        raise ValidationError(f"unsupported effect expression {_pddl(part)} in {action}")
    cost = _number(part[2])
    if cost is None:
        raise ValidationError(f"invalid cost {part[2]!r} in {action}")
    if cost < 0:
        raise ValidationError(f"negative cost in {action}")
    return cost


def _number(form: object) -> Fraction | None:
    """A read form as a rational number, or None when it is not one."""
    try:
        return Fraction(form)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _predicate_of(lit: Literal, domain: DomainAst, where: str) -> Predicate:
    """The declared predicate of lit, whose arity lit's arguments must match."""
    pred = domain.predicate_map.get(lit.predicate)
    if pred is None:
        raise ValidationError(f"undeclared predicate {lit.predicate} in {where}")
    if len(lit.args) != pred.arity:
        raise ValidationError(
            f"arity mismatch for {lit.predicate} in {where}: "
            f"expected {pred.arity}, got {len(lit.args)}"
        )
    return pred


def _validate_domain(domain: DomainAst) -> None:
    for kind, names in (
        ("action schema", [schema.name for schema in domain.schemas]),
        ("predicate", [pred.name for pred in domain.predicates]),
    ):
        seen = set()
        for name in names:
            if name in seen:
                raise ValidationError(f"duplicate {kind} name: {name}")
            seen.add(name)

    known_types = domain.type_ancestors
    for pred in domain.predicates:
        for _, typ in pred.params:
            if typ not in known_types:
                raise ValidationError(f"unknown type {typ} in predicate {pred.name}")

    for schema in domain.schemas:
        declared = {v for v, _ in schema.params}
        if len(declared) != len(schema.params):
            raise ValidationError(f"duplicate parameter in schema {schema.name}")
        for _, typ in schema.params:
            if typ not in known_types:
                raise ValidationError(f"unknown type {typ} in schema {schema.name}")
        for lit in schema.pre + schema.add + schema.delete:
            _predicate_of(lit, domain, f"schema {schema.name}")
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
    """Parse a problem definition against an already parsed domain.

    Each init atom's form is checked as its section is read.  Its predicate,
    arity and objects are checked after every section is read, each
    predicate's atoms together; only when that check fails are the atoms
    scanned again in file order, to name the first faulty one.
    """
    name, sections = _define_sections(text, "problem")
    domain_name = None
    objects: tuple[tuple[str, str], ...] = ()
    init_forms: list = []
    rows: dict[str, list[list[str]]] = defaultdict(list)  # init atoms by predicate
    goal: list[Literal] = []

    for section in sections:
        head = section[0]
        if head == ":domain":
            domain_name = section[1] if len(section) == 2 else None
        elif head == ":objects":
            objects = tuple(_parse_typed_list(section[1:]))
        elif head == ":init":
            init_forms = section[1:]
            for atom in init_forms:
                if isinstance(atom, list) and atom and atom[0] == "=":
                    if len(atom) != 3 or atom[1] != ["total-cost"] or _number(atom[2]) is None:
                        raise ValidationError(f"unsupported numeric init form: {_pddl(atom)}")
                    continue  # (= (total-cost) N), as :action-costs plumbing
                # An atom is a flat form headed by a predicate; parse_literal
                # raises the fault of any other form.
                flat = isinstance(atom, list) and atom and list not in map(type, atom)
                if not flat or atom[0] == "not":
                    parse_literal(atom, allow_negation=False)
                rows[atom[0]].append(atom)
        elif head == ":goal":
            if len(section) != 2:
                raise ValidationError(f"(:goal) must hold one form, got {len(section) - 1}")
            for part in _flatten_conjunction(section[1]):
                goal.append(parse_literal(part, allow_negation=True))
        elif head == ":metric":
            if section != [":metric", "minimize", ["total-cost"]]:
                raise ValidationError(f"unsupported metric: {_pddl(section)}")
        else:
            raise ValidationError(f"unsupported problem section: {head}")

    if domain_name != domain.name:
        raise ValidationError(
            f"problem {name} references domain {domain_name!r}, expected {domain.name!r}"
        )

    init = _init_table(objects, rows, domain)
    if init is None:
        # Some init atom is faulty.  The atoms are scanned again in file
        # order, so the first fault reported does not depend on string hashing.
        atoms = [parse_literal(form, allow_negation=False) for form in init_forms if form[0] != "="]
        validate_problem(objects, {"init": atoms}, domain)
        raise AssertionError(f"no faulty init atom in problem {name}")
    validate_problem(objects, {"goal": goal}, domain)
    return ProblemAst(objects, init, (frozenset(goal),))


def _init_table(
    objects: tuple[tuple[str, str], ...], rows: dict[str, list[list[str]]], domain: DomainAst
) -> dict[str, frozenset[tuple[str, ...]]] | None:
    """The init table of each predicate's atoms, read as [predicate, *args] rows,
    or None when some atom's predicate is undeclared, its arity differs or an
    argument is not an object of its position's declared type.  Each predicate
    is checked once, with one set inclusion per argument position."""
    fitting = defaultdict(set, {t: set(objs) for t, objs in objects_by_type(domain, objects).items()})
    table = {}
    for head, atoms in rows.items():
        pred = domain.predicate_map.get(head)
        if pred is None or set(map(len, atoms)) != {pred.arity + 1}:
            return None
        columns = list(zip(*atoms))[1:]
        if not all(fitting[typ].issuperset(col) for (_, typ), col in zip(pred.params, columns)):
            return None
        table[head] = frozenset(zip(*columns)) if columns else frozenset({()})
    return table


def validate_problem(
    objects: tuple[tuple[str, str], ...],
    atoms: dict[str, list[Literal]],
    domain: DomainAst,
) -> None:
    """Check the objects' types, then each section's atoms in the order given:
    predicate, arity, and each argument's declaration and type."""
    ancestors = domain.type_ancestors
    object_type: dict[str, str] = {}
    for obj, typ in objects:
        if typ not in ancestors:
            raise ValidationError(f"object {obj} has unknown type {typ}")
        if obj in object_type:
            raise ValidationError(f"object {obj} is declared more than once")
        object_type[obj] = typ
    for where, literals in atoms.items():
        for lit in literals:
            pred = _predicate_of(lit, domain, where)
            for arg, (_, typ) in zip(lit.args, pred.params):
                if arg not in object_type:
                    raise ValidationError(f"undeclared object {arg} in {where}")
                if typ not in ancestors[object_type[arg]]:
                    raise ValidationError(
                        f"object {arg} of type {object_type[arg]} does not fit "
                        f"{typ} in {where} atom {lit.canonical()}"
                    )
