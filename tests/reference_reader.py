"""Character-by-character tokenizer and recursive s-expression reader, kept
only for testing.

The package strips comments, pads each parenthesis and splits on whitespace
(`goalrec.pddl._token_texts`), looks a token's position up only on an error
(`goalrec.pddl._token_position`), and reads the token list in one pass with
an explicit stack (`goalrec.pddl.read_forms`).  This module shares none of
that code: it walks the text one character at a time, keeping each token's
line and column, and recurses once per nesting level, raising each syntax
error as it meets it.  Tests check that both give the same tokens and
positions, and the same forms or the same error message at the same line and
column.

It also keeps the per-atom problem reader: `reference_parse_problem` reads
every init atom with `parse_literal`, checks it with `validate_problem` in
file order and only then builds the init table.  The package checks each
predicate's init atoms together and scans them in file order only to name a
fault; tests check that both give the same problem or the same error.
"""

from __future__ import annotations

from goalrec.errors import PddlSyntaxError, ValidationError
from goalrec.pddl import (
    MAX_NESTING_DEPTH,
    DomainAst,
    Literal,
    ProblemAst,
    _define_sections,
    _flatten_conjunction,
    _number,
    _parse_typed_list,
    _pddl,
    parse_literal,
    validate_problem,
)


def tokenize_by_character(text: str) -> list[tuple[str, int, int]]:
    """Each lowercased token of text with its 1-based line and column.

    Parentheses and whitespace (`str.isspace`) separate tokens, only a
    newline starts a line, ";" starts a comment running to the next newline,
    and every other character belongs to a symbol.
    """
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and not text[i].isspace() and text[i] not in "();":
                i += 1
                col += 1
            tokens.append((text[start:i].lower(), line, start_col))
    return tokens


def _malformed(tokens: list[tuple[str, int, int]], message: str, index: int) -> PddlSyntaxError:
    """A syntax error at the index-th token."""
    _, line, column = tokens[index]
    return PddlSyntaxError(message, line, column)


def _read_sexp(tokens: list[tuple[str, int, int]], pos: int, depth: int = 1) -> tuple[object, int]:
    tok = tokens[pos][0]
    if tok == "(":
        if depth > MAX_NESTING_DEPTH:
            raise _malformed(tokens, f"parentheses nested deeper than {MAX_NESTING_DEPTH}", pos)
        items: list[object] = []
        start = pos
        pos += 1
        while True:
            if pos >= len(tokens):
                raise _malformed(tokens, "unclosed parenthesis", start)
            if tokens[pos][0] == ")":
                return items, pos + 1
            item, pos = _read_sexp(tokens, pos, depth + 1)
            items.append(item)
    if tok == ")":
        raise _malformed(tokens, "unexpected ')'", pos)
    return tok, pos + 1


def reference_read_forms(text: str) -> list:
    """Every top-level form of text, as `goalrec.pddl.read_forms`."""
    tokens = tokenize_by_character(text)
    forms: list = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_sexp(tokens, pos)
        forms.append(form)
    return forms


def reference_read_single(text: str) -> list:
    """The one parenthesized top-level form of text, as `goalrec.pddl._read_single`."""
    tokens = tokenize_by_character(text)
    if not tokens:
        raise PddlSyntaxError("empty input", 1, 1)
    sexp, pos = _read_sexp(tokens, 0)
    if pos != len(tokens):
        raise _malformed(tokens, "trailing input after top-level form", pos)
    if not isinstance(sexp, list):
        raise _malformed(tokens, "expected a parenthesized form", 0)
    return sexp


def reference_parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    """A problem read atom by atom, as `goalrec.pddl.parse_problem`."""
    name, sections = _define_sections(text, "problem")
    domain_name = None
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Literal] = []
    goal: list[Literal] = []

    for section in sections:
        head = section[0]
        if head == ":domain":
            domain_name = section[1] if len(section) == 2 else None
        elif head == ":objects":
            objects = tuple(_parse_typed_list(section[1:]))
        elif head == ":init":
            for atom in section[1:]:
                if isinstance(atom, list) and atom and atom[0] == "=":
                    if len(atom) != 3 or atom[1] != ["total-cost"] or _number(atom[2]) is None:
                        raise ValidationError(f"unsupported numeric init form: {_pddl(atom)}")
                    continue
                init.append(parse_literal(atom, allow_negation=False))
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

    validate_problem(objects, {"init": init, "goal": goal}, domain)
    table: dict[str, set[tuple[str, ...]]] = {}
    for lit in init:
        table.setdefault(lit.predicate, set()).add(lit.args)
    return ProblemAst(objects, {p: frozenset(a) for p, a in table.items()}, (frozenset(goal),))
