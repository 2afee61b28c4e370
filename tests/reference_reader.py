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
"""

from __future__ import annotations

from goalrec.errors import PddlSyntaxError
from goalrec.pddl import MAX_NESTING_DEPTH


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
