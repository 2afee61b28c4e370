"""Recursive s-expression reader, kept only for testing.

The package reads a token list in one pass with an explicit stack
(`goalrec.pddl.read_forms`).  This reader recurses once per nesting level
and raises each syntax error as it meets it; tests check that both give
the same forms, or the same error message at the same line and column.
"""

from __future__ import annotations

from goalrec.errors import PddlSyntaxError
from goalrec.pddl import MAX_NESTING_DEPTH, _token_position, _token_texts


def _malformed(text: str, message: str, index: int) -> PddlSyntaxError:
    """A syntax error at the index-th token of text."""
    return PddlSyntaxError(message, *_token_position(text, index))


def _read_sexp(text: str, tokens: list[str], pos: int, depth: int = 1) -> tuple[object, int]:
    tok = tokens[pos]
    if tok == "(":
        if depth > MAX_NESTING_DEPTH:
            raise _malformed(text, f"parentheses nested deeper than {MAX_NESTING_DEPTH}", pos)
        items: list[object] = []
        start = pos
        pos += 1
        while True:
            if pos >= len(tokens):
                raise _malformed(text, "unclosed parenthesis", start)
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read_sexp(text, tokens, pos, depth + 1)
            items.append(item)
    if tok == ")":
        raise _malformed(text, "unexpected ')'", pos)
    return tok, pos + 1


def reference_read_forms(text: str) -> list:
    """Every top-level form of text, as `goalrec.pddl.read_forms`."""
    tokens = _token_texts(text)
    forms: list = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_sexp(text, tokens, pos)
        forms.append(form)
    return forms


def reference_read_single(text: str) -> list:
    """The one parenthesized top-level form of text, as `goalrec.pddl._read_single`."""
    tokens = _token_texts(text)
    if not tokens:
        raise PddlSyntaxError("empty input", 1, 1)
    sexp, pos = _read_sexp(text, tokens, 0)
    if pos != len(tokens):
        raise _malformed(text, "trailing input after top-level form", pos)
    if not isinstance(sexp, list):
        raise _malformed(text, "expected a parenthesized form", 0)
    return sexp
