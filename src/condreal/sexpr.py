"""Minimal s-expression reader shared by the term codec and the CLI."""

from __future__ import annotations

__all__ = ["SexprError", "nesting", "parse_sexpr"]


class SexprError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text: str):
    """Parse one s-expression into nested lists of atom strings.

    Reads with an explicit stack of open lists, so nesting depth costs
    no interpreter frames.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SexprError("empty expression")
    open_lists: list[list] = []
    for pos, token in enumerate(tokens):
        if token == "(":
            open_lists.append([])
            continue
        if token == ")":
            if not open_lists:
                raise SexprError("unbalanced ')'")
            item = open_lists.pop()
        else:
            item = token
        if open_lists:
            open_lists[-1].append(item)
            continue
        rest = tokens[pos + 1 :]
        if rest:
            raise SexprError(f"trailing input after expression: {' '.join(rest)!r}")
        return item
    raise SexprError("unbalanced '('")


def nesting(tree: object) -> int:
    """How many list levels deep a parsed expression is; an atom is 0."""
    depth, level = 0, [tree]
    while any(isinstance(node, list) for node in level):
        depth += 1
        level = [child for node in level if isinstance(node, list) for child in node]
    return depth
