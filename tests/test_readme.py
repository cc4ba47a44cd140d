"""README's "Library quick start" block runs as written: each comment that
follows code on its line is the ``repr`` of what that line evaluates to."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def trailing_comments(source: str) -> dict:
    """``{line number: text}`` of each comment that follows code on its line."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and tok.line[: tok.start[1]].strip()
    }


def test_quick_start_runs_and_each_comment_shows_its_line():
    source = quick_start_block()
    comments = trailing_comments(source)
    namespace = {}
    shown = 0
    for stmt in ast.parse(source).body:
        comment = comments.pop(stmt.end_lineno, None)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert comment == repr(value), f"line {stmt.lineno} of the block"
            shown += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            assert comment is None, f"line {stmt.lineno} of the block prints nothing"
    assert shown == 5 and not comments
