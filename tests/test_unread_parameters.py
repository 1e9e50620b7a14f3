"""Every parameter of the package's functions is read.

A parameter that no code reads is a setting that does nothing: callers
build and pass a value the function ignores. This walks the syntax tree of
each module under src/qicd and asserts that every parameter of every
function and lambda is loaded somewhere in its own body, nested functions
included. self, cls and names that start with "_" are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qicd").glob("*.py"))


def _parameters(args: ast.arguments) -> list[str]:
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return [name for name in names if name not in ("self", "cls") and not name.startswith("_")]


def unread_parameters(source: str, filename: str = "<source>") -> list[str]:
    """`file:line function(parameter)` for each parameter its function's
    body never reads."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = "<lambda>" if isinstance(node, ast.Lambda) else node.name
        found += [f"{filename}:{node.lineno} {name}({p})" for p in _parameters(node.args) if p not in read]
    return found


def test_the_walk_finds_an_unread_parameter():
    source = "def f(a, b, self, _c):\n    return a\n\ng = lambda x, y: lambda: y\n"
    assert unread_parameters(source) == ["<source>:1 f(b)", "<source>:4 <lambda>(x)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8"), path.name) == []
