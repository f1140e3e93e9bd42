"""Every parameter of every function in ``src/sunspin`` has a reader.

A parameter that the function's body never reads is an input that is
accepted and then ignored.  The scan is static: each function
definition's and each lambda's parameters (``self`` and ``cls``
included) must each occur as a loaded name somewhere in its body,
nested functions included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sunspin"
MODULES = sorted(SRC.glob("*.py"))


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        unread += [f"{name}({p})" for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *c, d=1, **e):\n"
              "    def g(x):\n"
              "        return a + x\n"
              "    b = 2\n"
              "    return g\n"
              "h = lambda s, r: s\n")
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(d)", "f(e)",
                                         "<lambda at line 6>(r)"]
