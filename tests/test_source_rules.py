"""Rules the package source keeps, checked on its syntax tree."""
import ast
from pathlib import Path

import beattysieve

PACKAGE_DIR = Path(beattysieve.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so runtime checks must raise
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_function_parameter_is_read():
    # a parameter no body reads is an option no caller can use; the cmd_*
    # handlers all take the parsed namespace `ns`, read or not, because
    # main() dispatches to them with one signature.  Lambdas are left out:
    # their callers fix their signature.
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({p})"
                       for p in params if p not in read
                       and not (path.name == "cli.py" and p == "ns"
                                and node.name.startswith("cmd_"))]
    assert unread == []
