"""Rules the package source keeps, checked on its syntax tree."""
import ast
import importlib
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


BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("arith", "beatty", "dioph", "tuples", "variational", "maynard",
          "buchstab", "chars", "equidist", "cli")


def _dotted(node):
    """['mod', 'a', 'b'] for the attribute chain mod.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def test_benchmark_names_resolve():
    # perfbench/ reaches the package through module attributes (arith.x,
    # beatty.BeattyParams.quadratic, ...) and names its counter hooks
    # _observe_<layer>_<name>; a deletion that breaks either fails here,
    # in the fast suite, instead of only in the benchmark run
    modules = {layer: importlib.import_module(f"beattysieve.{layer}")
               for layer in LAYERS}
    paths = sorted(BENCH_DIR.glob("*.py"))
    assert paths
    missing, checked = [], 0
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.asname or alias.name: alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "beattysieve"
                    for alias in node.names if alias.name in LAYERS}
        for node in ast.walk(tree):
            chain = None
            if isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if not chain or chain[0] not in imported:
                    continue
                chain[0] = imported[chain[0]]
            elif (isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_observe_")):
                chain = node.name[len("_observe_"):].split("_", 1)
                if chain[0] not in LAYERS:
                    continue
            else:
                continue
            obj = modules[chain[0]]
            for attr in chain[1:]:
                if not hasattr(obj, attr):
                    missing.append(f"{path.name}:{node.lineno} "
                                   + ".".join(chain))
                    break
                obj = getattr(obj, attr)
            checked += 1
    assert checked > 20
    assert missing == []
