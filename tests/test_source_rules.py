"""Rules the package source keeps, checked on its syntax tree."""
import ast
import importlib
import os
import subprocess
import sys
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


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy serves as a test oracle
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_beatty_reads_the_integer_form_of_a_pair():
    # one Beatty membership and enumeration kernel: every other module goes
    # through beatty's functions rather than BeattyParams._integers
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "beatty.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "_integers"]
    assert found == []


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, beattysieve.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_coerces_flags_only_through_argparse():
    # each flag declares its type with the flag, so handlers and their
    # helpers read typed values and never call a flag type themselves
    flag_types = {"_int", "_float", "_number", "_int_list", "_flag"}
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    calls = [f"cli.py:{node.lineno} {node.func.id}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in flag_types]
    declared = {kw.value.id for node in ast.walk(tree)
                if isinstance(node, ast.Call) for kw in node.keywords
                if kw.arg == "type" and isinstance(kw.value, ast.Name)}
    assert calls == []
    assert declared == flag_types


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


def _defined_names(node):
    """Names a module-level statement binds: a def, a class, a constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _referenced(nodes):
    """Identifiers read in the nodes as a bare name or as an attribute,
    and those read as an attribute."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names | attrs, attrs


def test_every_public_name_is_reached():
    # every definition of the library modules is reached from a command
    # (cli.py) or from the benchmark (perfbench/), directly or through a
    # definition that is; what only tests call is a test oracle and lives in
    # tests/, or is dead.  Checked: module-level defs, classes and constants
    # (a private helper nothing reached calls is dead too) and the public
    # methods and properties of classes.  A class brings its own body along
    # but not its public members, which only an attribute access (x.name)
    # reaches.  Matching is by identifier, and strings do not count, so a
    # name shared with a reached identifier of the right kind passes: the
    # rule finds what is certainly unreached.
    definitions = []   # (label, name, is a member, nodes read once reached)
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("__init__.py", "cli.py"):
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            for name in _defined_names(node):
                body = [node]
                if isinstance(node, ast.ClassDef):
                    members = [s for s in node.body
                               if isinstance(s, ast.FunctionDef)
                               and not s.name.startswith("_")]
                    body = [s for s in node.body if s not in members]
                    body += node.decorator_list + node.bases
                    definitions += [(f"{path.name}:{s.lineno} {name}.{s.name}",
                                     s.name, True, [s]) for s in members]
                definitions.append((f"{path.name}:{node.lineno} {name}",
                                    name, False, body))
    roots = [PACKAGE_DIR / "cli.py", *sorted(BENCH_DIR.glob("*.py"))]
    seen, attrs = _referenced(ast.parse(p.read_text(), str(p)) for p in roots)

    def is_reached(definition):
        return definition[1] in (attrs if definition[2] else seen)

    pending = definitions
    while True:
        reached = [d for d in pending if is_reached(d)]
        if not reached:
            break
        pending = [d for d in pending if not is_reached(d)]
        for *_, body in reached:
            more_seen, more_attrs = _referenced(body)
            seen |= more_seen
            attrs |= more_attrs
    assert len(definitions) > 150
    assert [label for label, *_ in pending] == []
