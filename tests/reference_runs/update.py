"""Rewrite named reference-run pins from the current tree.

    python3 tests/reference_runs/update.py NAME [NAME ...]

Each NAME is a key of REFERENCE_RUNS in tests/test_cli.py.  Its argv runs
in this process through beattysieve.cli.main, as
test_reference_runs_print_their_pinned_output runs it, and NAME.txt in
this directory becomes "exit CODE" on one line followed by the run's
stdout.  stderr (timings, warnings) is dropped.  REFERENCE_RUNS is read
from the test module's source, so nothing outside the standard library
and the package is imported.
"""
import ast
import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
TESTS = HERE.parent


def reference_runs() -> dict:
    """REFERENCE_RUNS as written in tests/test_cli.py."""
    tree = ast.parse((TESTS / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["REFERENCE_RUNS"]):
            return ast.literal_eval(node.value)
    raise SystemExit("REFERENCE_RUNS not found in tests/test_cli.py")


def main(names) -> int:
    runs = reference_runs()
    unknown = [name for name in names if name not in runs]
    if not names or unknown:
        print(f"usage: update.py NAME [NAME ...]; unknown: {unknown}; "
              f"known: {' '.join(sorted(runs))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(TESTS.parent / "src"))
    from beattysieve import cli

    for name in names:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(runs[name])
        (HERE / f"{name}.txt").write_bytes(f"exit {rc}\n{out.getvalue()}".encode())
        print(f"{name}: exit {rc}, {len(out.getvalue())} characters")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
