#!/usr/bin/env python3
"""List the functions of a fracblow package that no command runs.

    python3 tools/cli_reach.py SRC

``SRC`` is a directory holding the ``fracblow`` package (the ``src`` of a
checkout).  The script runs the jobs of ``tools/output_gate.py`` in this
process, with ``SRC`` first on the import path: seed 0 of each benchmark
workload, and every job that takes no seed (the README's config through
all five commands, the two edge sweeps, the two halving runs and the two
slowly decaying ``frac-apply`` runs).  It
traces every call into ``SRC/fracblow`` with ``sys.settrace`` and prints
each function defined in the package that no job entered, one a line, as
``module:line name``, with ``name`` qualified by its class.  A last line
counts the functions and the jobs; a job that exits nonzero is named on
stderr.  Exits 0, 1 where a job fails, or 2 where ``SRC`` holds no
``fracblow`` package.

Standard library only (the package under test needs numpy).
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import output_gate


def defined_functions(package: Path) -> dict[tuple[str, str], tuple[str, int]]:
    """(file, qualified name) -> (module, line) of every ``def`` in the package."""
    found = {}

    def walk(node, prefix: str, path: Path, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[str(path), name] = module, child.lineno
                walk(child, name + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)
            else:
                walk(child, prefix, path, module)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        walk(ast.parse(path.read_text()), "", path.resolve(), module)
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path)
    args = ap.parse_args(argv)
    package = (args.src / "fracblow").resolve()
    if not (package / "__init__.py").is_file():
        ap.error(f"no fracblow package under {args.src}")
    sys.path.insert(0, str(package.parent))
    from fracblow import cli
    if Path(cli.__file__).resolve().parent != package:
        ap.error(f"fracblow imports from {Path(cli.__file__).parent}, not from {package}")

    prefix = str(package) + os.sep
    entered = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_qualname))
        # no line events: the call is all that is recorded

    jobs = [(name, command, text) for name, command, text in output_gate.jobs()
            if "-seed" not in name or name.endswith("-seed0")]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="cli-reach-") as tmp:
        for name, command, text in jobs:
            job = Path(tmp) / name
            job.mkdir()
            (job / "run.ini").write_text(text)
            sys.settrace(on_call)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([command, "--config", str(job / "run.ini"),
                                     "--out", str(job / "out")])
            finally:
                sys.settrace(None)
            if code != 0:
                failed += 1
                print(f"job {name} exited {code}", file=sys.stderr)

    defined = defined_functions(package)
    missed = sorted((module, line, name) for (path, name), (module, line) in defined.items()
                    if (path, name) not in entered)
    for module, line, name in missed:
        print(f"{module}:{line} {name}")
    print(f"{len(missed)} of {len(defined)} functions entered by no job of {len(jobs)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
