"""List the statements of the package that the benchmark's operations never run.

With the package under SRC first on the import path, it line-traces
(``sys.settrace``, limited to the files of SRC/mlechar) one operation each
of the ``suite_default``, ``mle_large`` and ``construct`` workloads of
``perfbench/workloads.py`` at seed 1, with ``os.fork`` hidden so that the
suite's forked section runs, and is traced, in-process.  Then it runs each
command of one ``cli_session`` round through ``cli.main`` in a temporary
directory.  The imports are traced too.  For each module it prints a
heading, then per function the line ranges of the statements that nothing
executed, and at the end a total.  Docstrings, ``def`` and ``class`` lines
and ``try``/``except`` headers do not count; a compound statement counts by
its header lines.  It imports the benchmark's
files without writing bytecode beside them:

    python tools/traffic.py SRC
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

# statements that run no code of their own
_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global,
           ast.Nonlocal)


def statements(tree: ast.Module) -> list[tuple[str, int, int]]:
    """``(function, first line, last line)`` of each statement that runs
    code, in source order; a compound statement spans its header only, and
    ``function`` is the dotted name of the innermost enclosing ``def`` or
    ``class`` (``<module>`` at the top)."""
    out = []

    def visit(body, scope):
        for i, node in enumerate(body):
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            if not isinstance(node, _SILENT):
                children = [child for field in ("body", "orelse", "finalbody", "handlers")
                            for child in getattr(node, field, ())]
                # a header ends before its first child, unless they share a line
                last = (max(node.lineno, min(child.lineno for child in children) - 1)
                        if children else node.end_lineno)
                out.append((scope, node.lineno, last))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()), inner)
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, inner)

    visit(tree.body, "<module>")
    return sorted(out, key=lambda s: s[1])


def unexecuted(source: str, executed: set[int]) -> tuple[dict, int, int]:
    """Per function, the line ranges of consecutive statements none of whose
    lines ``executed`` holds; the number of those statements, and of all."""
    ranges: dict[str, list[tuple[int, int]]] = defaultdict(list)
    previous: dict[str, bool] = {}
    found = statements(ast.parse(source))
    missed = 0
    for scope, first, last in found:
        ran = not executed.isdisjoint(range(first, last + 1))
        if not ran:
            missed += 1
            if previous.get(scope) is False:
                ranges[scope][-1] = (ranges[scope][-1][0], last)
            else:
                ranges[scope].append((first, last))
        previous[scope] = ran
    return ranges, missed, len(found)


def trace(src: Path) -> dict[str, set[int]]:
    """The lines executed in each file of the package under ``src``."""
    package = str(src / "mlechar") + os.sep
    lines: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    fork = os.fork
    del os.fork
    sys.settrace(calls)
    try:
        import workloads
        from mlechar import cli

        with tempfile.TemporaryDirectory() as tmp:
            for name in ("suite_default", "mle_large", "construct"):
                workdir = Path(tmp) / name
                workdir.mkdir()
                workloads.WORKLOADS[name](1, workdir).op(False)
            workdir = Path(tmp) / "cli_session"
            workdir.mkdir()
            session = workloads.CliSession(1, workdir)
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                for sub, args, _, _ in session.commands:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main([sub, *args])
            finally:
                os.chdir(cwd)
    finally:
        sys.settrace(None)
        os.fork = fork
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent.parent / "perfbench")]
    lines = trace(src)
    total_missed = total = 0
    for path in sorted((src / "mlechar").glob("*.py")):
        ranges, missed, count = unexecuted(path.read_text(), lines.get(str(path), set()))
        print(f"{path.relative_to(src)}: {missed} of {count} statements not executed")
        for scope, spans in ranges.items():
            text = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)
            print(f"  {scope}: {text}")
        total_missed, total = total_missed + missed, total + count
    print(f"total: {total_missed} of {total} statements not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
