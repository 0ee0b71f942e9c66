"""Lines of ``src/lorentz_cmc`` that the tier-1 suite never runs.

    python tools/line_coverage.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` on
``tests/``) in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines executed in frames whose code
lives under ``src/lorentz_cmc``.  A module's executable lines are those its
compiled code objects map instructions to (``co_lines``), nested functions
and classes included; the bodies of ``if __name__ == "__main__":`` blocks
are skipped.  Prints every line that never ran as ``file:first-last`` and
exits 1 if there is one, else with pytest's exit status.  Code run by
child processes the tests start is not seen.

Needs the stdlib and the suite's own test dependencies only.  Not built
on the ``trace`` module: it caches its ignore decision by bare module
name, so once it has seen the stdlib ``profile`` and numpy's ``core`` it
skips ``lorentz_cmc.profile`` and ``lorentz_cmc.core`` without a word.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lorentz_cmc"


def executable_lines(path):
    """Lines of ``path`` that some instruction maps to, less ``__main__`` bodies."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        # None marks no line; 0, a module's RESUME before its first line
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.difference_update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def runs(lines):
    """Sorted line numbers as (first, last) runs of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return out


def main():
    prefix = str(PACKAGE) + os.sep
    ran = {}  # filename -> set of executed line numbers
    traced = {}  # code object -> its filename's set, or None outside the package

    def tracer(frame, event, arg):
        code = frame.f_code
        hits = traced.get(code, False)
        if hits is False:
            name = os.path.realpath(code.co_filename)
            hits = ran.setdefault(name, set()) if name.startswith(prefix) else None
            traced[code] = hits
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lost = executable_lines(path) - ran.get(os.path.realpath(path), set())
        for first, last in runs(lost):
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"never ran: {path.relative_to(ROOT)}:{where}")
        missed += len(lost)
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} never ran")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main())
