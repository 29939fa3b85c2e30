"""Line coverage of ``src/waferforge`` under the tier-1 suite, as a gate.

Run it as::

    PYTHONPATH=src python tests/line_coverage.py

It needs Python 3.11 or later, for ``co_qualname``.

It runs every test under ``tests/`` in this process under a ``sys.settrace`` /
``threading.settrace`` line tracer and counts as executable every line
that the compiled code of a ``src/`` module maps an instruction to
(``co_lines``). It prints the executed and total counts and the physical
line count, per module and in all, and every line that did not run. It
exits non-zero when the suite fails, when a function has more lines that
did not run than its ``ALLOWED`` entry counts, or when it has fewer (the
entry is stale).

The tracer follows no child process: a forked child stops tracing, so what
runs only in one must be allowed below. The file name does not match
``test_*.py``, so the suite does not collect it.
"""
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "waferforge"

# (module file, function qualname) -> (how many of its lines do not run,
# why they cannot run here)
ALLOWED = {
    ("calibration.py", "_fork"): (
        11, "the forked child's body, from `code = 1` to `os._exit`, runs only "
            "in the calibration worker processes, which the tracer does not follow"),
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path`` -> the qualname of the
    innermost function that holds it (``<module>`` at module level). A
    ``def`` line belongs to the code that executes it, the enclosing one."""
    owner: dict[int, str] = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:  # outer code first, so it keeps the def lines it executes
        code = todo.pop(0)
        for _, _, line in code.co_lines():
            if line is not None:
                owner.setdefault(line, code.co_qualname)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return owner


def main() -> int:
    files = {str(p): p for p in sorted(SRC.glob("*.py"))}
    hits: set[tuple[str, int]] = set()
    left: dict[object, set[int]] = {}  # code object -> its lines not yet run

    def local(frame, event, arg):
        code = frame.f_code
        hits.add((code.co_filename, frame.f_lineno))
        rest = left[code]
        rest.discard(frame.f_lineno)
        if not rest:  # every line of this code has run: stop tracing its lines
            frame.f_trace_lines = False
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        rest = left.get(code)
        if rest is None:
            rest = left[code] = {ln for _, _, ln in code.co_lines() if ln is not None}
        if not rest:
            return None
        return local(frame, event, arg)

    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed: dict[tuple[str, str], list[int]] = {}
    total = ran = physical = 0
    print(f"{'module':18s} {'ran':>5s} / {'executable':>10s} {'physical':>8s}")
    for name, path in files.items():
        owner = executable_lines(path)
        run_here = sorted(ln for ln in owner if (name, ln) in hits)
        n_lines = len(path.read_text().splitlines())
        total += len(owner)
        ran += len(run_here)
        physical += n_lines
        print(f"{path.name:18s} {len(run_here):5d} / {len(owner):10d} {n_lines:8d}")
        for ln in sorted(set(owner) - set(run_here)):
            missed.setdefault((path.name, owner[ln]), []).append(ln)
    print(f"{'src/':18s} {ran:5d} / {total:10d} {physical:8d}")

    failed = status != 0
    for (module, func), lines in sorted(missed.items()):
        count, why = ALLOWED.get((module, func), (0, ""))
        verdict = ("allowed" if len(lines) == count else
                   "NOT RUN" if len(lines) > count else "STALE")
        print(f"{verdict}: {module}:{func} lines {lines}"
              + (f" ({count} allowed: {why})" if count else ""))
        failed |= len(lines) != count
    for key in sorted(set(ALLOWED) - set(missed)):
        print(f"STALE: {key[0]}:{key[1]} is allowed, but every line of it ran")
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
