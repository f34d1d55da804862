"""List the statement lines of ``src/ncl3d`` that a test run never executes.

    python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default the tier-1 command's arguments,
``-q --continue-on-collection-errors``) under ``sys.settrace`` and prints,
per module, the lines that can start a statement and never ran, as
``module.py: 12, 40-42``.  Lines run in a forked child (a ``fork_map``
worker) count: each child writes what it saw to a scratch directory just
before it leaves by ``os._exit``, and ``os.kill`` waits up to a second for
a child of this process to leave so before signalling it.  Lines run only
in a fresh interpreter
(the ``python -m ncl3d`` subprocesses of the startup, demo and acceptance
tests) do not.  Needs nothing beyond the standard library and pytest; it
is not a test module, so pytest never collects it.  A tier-1 run traced
this way takes several times as long as an untraced one.
"""
import dis
import marshal
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncl3d"
TIER1 = ["-q", "--continue-on-collection-errors"]


def statement_lines(path: Path) -> set:
    """The lines of ``path`` where a statement can start running."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def ranges(lines: list) -> str:
    """Sorted line numbers as ``12, 40-42``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(args: list) -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    # a module's file name is absolute, or relative if PYTHONPATH is
    names = {str(p) for p in modules} | {os.path.relpath(p) for p in modules}
    seen = set()

    def local(frame, event, _):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, _):
        return local if frame.f_code.co_filename in names else None

    with tempfile.TemporaryDirectory() as children:
        real_exit, real_kill = os._exit, os.kill

        def exit_with_lines(code):
            part = os.path.join(children, f"{os.getpid()}.part")
            with open(part, "wb") as fh:
                marshal.dump(seen, fh)
            os.rename(part, part.removesuffix(".part"))
            real_exit(code)

        def kill_once_left(pid, sig):
            """Give a child of this process up to a second to leave by
            itself, writing its lines, before it gets the signal."""
            deadline = time.monotonic() + 1
            try:
                while (time.monotonic() < deadline and os.waitid(
                        os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None):
                    time.sleep(0.001)
            except ChildProcessError:
                pass
            real_kill(pid, sig)

        import pytest
        os._exit, os.kill = exit_with_lines, kill_once_left
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            status = pytest.main(args or TIER1)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit, os.kill = real_exit, real_kill
        for name in os.listdir(children):
            if not name.endswith(".part"):      # a child killed while writing
                with open(os.path.join(children, name), "rb") as fh:
                    seen |= marshal.load(fh)

    ran = {(os.path.abspath(f), line) for f, line in seen}
    total = missed = 0
    for path in modules:
        lines = statement_lines(path)
        never = sorted(lines - {line for f, line in ran if f == str(path)})
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{path.name}: {ranges(never)}")
    print(f"{missed} of {total} statement lines in {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
