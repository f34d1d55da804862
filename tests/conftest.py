"""Shared test plumbing: the acceptance suite records one line per
criterion and this hook replays them in the terminal summary, so the
verdicts stay visible even when stdout capture is on; two fixtures for the
tests that fork."""
import os

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the os.fork calls made from here on, in this process and in its
    children: the returned function gives the count so far."""
    r, w = os.pipe()
    os.set_blocking(r, False)
    real_fork = os.fork
    seen = []

    def counted_fork():
        os.write(w, b"f")
        return real_fork()

    def count():
        try:
            seen.append(os.read(r, 1024))
        except BlockingIOError:
            pass
        return len(b"".join(seen))

    monkeypatch.setattr(os, "fork", counted_fork)
    yield count
    os.close(r)
    os.close(w)


def record(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"[{number:2d}] {name}: {status}{tail}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
