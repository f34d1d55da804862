"""Independent jobs on every usable core, by forking the warm process.

``fork_map(fn, jobs)`` returns what ``fn(jobs)`` returns.  ``fn`` treats
its jobs in order and independently and returns a list of plain values
(what ``marshal`` writes), one per job, or fewer if it stopped early.  The
jobs are cut into contiguous chunks, one per usable CPU.  The parent runs
the first and a forked child each other one, which sends its list over a
pipe and leaves by ``os._exit``, so no stdio buffer or exit hook runs
twice.  A chunk that stopped early ends the join.  A chunk whose child did
not start, or failed before sending its whole list, runs again in the
parent, so an exception a job raises surfaces there as it would serially.
Everything runs in-process without ``fork``, with one usable CPU, with
another thread alive or with fewer than 2 jobs.  Every child is reaped
before ``fork_map`` returns or raises.
"""
import marshal
import os
import signal
import threading


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn, jobs: list) -> list:
    n = min(len(jobs), usable_cpus())
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return fn(jobs)
    cut = [len(jobs) * k // n for k in range(n + 1)]
    children = []                             # (pid or None, read end, chunk)
    try:
        for a, b in zip(cut[1:], cut[2:]):
            chunk = jobs[a:b]
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:                   # no process to spare: the parent runs it
                pid = None
            if pid == 0:
                try:
                    with open(w, "wb") as out:
                        out.write(marshal.dumps(fn(chunk)))
                    os._exit(0)
                finally:
                    os._exit(1)               # reached only if the chunk or its write raised
            os.close(w)
            children.append((pid, open(r, "rb"), chunk))
        results = fn(jobs[:cut[1]])
        for k, (_, pipe, chunk) in enumerate(children, start=1):
            if len(results) < cut[k]:         # an earlier chunk stopped early
                break
            try:
                part = marshal.loads(pipe.read())
            except (EOFError, ValueError, TypeError):    # nothing, or a truncated list
                part = None
            results += fn(chunk) if part is None else part
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            if pid:
                os.kill(pid, signal.SIGKILL)  # done sending, or no longer needed
                os.waitpid(pid, 0)
