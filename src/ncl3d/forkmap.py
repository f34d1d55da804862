"""Independent jobs on every usable core, by forking the warm process.

``fork_map(jobs)`` returns what the serial loop over the jobs returns:
each job's result (a job is a callable taking no argument) in job order,
or else the first exception in job order.  Results are plain values (what
``marshal`` writes).  The parent and a forked child per other usable CPU
take one job at a time from a queue of job indices, a pipe filled before
the first fork, until it is empty: a job that raises stops no worker, so
every job runs.  A child sends its results, keyed by index, over its own
pipe and leaves by ``os._exit``, so no stdio buffer or exit hook runs
twice.  A job that no child sent (it raised, or its child did not start or
died) runs again in the parent, so the first exception in job order
surfaces there as it would serially.  Everything runs in-process without
``fork``, with one usable CPU, with another thread alive or with fewer than
2 jobs.  Every child is reaped before ``fork_map`` returns or raises.
"""
import marshal
import os
import signal
import threading

SLOT = 4          # bytes per queue entry
SLOTS = 1024      # entries in a 4 KiB page, the smallest pipe buffer there is


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(jobs: list) -> list:
    n = min(len(jobs), usable_cpus())
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _serial(jobs, {}, {})
    per = -(-len(jobs) // SLOTS)              # past SLOTS jobs, an entry is a run of them
    queue, w = os.pipe()
    os.write(w, b"".join(k.to_bytes(SLOT, "little") for k in range(0, len(jobs), per)))
    os.close(w)
    children = []                             # (pid or None, read end)
    try:
        for _ in range(n - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:                   # no process to spare: the others run its share
                pid = None
            if pid == 0:
                try:
                    with open(w, "wb") as out:
                        out.write(marshal.dumps(_work(jobs, queue, per)[0]))
                    os._exit(0)
                finally:
                    os._exit(1)               # reached only if the work or its write raised
            os.close(w)
            children.append((pid, open(r, "rb")))
        done, failed = _work(jobs, queue, per)
        for _, pipe in children:
            try:
                done.update(marshal.loads(pipe.read()))
            except (EOFError, ValueError, TypeError):    # nothing, or a truncated dict
                pass
        return _serial(jobs, done, failed)
    finally:
        os.close(queue)
        for pid, pipe in children:
            pipe.close()
            if pid:
                os.kill(pid, signal.SIGKILL)  # done sending, or no longer needed
                os.waitpid(pid, 0)


def _work(jobs: list, queue: int, per: int):
    """Run every job taken from ``queue`` until it is empty, whether or not
    one raises.  Returns the results and the exceptions, each keyed by job
    index."""
    done, failed = {}, {}
    while len(head := os.read(queue, SLOT)) == SLOT:
        first = int.from_bytes(head, "little")
        for k in range(first, min(first + per, len(jobs))):
            try:
                done[k] = jobs[k]()
            except Exception as err:
                failed[k] = err
    return done, failed


def _serial(jobs: list, done: dict, failed: dict) -> list:
    """The serial loop, taking a job's result or exception from ``done`` or
    ``failed`` where a worker left one."""
    out = []
    for k, job in enumerate(jobs):
        if k in failed:
            raise failed[k]
        out.append(done[k] if k in done else job())
    return out
