"""Independent jobs on every usable core, by forking the warm process.

``fork_map(jobs)`` returns what the serial loop over the jobs returns:
each job's result (a job is a callable taking no argument) in job order,
or else the first exception in job order.  Results are plain values (what
``marshal`` writes).  The parent and a forked child per other usable CPU
take one job at a time from a queue of job indices, a pipe filled before
the first fork, until it is empty: a job that raises stops no worker, so
every job runs.  A child sends its results, keyed by index, over its own
pipe as one ``marshal`` payload after its length, and leaves by
``os._exit``, so no stdio buffer or exit hook runs twice.  The parent
reads each payload into one buffer of that length: ``pipe.read()`` grows
a buffer, and ``marshal.load(pipe)`` reads once per object.  A job that
no child sent (it raised, or its child did not start, or died before its
payload was whole) runs again in the parent, so the first exception in
job order surfaces there as it would serially.  Everything runs
in-process when :func:`processes` says 1 (no ``fork``, one usable CPU,
another thread alive, or a call from inside a job of another round, in
the parent or in a child, so rounds never nest) or with fewer than 2
jobs.  Every child is reaped before ``fork_map`` returns or raises.
"""
import marshal
import os
import signal
import threading

SLOT = 4          # bytes per queue entry
SLOTS = 1024      # entries in a 4 KiB page, the smallest pipe buffer there is
SIZE = 8          # bytes of the length that heads a child's results


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True while this process runs a round's jobs.  It describes the process,
# so it is module state: a forked child inherits it with the jobs.
_in_round = False


def processes() -> int:
    """How many processes a ``fork_map`` round would use right now."""
    if _in_round or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


def fork_map(jobs: list) -> list:
    global _in_round
    n = min(len(jobs), processes())
    outer, _in_round = _in_round, True
    try:
        return _serial(jobs, {}, {}) if n < 2 else _fork_round(jobs, n)
    finally:
        _in_round = outer


def _fork_round(jobs: list, n: int) -> list:
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
                    data = marshal.dumps(_work(jobs, queue, per)[0])
                    with open(w, "wb") as out:
                        out.write(len(data).to_bytes(SIZE, "little"))
                        out.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)               # reached only if the work or its write raised
            os.close(w)
            children.append((pid, open(r, "rb")))
        done, failed = _work(jobs, queue, per)
        for _, pipe in children:
            head = pipe.read(SIZE)
            if len(head) == SIZE:
                data = bytearray(int.from_bytes(head, "little"))
                if pipe.readinto(data) == len(data):      # else the child died mid-write
                    done.update(marshal.loads(data))
                del data
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
