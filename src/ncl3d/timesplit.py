"""Time-parallel simulation: one long ``sim.simulate`` run cut into
segments of consecutive waves, one per process of a ``forkmap.fork_map``
round, run at once and stitched where they meet (time partitioning:
Heidelberger & Stone, WSC 1990).

A seam is the moment the consumer acknowledges the NULL word that ends a
wave.  Segment 0 runs from reset and stops at its last seam.  Segment i,
whose first wave is m, runs ``vectors[m - 1:]`` from reset: its first wave
is a warm-up, its state at the seam that ends it stands in for the state
the segment before reached there, and it keeps only what follows.  The
parent keeps the stitched trace only if
- at every seam the two sides' states are equal, taken relative to the
  seam's time and wave count: net values, gate hysteresis, the unprocessed
  tail of the current timestep, the pending timesteps, the producer's
  phase and the pending application times;
- the events popped add up to no more than the run's event limit;
- the last time, shifted, fits in 64 bits.
Otherwise, or if a segment raised, ``split_run`` returns None and
``simulate`` runs the whole thing serially from reset, so a stitched trace
is the serial one record for record.  The multiplier pipelines' wave
boundaries are quiescent (every net NULL but the next vector's input rails
and the first request), so their warm-ups reach the serial state; a gate
whose transitions outlive its wave (an unobserved one, say) makes the
seams differ, and the run falls back.

The parent's tail after the round is short: each segment has counted its
kept transitions per net and sends its times as 32-bit ints where they
fit, and the stitched trace keeps the segments' time columns, with
their offsets, until something reads ``times``.

A run inside a ``fork_map`` job never splits: ``processes()`` is 1 there.
"""
from array import array
from collections import Counter
from functools import partial
from operator import itemgetter
from typing import List, Optional, Tuple

from .forkmap import fork_map, processes
from .pipeline import PipelineSystem
from .sim import T_MAX, DelayAssignment, Records, SimulationError, Trace, Wave, _run, _Stop


def split_run(system: PipelineSystem, nets: tuple, vectors: List[Tuple[int, ...]],
              delays: DelayAssignment, limit: int) -> Optional[Trace]:
    """The run (``sim._run``'s arguments) as one segment per process of a
    ``fork_map`` round, stitched; None if fewer than two processes would
    run, a segment raised or a check failed."""
    k = min(processes(), len(vectors))
    if k < 2:
        return None
    cuts = [len(vectors) * i // k for i in range(k + 1)]
    results = fork_map([partial(_segment, system, nets, vectors, delays, limit, lo, hi)
                        for lo, hi in zip(cuts, cuts[1:])])
    if None in results:
        return None
    offsets = []                  # serial time minus the segment's own
    t_end = popped = 0
    seam = None
    for t0, p0, state0, t1, p1, state1, *_ in results:
        if state0 != seam:
            return None
        offsets.append(t_end - t0)
        popped += p1 - p0
        t_end, seam = t1 + offsets[-1], state1
    if popped > limit or t_end > T_MAX:
        return None

    # Segment 0's events list, extended in place, and one count, both
    # merged in segment order; each segment's time column is a part of the
    # records.  Each segment's results are dropped as soon as they are read.
    events = results[0][6]
    counts = Counter()
    parts = []
    waves: List[Wave] = []
    for i, off in enumerate(offsets):
        *_, seg_events, seg_counts, (code, column), kept = results[i]
        results[i] = None
        if i:
            events += seg_events
        del seg_events
        counts.update(seg_counts)
        parts.append((memoryview(column).cast("B").cast(code), off))
        for t_applied, t_data, t_null, value, arrivals in kept:
            for o in arrivals:
                arrivals[o] += off
            waves.append(Wave(t_applied + off, t_data + off, t_null + off, value, arrivals))
    names = nets[0]
    trace = Trace(Records(names, events, parts), waves, True, dict(system.net_class))
    trace._counts = {names[net]: n for net, n in counts.items()}
    return trace


def _segment(system: PipelineSystem, nets: tuple, vectors: List[Tuple[int, ...]],
             delays: DelayAssignment, limit: int, lo: int, hi: int) -> Optional[tuple]:
    """Waves lo to hi - 1 of a run, as a ``fork_map`` job.

    Past wave 0 the segment runs ``vectors[lo - 1:]`` from reset and keeps
    what follows its first seam.  Unless hi is the last wave it stops at
    the seam that ends wave hi - 1.  Returns the (time, events popped,
    state) of both seams (wave 0 starts at reset), the kept events, their
    count per net index in order of first transition, their times in the
    segment's own time base as (type code, column), and the kept waves,
    all plain values.  The column is 32-bit where every time fits (4 bytes
    a record through the pipe and held in the parent, against 8), else
    64-bit.
    """
    first = max(lo - 1, 0)
    stop = hi - first if hi < len(vectors) else None
    seams = tuple(s for s in (lo - first, stop) if s)
    try:
        events, times, waves, marks = _run(system, nets, vectors[first:], delays, limit,
                                           seams, stop)
    except _Stop as at_stop:
        events, times, waves, marks = at_stop.args
    except SimulationError:
        return None
    start = marks[0] if lo else (0, 0, 0, None)
    end = marks[-1]
    n0 = start[1]
    del events[:n0]
    try:
        column = array("I", memoryview(times)[n0:])
    except OverflowError:
        column = times[n0:]
    del times
    return (start[0], start[2], start[3], end[0], end[2], end[3], events,
            dict(Counter(map(itemgetter(0), events))), (column.typecode, column),
            [tuple(w) for w in waves[lo - first:]])
