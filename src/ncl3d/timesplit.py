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

A run inside a ``fork_map`` job never splits: ``processes()`` is 1 there.
"""
from array import array
from functools import partial
from itertools import accumulate
from operator import sub
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

    # Segment 0's columns, extended in place; each segment's parts are
    # dropped as soon as they are read.
    events, times = results[0][6]
    if not isinstance(times, array):          # sent through a pipe as bytes
        times = array("q", times)
    waves: List[Wave] = []
    for i, off in enumerate(offsets):
        *_, records, kept = results[i]
        results[i] = None
        if i:
            seg_events, t_first, gap, gaps = records
            del records
            events += seg_events
            del seg_events
            times.extend(accumulate(memoryview(gaps).cast("B").cast(gap), initial=t_first + off))
            del gaps
        for t_applied, t_data, t_null, value, arrivals in kept:
            for o in arrivals:
                arrivals[o] += off
            waves.append(Wave(t_applied + off, t_data + off, t_null + off, value, arrivals))
    return Trace(Records(nets[0], events, times), waves, True, dict(system.net_class))


def _segment(system: PipelineSystem, nets: tuple, vectors: List[Tuple[int, ...]],
             delays: DelayAssignment, limit: int, lo: int, hi: int) -> Optional[tuple]:
    """Waves lo to hi - 1 of a run, as a ``fork_map`` job.

    Past wave 0 the segment runs ``vectors[lo - 1:]`` from reset and keeps
    what follows its first seam.  Unless hi is the last wave it stops at
    the seam that ends wave hi - 1.  Returns the (time, events popped,
    state) of both seams (wave 0 starts at reset), the kept records and the
    kept waves as plain tuples; None if the run raised.  Segment 0's
    records are its trace columns, which the stitched trace extends (the
    parent takes job 0 first, so they are not copied).  The others' are
    the events, the first time and the gaps between times, 16-bit where
    they fit: about 7 bytes a record through the pipe (a back-reference per
    event and a gap) against 13 with whole times, and 2 bytes a record
    held in the parent while it extends its columns, against 8.
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
    if lo:
        n0 = start[1]
        del events[:n0]
        records = (events, times[n0], *_gaps(times, n0))
    else:
        records = (events, times)
    return (start[0], start[2], start[3], end[0], end[2], end[3], records,
            [tuple(w) for w in waves[lo - first:]])


def _gaps(times: array, n0: int) -> Tuple[str, array]:
    """The gaps between ``times[n0:]`` as (type code, array): 16-bit ints
    where every gap fits, else 64-bit."""
    def gaps():
        return map(sub, times[n0 + 1:], times[n0:-1])
    try:
        packed = array("H", gaps())
    except OverflowError:
        packed = array("q", gaps())
    return packed.typecode, packed
