"""The settle fixpoint and the two behavioral delay-insensitivity checkers.

Evaluation is a one-pass fixpoint (settle) over lane ints, one bit per
case, on an acyclic netlist where each net has at most one driver, a
gate or the environment. On it the checkers run as parallel-pattern,
parallel-fault simulation: lane ``j*V + k`` is case block j (a partial
input wavefront for input-completeness, a gate held at 0 by an AND lane
mask for observability) under vector k of the V DATA vectors, with
whole blocks packed up to LANE_BUDGET lanes per settle.  Only
``ncl3d check`` runs them, so loading a netlist compiles none of this.
"""
from __future__ import annotations

import itertools
import random
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gates import eval_sop, spec_from_name
from .netlist import Netlist, NetlistError, Port


def _settle_rows(netlist: Netlist) -> tuple:
    """Net index map and topo-ordered settle rows.

    Each row is (products over net indices, one single-net product per
    distinct input net, output net index).  Raises NetlistError if a gate
    drives a net that an input rail, a control input or an earlier gate
    already drives: with one driver per net, one pass settles.
    """
    index = {net: i for i, net in enumerate(netlist.nets)}
    driven = set(netlist.external_rails())
    rows = []
    for inst in netlist.topo_order():
        if inst.out in driven:
            raise NetlistError(f"net {inst.out} has a second driver, gate {inst.name}")
        driven.add(inst.out)
        rows.append((tuple(tuple(index[inst.ins[k]] for k in prod)
                           for prod in spec_from_name(inst.kind).products),
                     tuple((i,) for i in dict.fromkeys(index[p] for p in inst.ins)),
                     index[inst.out]))
    return index, tuple(rows)


def settle(
    netlist: Netlist,
    rails: Mapping[str, int],
    state: Optional[Mapping[str, int]] = None,
    frozen: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Fixpoint evaluation: one pass over the gates in topological order.

    ``rails`` gives externally driven rail values (missing rails read 0);
    ``state`` gives previous net values for hysteresis (missing nets read
    0, the all-NULL reset); ``frozen`` maps nets to AND lane masks: a
    frozen net's value is ANDed with its mask, so ``{net: 0}`` holds the
    net at 0 in every lane, and the observability checker holds one gate
    output at 0 in each block of lanes. Returns the complete net-value
    map. Values are lane ints (bit k is vector k; 0/1 is one lane) and
    each gate steps as ``set | (prev & any input)``. With no cycle and one
    driver per net (``_settle_rows`` raises otherwise), each gate reads
    final inputs, so one step settles it.
    """
    index, rows = netlist.derive(_settle_rows)
    nets = netlist.nets
    state = state or {}
    values = [state.get(net, 0) for net in nets]
    for r in netlist.external_rails():
        values[index[r]] = rails.get(r, 0)
    masks = {index[net]: m for net, m in (frozen or {}).items() if net in index}
    for i, m in masks.items():
        values[i] &= m
    for prods, anys, out in rows:
        prev = values[out]
        nxt = eval_sop(prods, values)
        if prev:
            nxt |= prev & eval_sop(anys, values)
        if out in masks:
            nxt &= masks[out]
        values[out] = nxt
    return dict(zip(nets, values))


class ICViolation(NamedTuple):
    """Outputs completed a wavefront before the inputs did."""

    direction: str               # "null-to-data" or "data-to-null"
    vector: Tuple[int, ...]      # data bit per input port
    subset: Tuple[str, ...]      # the partial input set that sufficed

    def __str__(self):
        word = "".join(str(b) for b in self.vector)
        return (f"input-completeness ({self.direction}): inputs {{{', '.join(self.subset)}}} "
                f"of vector {word} already complete all outputs")


class ObsViolation(NamedTuple):
    """A gate whose transitions never reach a primary output."""

    gate: str

    def __str__(self):
        return f"observability: gate {self.gate} never affects any primary output"


def _check_preconditions(netlist: Netlist) -> None:
    defects = netlist.validate()
    if defects:
        raise NetlistError("netlist does not validate: " + "; ".join(str(d) for d in defects[:4]))
    if netlist.ctl_inputs:
        raise NetlistError("checkers expect pure dual-rail netlists (no control inputs)")


# Exhaustive checker sweeps refuse netlists with more dual-rail inputs.
MAX_EXHAUSTIVE_INPUTS = 12

# Lanes one checker settle carries at most: every net holds an int this
# wide. Unbounded, the exhaustive width-5 multiplier sweep (1M lanes) peaks
# at 81 MB RSS and runs 4x slower than under this bound (20.5 MB).
LANE_BUDGET = 1 << 16


def _all_vectors(netlist: Netlist) -> list:
    """Every legal DATA vector as a per-port bit tuple, under the guard."""
    n = len(netlist.inputs)
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise NetlistError(
            f"{n} dual-rail inputs exceed the exhaustive guard of {MAX_EXHAUSTIVE_INPUTS}; "
            f"pass a trial count for sampled mode")
    return list(itertools.product((0, 1), repeat=n))


def _lane_rails(ports: Sequence[Port], vectors: Sequence[Tuple[int, ...]]) -> Dict[str, int]:
    """Input rail values as lane ints: lane k carries the DATA of vectors[k]."""
    every = (1 << len(vectors)) - 1
    rails = {}
    for i, p in enumerate(ports):
        rails[p.rail1] = sum(vec[i] << k for k, vec in enumerate(vectors))
        rails[p.rail0] = every ^ rails[p.rail1]
    return rails


def _chunks(cases: Sequence, width: int, *states: Mapping[str, int]):
    """Cut ``cases`` into runs of at most LANE_BUDGET lanes (at least one
    case each), one block of ``width`` lanes per case. Yields each run with
    every one of ``states`` copied into each of its blocks; the copies are
    made once, for a full run, and cut down for a shorter last run. The NULL
    state needs no copy: NULL→DATA settles from no state, which reads 0."""
    step = max(1, LANE_BUDGET // max(width, 1))
    count = min(step, len(cases))
    # values fit in ``width`` lanes, so multiplying by ones copies them exactly
    ones = sum(1 << j * width for j in range(count))
    full = [{net: v * ones for net, v in state.items()} for state in states]
    for lo in range(0, len(cases), step):
        run = cases[lo:lo + step]
        if len(run) < count:
            cut = (1 << len(run) * width) - 1
            full = [{net: v & cut for net, v in state.items()} for state in full]
        yield run, full


def check_input_completeness(
    netlist: Netlist,
    trials: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Partial-wavefront sweep per the behavioral definition.

    Exhaustive over every legal DATA vector and every strict nonempty
    subset of input ports when the port count is within the guard;
    otherwise ``trials`` random (vector, subset) pairs. Checks both the
    NULL→DATA and DATA→NULL directions. Empty list iff input-complete;
    violations come in case order (vector, then subset; first draw when
    sampled), NULL→DATA before DATA→NULL.

    Cases are lanes: lane ``j*V + k`` is subset block j and vector k of
    the V vectors, so one settle per direction covers every subset of a
    LANE_BUDGET chunk. Sampled blocks keep only the lanes their draws used.

    NULL→DATA starts from no state, as no control input is driven, every
    gate product has a literal and a gate holds a 1 only once set: with
    all rails 0, the settled NULL state is 0 on every net.

    Random-delay trials (``sim.check_delay_insensitivity``) do not see
    this defect class: the four-phase environment changes the inputs only
    after every output has completed or reset, so an output that fires on
    part of its inputs still gives the same words (``and2_relaxed.ncl``).
    """
    _check_preconditions(netlist)
    ports = netlist.inputs
    n = len(ports)
    if n < 2:
        return []  # no strict nonempty subset exists
    if trials is None:
        vectors = _all_vectors(netlist)
        every = (1 << len(vectors)) - 1
        subsets = {c: every for k in range(1, n) for c in itertools.combinations(range(n), k)}
    else:
        rng = random.Random(seed)
        lane_of: Dict[Tuple[int, ...], int] = {}
        subsets = {}
        first: Dict[tuple, int] = {}
        for t in range(trials):
            vec = tuple(rng.randint(0, 1) for _ in range(n))
            k = rng.randint(1, n - 1)
            sub = tuple(sorted(rng.sample(range(n), k)))
            lane = lane_of.setdefault(vec, len(lane_of))
            subsets[sub] = subsets.get(sub, 0) | 1 << lane
            first.setdefault((lane, sub), t)
        vectors = list(lane_of)
    width = len(vectors)
    rails = _lane_rails(ports, vectors)
    out_rails = [p.rails for p in netlist.outputs]
    data_state = settle(netlist, rails)
    hits = []
    for chunk, (wide_rails, data) in _chunks(list(subsets.items()), width,
                                             rails, data_state):
        # NULL -> DATA drives only each subset's rails (in_sub), from no
        # state (all NULL); DATA -> NULL drops them, from the full-DATA state.
        for direction, in_sub, start, done in (
                ("null-to-data", True, None, lambda r1, r0: r1 ^ r0),
                ("data-to-null", False, data, lambda r1, r0: ~(r1 | r0))):
            drive = {}
            for i, p in enumerate(ports):
                # bit 0 of each block that drives port i; (on << width) - on
                # fills those blocks
                on = sum(1 << j * width for j, (sub, _) in enumerate(chunk)
                         if (i in sub) == in_sub)
                for r in p.rails:
                    drive[r] = wide_rails[r] & ((on << width) - on)
            vals = settle(netlist, drive, start)
            bits = -1
            for r1, r0 in out_rails:
                bits &= done(vals[r1], vals[r0])
            del vals  # one wide net map alive at a time bounds the peak
            for j, (sub, lanes) in enumerate(chunk):
                block = bits >> j * width & lanes
                while block:
                    lane = (block & -block).bit_length() - 1
                    block &= block - 1
                    hits.append((lane, sub, ICViolation(
                        direction, vectors[lane], tuple(ports[i].name for i in sub))))
    # case order; the sort is stable, so NULL->DATA stays first in a case
    if trials is None:
        rank = {sub: i for i, sub in enumerate(subsets)}
        hits.sort(key=lambda hit: (hit[0], rank[hit[1]]))
    else:
        hits.sort(key=lambda hit: first[hit[0], hit[1]])
    return [v for _, _, v in hits]


def check_observability(
    netlist: Netlist,
    trials: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Transition-suppression sweep: freeze one gate output at 0 per DATA
    wavefront; a gate no wavefront can ever observe at the outputs is
    flagged. Empty list iff every gate is observable.

    Faults are lanes: lane ``j*V + k`` is vector k of the V vectors with
    gate j of a LANE_BUDGET chunk stuck at 0 (an AND mask on its output),
    so one settle covers the chunk; gate j is unobservable iff block j of
    the outputs equals the fault-free settle in every lane."""
    _check_preconditions(netlist)
    if trials is None:
        vectors = _all_vectors(netlist)
    else:
        rng = random.Random(seed)
        vectors = [tuple(rng.randint(0, 1) for _ in netlist.inputs) for _ in range(trials)]
    width = len(vectors)
    every = (1 << width) - 1
    rails = _lane_rails(netlist.inputs, vectors)
    out_rails = netlist.output_rails()
    base = settle(netlist, rails)
    violations = []
    for chunk, (wide_rails, wide_base) in _chunks(
            netlist.gates, width, rails, {r: base[r] for r in out_rails}):
        stuck = {inst.out: ~(every << j * width) for j, inst in enumerate(chunk)}
        vals = settle(netlist, wide_rails, frozen=stuck)
        diff = 0
        for r in out_rails:
            diff |= vals[r] ^ wide_base[r]
        del vals  # one wide net map alive at a time bounds the peak
        violations += [ObsViolation(inst.name) for j, inst in enumerate(chunk)
                       if not diff >> j * width & every]
    return violations
