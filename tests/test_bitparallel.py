"""Bit-parallel settle and the checkers built on it, against scalar oracles.

``settle`` evaluates packed lane ints (bit k of every value is vector k).
Here each lane is compared with a scalar settle of its own vector, and
both checkers are compared, violation for violation and in order, with
reference loops that settle one (vector, subset) case or one (gate,
vector) pair at a time.  The checkers pack cases side by side as lane
blocks, up to ``LANE_BUDGET`` lanes per settle; the last tests pin that
packing's results across budgets, its settle count and its memory.
"""
import itertools
import random
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncl3d.checks
from ncl3d.boolnet import parse_boolean_netlist
from ncl3d.checks import (
    ICViolation,
    ObsViolation,
    check_input_completeness,
    check_observability,
    settle,
)
from ncl3d.netlist import Netlist, NonConvergenceError, parse_netlist
from ncl3d.synth import build_array_multiplier, expand_dual_rail
from oracles import DATA, NULL, encode_word, output_word
from test_netlist import and_template, boolean_circuit, relaxed_and_template


# ------------------------------------------------------------ scalar oracles

def reference_input_completeness(netlist, trials=None, seed=0):
    """One scalar settle per (vector, subset) case and direction."""
    ports = netlist.inputs
    names = [p.name for p in ports]
    n = len(ports)
    if n < 2:
        return []
    if trials is None:
        subsets = [c for k in range(1, n) for c in itertools.combinations(range(n), k)]
        cases = [(vec, sub) for vec in itertools.product((0, 1), repeat=n)
                 for sub in subsets]
    else:
        rng = random.Random(seed)
        cases = []
        for _ in range(trials):
            vec = tuple(rng.randint(0, 1) for _ in range(n))
            k = rng.randint(1, n - 1)
            cases.append((vec, tuple(sorted(rng.sample(range(n), k)))))
    violations = []
    null_state = settle(netlist, {})
    for vec, sub in dict.fromkeys(cases):
        partial = {names[i]: vec[i] for i in sub}
        vals = settle(netlist, encode_word(ports, partial), null_state)
        if all(pair in DATA for pair in output_word(netlist, vals).values()):
            violations.append(ICViolation("null-to-data", vec, tuple(names[i] for i in sub)))
        full = settle(netlist, encode_word(ports, dict(zip(names, vec))), null_state)
        kept = {names[i]: vec[i] for i in range(n) if i not in sub}
        vals = settle(netlist, encode_word(ports, kept), full)
        if all(pair == NULL for pair in output_word(netlist, vals).values()):
            violations.append(ICViolation("data-to-null", vec, tuple(names[i] for i in sub)))
    return violations


def without(netlist, gone):
    """A copy of ``netlist`` without gate ``gone``: its output net has no
    driver left, so it keeps its NULL value 0."""
    nl = Netlist([p.name for p in netlist.inputs], netlist.outputs)
    for inst in netlist.gates:
        if inst is not gone:
            nl.add(inst.kind, inst.ins, inst.out, name=inst.name)
    return nl


def reference_observability(netlist, trials=None, seed=0):
    """One scalar settle per (gate, vector) pair, on a copy of the netlist
    without that gate, so its output stays 0."""
    ports = netlist.inputs
    names = [p.name for p in ports]
    if trials is None:
        vectors = list(itertools.product((0, 1), repeat=len(ports)))
    else:
        rng = random.Random(seed)
        vectors = [tuple(rng.randint(0, 1) for _ in ports) for _ in range(trials)]
    null_state = settle(netlist, {})
    out_rails = netlist.output_rails()
    baselines = []
    for vec in vectors:
        rails = encode_word(ports, dict(zip(names, vec)))
        vals = settle(netlist, rails, null_state)
        baselines.append((rails, [vals[r] for r in out_rails]))
    violations = []
    for inst in netlist.gates:
        cut = without(netlist, inst)
        if not any([settle(cut, rails, null_state)[r] for r in out_rails] != base
                   for rails, base in baselines):
            violations.append(ObsViolation(inst.name))
    return violations


# ------------------------------------------------------------ packed settle

def packed_rails(netlist, vectors, driven=None):
    """Input rail lane ints, built lane by lane from scalar encodings;
    ports not in ``driven`` (all by default) stay NULL."""
    names = [p.name for p in netlist.inputs]
    driven = set(names if driven is None else driven)
    rails = dict.fromkeys(netlist.input_rails(), 0)
    for k, vec in enumerate(vectors):
        word = {n: b for n, b in zip(names, vec) if n in driven}
        for rail, v in encode_word(netlist.inputs, word).items():
            rails[rail] |= v << k
    return rails


def lane(values, k):
    return {net: v >> k & 1 for net, v in values.items()}


@settings(max_examples=60, deadline=None)
@given(case=boolean_circuit(), words=st.lists(st.integers(0, 15), min_size=1, max_size=20),
       dropped=st.sets(st.integers(0, 3)))
def test_packed_settle_matches_per_lane_settle(case, words, dropped):
    bnl, _ = case
    nl = expand_dual_rail(bnl)
    names = [p.name for p in nl.inputs]
    vectors = [tuple(w >> i & 1 for i in range(len(names))) for w in words]
    null_state = settle(nl, {})
    data = settle(nl, packed_rails(nl, vectors), null_state)
    # DATA -> NULL from the packed state, with the other ports still DATA
    kept = [n for i, n in enumerate(names) if i not in dropped]
    back = settle(nl, packed_rails(nl, vectors, kept), data)
    for k, vec in enumerate(vectors):
        want = settle(nl, encode_word(nl.inputs, dict(zip(names, vec))), null_state)
        assert lane(data, k) == want
        still = {n: b for n, b in zip(names, vec) if n in kept}
        assert lane(back, k) == settle(nl, encode_word(nl.inputs, still), want)


def test_packed_settle_reports_nonconvergence_in_any_lane():
    # two drivers of Z.1 that agree when A is DATA1 and fight when it is DATA0
    nl = Netlist(["A"], ["Z"])
    nl.add("TH11", ["A.1"], "Z.1", name="g1")
    nl.add("TH12", ["A.1", "A.0"], "Z.1", name="g2")
    nl.add("TH11", ["A.0"], "Z.0", name="g3")
    settle(nl, packed_rails(nl, [(1,), (1,)]))
    with pytest.raises(NonConvergenceError, match=r"net Z\.1 \(gate g1\)"):
        settle(nl, packed_rails(nl, [(1,), (0,), (1,)]))


# ------------------------------------------------------------ checkers

WEAKER = {2: "TH12", 3: "TH13", 4: "TH14"}


def relaxed(base, rng, count):
    """``base`` with ``count`` gates replaced by the weakest (TH1n) or the
    strongest (THnn) threshold gate of the same arity."""
    swap = {}
    for inst in rng.sample(base.gates, min(count, len(base.gates))):
        arity = len(inst.ins)
        if arity in WEAKER:
            swap[inst.name] = WEAKER[arity] if rng.random() < 0.7 else f"TH{arity}{arity}"
    nl = Netlist([p.name for p in base.inputs], base.outputs)
    for inst in base.gates:
        nl.add(swap.get(inst.name, inst.kind), inst.ins, inst.out, name=inst.name)
    return nl


def relaxed_multiplier(width, seed):
    rng = random.Random(seed)
    return relaxed(build_array_multiplier(width), rng, rng.randint(1, 3))


def assert_checkers_match_oracle(nl, sampled):
    assert check_input_completeness(nl) == reference_input_completeness(nl)
    assert check_observability(nl) == reference_observability(nl)
    for trials, seed in sampled:
        assert (check_input_completeness(nl, trials=trials, seed=seed)
                == reference_input_completeness(nl, trials=trials, seed=seed))
        assert (check_observability(nl, trials=trials, seed=seed)
                == reference_observability(nl, trials=trials, seed=seed))


@pytest.mark.parametrize("seed", [0, 5, 6, 7])
def test_checkers_match_the_per_case_oracle_in_order(seed):
    assert_checkers_match_oracle(relaxed_multiplier(2, seed), ((48, seed), (200, seed + 100)))


def test_relaxed_multipliers_do_produce_violations():
    # the ordered comparison above is vacuous unless there is something to order
    nets = [relaxed_multiplier(2, s) for s in (5, 6, 7)]
    assert [len(check_input_completeness(nl)) for nl in nets] == [45, 2, 4]
    assert [len(check_observability(nl)) for nl in nets] == [7, 0, 0]


def test_sampled_checkers_default_to_seed_0():
    # on this netlist and trial count, seed 1 draws other cases and finds
    # other violations, so a different default would show
    nl, trials = relaxed_multiplier(2, 33), 4
    for check in (check_input_completeness, check_observability):
        assert check(nl, trials=trials) == check(nl, trials=trials, seed=0)
        assert check(nl, trials=trials, seed=1) != check(nl, trials=trials, seed=0)


@settings(max_examples=25, deadline=None)
@given(case=boolean_circuit(), seed=st.integers(0, 2**16), count=st.integers(0, 4))
def test_checkers_match_the_oracle_on_relaxed_random_circuits(case, seed, count):
    bnl, _ = case
    nl = relaxed(expand_dual_rail(bnl), random.Random(seed), count)
    assert_checkers_match_oracle(nl, ((12, seed), (40, seed + 1)))


def assert_no_state_settles_to_null(nl):
    """What the checkers' NULL->DATA sweep starts from: a netlist they accept,
    settled from no state with no rail driven, is 0 on every net."""
    ncl3d.checks._check_preconditions(nl)   # raises unless the checkers accept nl
    assert settle(nl, {}) == dict.fromkeys(nl.nets, 0)


@settings(max_examples=40, deadline=None)
@given(case=boolean_circuit(), seed=st.integers(0, 2**16), count=st.integers(0, 4))
def test_no_state_settles_to_null_on_random_circuits(case, seed, count):
    bnl, _ = case
    nl = expand_dual_rail(bnl)
    assert_no_state_settles_to_null(nl)
    assert_no_state_settles_to_null(relaxed(nl, random.Random(seed), count))


def test_no_state_settles_to_null_on_fixtures_and_multipliers():
    fixtures = sorted(resources.files("ncl3d").joinpath("data/fixtures").iterdir(),
                      key=lambda f: f.name)
    nets = [parse_netlist(f.read_text(encoding="utf-8"))
            for f in fixtures if f.name.endswith(".ncl")]
    nets += [expand_dual_rail(parse_boolean_netlist(f.read_text(encoding="utf-8")))
             for f in fixtures if f.name.endswith(".bnl")]
    assert len(nets) == 5
    for nl in nets + [build_array_multiplier(w) for w in (2, 3, 4)]:
        assert_no_state_settles_to_null(nl)


def test_relaxed_and_violations_in_case_order():
    nl = relaxed_and_template()
    expected = reference_input_completeness(nl)
    assert [(v.direction, v.vector, v.subset) for v in expected] == [
        ("null-to-data", (0, 0), ("A",)),
        ("null-to-data", (0, 0), ("B",)),
        ("null-to-data", (0, 1), ("A",)),
        ("data-to-null", (0, 1), ("A",)),
        ("null-to-data", (1, 0), ("B",)),
        ("data-to-null", (1, 0), ("B",)),
    ]
    assert check_input_completeness(nl) == expected
    for seed in range(4):
        assert (check_input_completeness(nl, trials=16, seed=seed)
                == reference_input_completeness(nl, trials=16, seed=seed))


def test_dead_gate_matches_the_oracle():
    nl = and_template()
    nl.add("TH12", ["A.1", "B.0"], "dead", name="spur")
    nl.add("TH22", ["A.0", "dead"], "dead2", name="spur2")
    assert check_observability(nl) == reference_observability(nl)
    assert [v.gate for v in check_observability(nl)] == ["spur", "spur2"]
    assert (check_observability(nl, trials=5, seed=3)
            == reference_observability(nl, trials=5, seed=3))


def test_zero_trials_sample_nothing():
    nl = and_template()
    assert check_input_completeness(nl, trials=0) == []
    assert check_observability(nl, trials=0) == reference_observability(nl, trials=0)


# ------------------------------------------------------------ lane packing

# Lane budgets: below one block (one case per settle), three 16-lane blocks
# (the width-2 multiplier's 14 subsets and 16 gates leave a partial last
# chunk), and the default.
BUDGETS = (1, 50, ncl3d.checks.LANE_BUDGET)


def test_every_lane_budget_matches_the_oracle_in_order(monkeypatch):
    for nl in [relaxed_multiplier(2, seed) for seed in (5, 7)] + [relaxed_and_template()]:
        for trials, seed in ((None, 0), (48, 5), (0, 0), (1, 3)):
            want = (reference_input_completeness(nl, trials, seed),
                    reference_observability(nl, trials, seed))
            for budget in BUDGETS:
                monkeypatch.setattr(ncl3d.checks, "LANE_BUDGET", budget)
                assert (check_input_completeness(nl, trials, seed),
                        check_observability(nl, trials, seed)) == want, (budget, trials)


def counted_settles(monkeypatch):
    """Patch the settle the checkers call to log each call; return the log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("frozen"))
        return settle(*args, **kwargs)

    monkeypatch.setattr(ncl3d.checks, "settle", counted)
    return calls


def test_each_sweep_settles_once_per_direction_and_chunk(monkeypatch):
    calls = counted_settles(monkeypatch)
    nl = build_array_multiplier(3)      # 6 ports, 64 vectors, 62 subsets, 60 gates
    assert check_input_completeness(nl) == [] and len(calls) == 3     # 125 at two per subset
    calls.clear()
    assert check_observability(nl) == [] and len(calls) == 2          # 61 at one per gate
    assert len(calls[-1]) == 60         # the last settle holds every gate stuck
    monkeypatch.setattr(ncl3d.checks, "LANE_BUDGET", 50)
    calls.clear()
    check_input_completeness(relaxed_multiplier(2, 5))
    assert len(calls) == 1 + 2 * 5      # 14 subsets in chunks of 3
    calls.clear()
    check_observability(relaxed_multiplier(2, 5))
    assert len(calls) == 1 + 6          # 16 gates in chunks of 3


def test_input_completeness_sweep_memory_is_bounded():
    nl = build_array_multiplier(4)      # 256 vectors x 254 subsets = 65,024 lanes
    tracemalloc.start()
    try:
        assert check_input_completeness(nl) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
