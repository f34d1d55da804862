"""Gate-level unit tests.

The hysteresis oracle here is written independently of the package: gates
are stepped as explicit state machines driven by plain Boolean lambdas (or
weighted-sum closures), and the package's next_output must agree over
exhaustive short input sequences.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl3d.gates import (
    DEFAULT_CATALOG,
    STUDY_GATES,
    GateError,
    GateSpec,
    canonical_sop,
    eval_set,
    next_output,
    parse_th_name,
    spec_from_name,
    threshold_products,
    transistor_counts,
)


class RefGate:
    """Independent hysteresis reference: set wins, all-zero clears, else hold."""

    def __init__(self, fn, arity):
        self.fn = fn
        self.arity = arity
        self.out = 0

    def step(self, inputs):
        if self.fn(*inputs):
            self.out = 1
        elif not any(inputs):
            self.out = 0
        return self.out


def weighted(weights, threshold):
    return lambda *ins: sum(w * v for w, v in zip(weights, ins)) >= threshold

# Set functions of the irregular catalog gates, typed out by hand.
REF_FNS = {
    "TH24comp": lambda a, b, c, d: (a or b) and (c or d),
    "THand0": lambda a, b, c, d: (a and b) or (b and c) or (a and d),
}


def ref_fn(spec):
    """The oracle's set function, from the gate's name alone."""
    if spec.name in REF_FNS:
        return REF_FNS[spec.name]
    threshold, _, weights = parse_th_name(spec.name)
    return weighted(weights, threshold)


@pytest.mark.parametrize("spec", list(DEFAULT_CATALOG.values()), ids=lambda s: s.name)
def test_hysteresis_matches_reference_over_all_short_sequences(spec):
    ref = RefGate(ref_fn(spec), spec.arity)
    vectors = list(itertools.product((0, 1), repeat=spec.arity))
    for seq in itertools.product(vectors, repeat=3):
        ref.out = 0
        out = 0
        for vec in seq:
            out = next_output(spec, vec, out)
            assert out == ref.step(vec), f"{spec.name} diverged on {seq}"


@pytest.mark.parametrize("spec", list(DEFAULT_CATALOG.values()), ids=lambda s: s.name)
def test_eval_set_matches_reference_truth_table(spec):
    fn = ref_fn(spec)
    for vec in itertools.product((0, 1), repeat=spec.arity):
        assert eval_set(spec, vec) == int(bool(fn(*vec)))


def test_study_gate_set_functions_are_the_expected_minimal_sops():
    expect = {
        "TH22": "ab",
        "TH24": "ab + ac + ad + bc + bd + cd",
        "TH34": "abc + abd + acd + bcd",
        "TH24comp": "ac + ad + bc + bd",
        "THand0": "ab + ad + bc",
        "TH54w322": "ab + ac + bcd",
    }
    for name in STUDY_GATES:
        assert DEFAULT_CATALOG[name].describe() == expect[name]


def test_catalog_transistor_counts_are_frozen():
    expect = {
        "TH12": (3, 3),
        "TH13": (4, 4),
        "TH22": (6, 6),
        "TH23": (10, 10),
        "TH33": (8, 8),
        "TH44": (10, 10),
        "TH24": (13, 13),
        "TH34": (13, 11),
        "TH34w2": (13, 13),
        "TH54w322": (11, 10),
        "TH24comp": (9, 9),
        "THand0": (10, 10),
    }
    for name, counts in expect.items():
        assert transistor_counts(DEFAULT_CATALOG[name]) == counts


def test_uncounted_spec_falls_back_to_literal_estimate():
    spec = GateSpec("X22", 2, canonical_sop([(0, 1)], 2))
    # 2 literals -> 2*2 + 6 = 10 devices, split evenly
    assert transistor_counts(spec) == (5, 5)


def test_canonical_sop_absorbs_and_sorts():
    assert canonical_sop([(1, 0), (0,), (2, 1)], 3) == ((0,), (1, 2))
    assert canonical_sop([(3, 1), (1, 3), (0, 2)], 4) == ((0, 2), (1, 3))
    with pytest.raises(GateError):
        canonical_sop([()], 2)
    with pytest.raises(GateError):
        canonical_sop([(0, 5)], 4)


def test_threshold_products_examples():
    assert threshold_products((1, 1, 1), 2) == ((0, 1), (0, 2), (1, 2))
    assert threshold_products((3, 2, 2, 1), 5) == ((0, 1), (0, 2), (1, 2, 3))
    assert threshold_products((2, 1, 1, 1), 3) == ((0, 1), (0, 2), (0, 3), (1, 2, 3))
    with pytest.raises(GateError):
        threshold_products((1, 1), 3)


def test_th_name_grammar():
    assert parse_th_name("TH23") == (2, 3, (1, 1, 1))
    assert parse_th_name("TH54w322") == (5, 4, (3, 2, 2, 1))
    assert parse_th_name("TH34W2") == (3, 4, (2, 1, 1, 1))
    for bad in ("TH", "TH2", "TH05", "TH54", "TH22w3",
                "TH22w222", "TH20", "XYZ", "th22", "TH24comp"):
        with pytest.raises(GateError):
            parse_th_name(bad)
    # the arity range is GateSpec's rule, reached through the name lookup
    for bad in ("TH25", "TH99"):
        with pytest.raises(GateError, match=rf"^{bad}: arity \d outside \[1, 4\]$"):
            spec_from_name(bad)


def test_spec_from_name_prefers_catalog_then_grammar():
    assert spec_from_name("TH24comp") is DEFAULT_CATALOG["TH24comp"]
    assert spec_from_name("TH22").pmos == 6
    ad_hoc = spec_from_name("TH33w22")
    assert ad_hoc.describe() == "ab + ac + bc"
    assert ad_hoc.pmos is None
    with pytest.raises(GateError):
        spec_from_name("THabc")


def test_spec_validation_rejects_inconsistent_fields():
    with pytest.raises(GateError):
        GateSpec("BAD", 2, ((1, 0),))  # indices unsorted, so not canonical
    with pytest.raises(GateError):
        GateSpec("BAD", 2, canonical_sop([(0,)], 2), pmos=0, nmos=2)
    with pytest.raises(GateError):
        GateSpec("BAD", 5, canonical_sop([(0,)], 5))


def test_evaluation_needs_one_value_per_input():
    th22 = spec_from_name("TH22")
    for inputs in ((1,), (1, 1, 0)):
        message = rf"^TH22 expects 2 inputs, got {len(inputs)}$"
        with pytest.raises(GateError, match=message):
            eval_set(th22, inputs)
        with pytest.raises(GateError, match=message):
            next_output(th22, inputs, 0)


@st.composite
def monotone_ramp(draw):
    """A vector sequence that only ever asserts more inputs (NULL to DATA)."""
    arity = draw(st.integers(1, 4))
    final = draw(st.lists(st.integers(0, 1), min_size=arity, max_size=arity))
    steps = draw(st.integers(1, 5))
    order = draw(st.permutations(range(arity)))
    seq = []
    current = [0] * arity
    for i in order:
        if final[i]:
            current[i] = 1
            seq.append(tuple(current))
    return arity, seq or [tuple(current)] * steps


@settings(max_examples=200, deadline=None)
@given(monotone_ramp(), st.sampled_from(list(DEFAULT_CATALOG)))
def test_output_is_monotone_under_monotone_input_ramp(ramp, name):
    spec = DEFAULT_CATALOG[name]
    arity, seq = ramp
    out = 0
    prev = 0
    for vec in seq:
        vec = (vec + (0,) * 4)[: spec.arity]
        out = next_output(spec, vec, out)
        assert out >= prev, "output fell during an asserting ramp"
        prev = out


@st.composite
def random_sop(draw):
    """(arity, raw products): a positive-unate set function, not yet canonical."""
    arity = draw(st.integers(1, 4))
    raw = draw(st.lists(st.sets(st.integers(0, arity - 1), min_size=1),
                        min_size=1, max_size=6))
    return arity, [sorted(p) for p in raw]


def sop_set(raw, bits):
    """Direct sum-of-products evaluation."""
    return int(any(all(bits[i] for i in prod) for prod in raw))


def sop_step(raw, bits, prev):
    """The hysteresis rule on top of sop_set."""
    if sop_set(raw, bits):
        return 1
    return 0 if not any(bits) else prev


@settings(max_examples=150, deadline=None)
@given(random_sop())
def test_truth_table_matches_direct_sop_evaluation(case):
    arity, raw = case
    spec = GateSpec("TX", arity, canonical_sop(raw, arity))
    assert len(spec.table) == 1 << arity
    for mask in range(1 << arity):
        bits = [mask >> i & 1 for i in range(arity)]
        for prev in (0, 1):
            want = sop_step(raw, bits, prev)
            entry = spec.table[mask]
            assert (prev if entry < 0 else entry) == want
            assert next_output(spec, bits, prev) == want
        assert eval_set(spec, bits) == sop_set(raw, bits)


def test_truth_table_is_not_a_field():
    spec = spec_from_name("TH23")
    twin = GateSpec(spec.name, spec.arity, spec.products, spec.pmos, spec.nmos)
    assert spec.table == twin.table
    assert spec == twin and hash(spec) == hash(twin)
    assert "table" not in repr(spec)
    assert GateSpec._fields == ("name", "arity", "products", "pmos", "nmos")
