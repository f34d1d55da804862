"""Threshold gates with hysteresis, the primitives of NULL Convention Logic.

A threshold gate asserts its output when its set condition is satisfied,
deasserts it only after every input has deasserted, and holds its previous
value in between. The set condition is a positive-unate Boolean function,
stored canonically as a minimal sorted sum of products over input indices,
so two specs that compute the same function compare equal. One evaluator,
:func:`eval_sop`, runs that rule on 0/1 or lane-int values: ``settle`` on
net values, and each spec once over its input masks packed as lanes, to
build the truth table that next_output and simulate read.

Regular gates follow the THmn naming scheme: n inputs, output asserted once
m of them are asserted. A trailing ``w`` section gives integer weights to
the leading inputs, e.g. ``TH54w322`` weighs inputs a, b, c as 3, 2, 2 and
fires when the weighted sum reaches 5. Gates whose set function is not a
pure weighted threshold (TH24comp, THand0) exist only as catalog entries.
"""
from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

Product = Tuple[int, ...]
Products = Tuple[Product, ...]

INPUT_LETTERS = "abcd"


class GateError(ValueError):
    """Malformed gate name, spec, or evaluation request."""


def canonical_sop(products: Iterable[Iterable[int]], arity: int) -> Products:
    """Normalize a sum of products: sorted indices, absorption, sorted list.

    Absorption drops any product that is a superset of another, which makes
    the representation minimal for the positive-unate functions used here.
    """
    seen = set()
    for raw in products:
        prod = tuple(sorted(set(int(i) for i in raw)))
        if not prod:
            raise GateError("empty product in set function")
        if any(i < 0 or i >= arity for i in prod):
            raise GateError(f"product {prod} references inputs beyond arity {arity}")
        seen.add(prod)
    kept = []
    for prod in seen:
        pset = set(prod)
        if any(set(other) < pset for other in seen if other != prod):
            continue
        kept.append(prod)
    if not kept:
        raise GateError("set function has no products")
    return tuple(sorted(kept))


def eval_sop(products: Iterable[Iterable[int]], values: Sequence[int]) -> int:
    """OR over products of the AND of their inputs, on every lane (bit) of
    ``values``; canonical products are never empty, so all-0 inputs give 0."""
    fired = 0
    for prod in products:
        term = -1
        for i in prod:
            term &= values[i]
        fired |= term
    return fired


def threshold_products(weights: Sequence[int], threshold: int) -> Products:
    """Minimal input subsets whose weighted sum reaches the threshold, which
    parse_th_name keeps within [1, sum(weights)]."""
    n = len(weights)
    hits = []
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            if sum(weights[i] for i in combo) >= threshold:
                hits.append(combo)
    return canonical_sop(hits, n)


class _GateFields(NamedTuple):
    name: str
    arity: int
    products: Products
    pmos: Optional[int] = None
    nmos: Optional[int] = None


class GateSpec(_GateFields):
    """One gate type: set function plus transistor-level bookkeeping.

    ``pmos``/``nmos`` are None for ad hoc gates, in which case
    :func:`transistor_counts` falls back to a documented estimate.
    Construction validates the fields; ``_replace`` and ``_make`` would
    skip that, so nothing calls them.
    No ``__slots__``: the cached ``table`` lives in the instance dict.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 1 <= self.arity <= 4:
            raise GateError(f"{self.name}: arity {self.arity} outside [1, 4]")
        if self.products != canonical_sop(self.products, self.arity):
            raise GateError(f"{self.name}: set function is not canonical")
        for count in (self.pmos, self.nmos):
            if count is not None and count < 1:
                raise GateError(f"{self.name}: transistor counts must be >= 1")
        return self

    @cached_property
    def table(self) -> Tuple[int, ...]:
        """Next output for each input mask (bit i is input i).

        1 where the set function holds, 0 at mask 0 (every input low, so the
        gate resets) and -1 elsewhere (the gate holds its output).  One
        eval_sop, masks as lanes; not a field, so ==, hash and repr ignore it.
        """
        masks = range(1 << self.arity)
        pins = [sum(1 << m for m in masks if m >> i & 1) for i in range(self.arity)]
        fired = eval_sop(self.products, pins)
        return tuple(1 if fired >> m & 1 else 0 if m == 0 else -1 for m in masks)

    @property
    def max_stack(self) -> int:
        """Longest series chain in the set network, in devices."""
        return max(len(p) for p in self.products)

    def describe(self) -> str:
        """Set function in a + bc form with letter-named inputs."""
        return " + ".join(
            "".join(INPUT_LETTERS[i] for i in prod) for prod in self.products
        )


def _table_entry(spec: GateSpec, inputs: Sequence[int]) -> int:
    if len(inputs) != spec.arity:
        raise GateError(
            f"{spec.name} expects {spec.arity} inputs, got {len(inputs)}"
        )
    return spec.table[sum(1 << i for i, v in enumerate(inputs) if v)]


def eval_set(spec: GateSpec, inputs: Sequence[int]) -> int:
    """Evaluate the set condition (no hysteresis) on 0/1 inputs."""
    return int(_table_entry(spec, inputs) == 1)


def next_output(spec: GateSpec, inputs: Sequence[int], prev: int) -> int:
    """One hysteresis step: set wins, all-deasserted resets, else hold."""
    nxt = _table_entry(spec, inputs)
    return prev if nxt < 0 else nxt


def transistor_counts(spec: GateSpec) -> Tuple[int, int]:
    """(pmos, nmos) device counts.

    Catalog entries carry explicit counts. Anything else gets the coarse
    structural estimate 2 * literals + 4 hold/feedback + 2 output devices,
    split evenly. The estimate is approximate by design and is never used
    for the studied gate set.
    """
    if spec.pmos is not None and spec.nmos is not None:
        return spec.pmos, spec.nmos
    literals = sum(len(p) for p in spec.products)
    total = 2 * literals + 6
    return total // 2, total - total // 2


_TH_NAME = re.compile(r"^TH([1-9])([1-9])(?:[wW]([0-9]+))?$")


def parse_th_name(name: str) -> Tuple[int, int, Tuple[int, ...]]:
    """Split a THmn / THmnw... name into (threshold, arity, weights); the
    arity range is GateSpec's to check."""
    m = _TH_NAME.match(name)
    if m is None:
        raise GateError(f"malformed threshold gate name {name!r}")
    threshold, arity = int(m.group(1)), int(m.group(2))
    digits = m.group(3) or ""
    if len(digits) > arity:
        raise GateError(f"{name}: more weights than inputs")
    lead = tuple(int(c) for c in digits)
    if any(not 2 <= w <= threshold for w in lead):
        raise GateError(f"{name}: weights must lie in [2, {threshold}]")
    weights = lead + (1,) * (arity - len(lead))
    if threshold > sum(weights):
        raise GateError(
            f"{name}: threshold {threshold} exceeds total weight {sum(weights)}"
        )
    return threshold, arity, weights


def _th_spec(name: str, pmos: Optional[int] = None, nmos: Optional[int] = None) -> GateSpec:
    threshold, arity, weights = parse_th_name(name)
    return GateSpec(
        name=name,
        arity=arity,
        products=threshold_products(weights, threshold),
        pmos=pmos,
        nmos=nmos,
    )


# Device counts for the six-gate study set follow the bundled reference
# data; the remaining entries carry static-template estimates.
DEFAULT_CATALOG = {spec.name: spec for spec in (
    _th_spec("TH12", 3, 3),
    _th_spec("TH13", 4, 4),
    _th_spec("TH22", 6, 6),
    _th_spec("TH23", 10, 10),
    _th_spec("TH33", 8, 8),
    _th_spec("TH44", 10, 10),
    _th_spec("TH24", 13, 13),
    _th_spec("TH34", 13, 11),
    _th_spec("TH34w2", 13, 13),
    _th_spec("TH54w322", 11, 10),
    GateSpec("TH24comp", 4, canonical_sop([(0, 2), (0, 3), (1, 2), (1, 3)], 4), 9, 9),
    GateSpec("THand0", 4, canonical_sop([(0, 1), (1, 2), (0, 3)], 4), 10, 10),
)}

# The subset characterized by the bundled 2D/M3D reference measurements.
STUDY_GATES = ("TH22", "TH24", "TH34", "TH54w322", "THand0", "TH24comp")


def spec_from_name(name: str) -> GateSpec:
    """Resolve a gate name: catalog entry first, THmn grammar otherwise."""
    if name in DEFAULT_CATALOG:
        return DEFAULT_CATALOG[name]
    return _th_spec(name)
