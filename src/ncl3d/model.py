"""The technology and calibration records of the RC model, and their files.

Both files are version-1 JSON documents with one codec and one validator,
``_Model``.  This module imports no other ncl3d module, so a command that
only reads or writes a model file compiles none of the pricing in
:mod:`ncl3d.ppa`, whose units the fields use.
"""
import json
import math
from functools import lru_cache
from importlib import resources
from typing import Dict, Mapping, NamedTuple

try:
    # the interpreter's own SHA-256: hashlib would load OpenSSL, about 3 MB
    # of start-up memory (random.py imports _sha512 the same way)
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


class PpaError(ValueError):
    """Bad mode, fold ratio, model file, or estimation request."""


def _finite(value) -> bool:
    """True for a finite real; an int too large for a float, or a value
    that is no number at all, is not."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _bundled(name: str) -> str:
    """The text of the package data file ``data/<name>``."""
    return resources.files("ncl3d").joinpath(f"data/{name}").read_text("utf-8")


class _Model:
    """The one codec and the one validator of both model files: a version-1
    JSON document ``{"version": 1, KEY: {field: value, ...}}``.  Mixed in
    before a NamedTuple of fields, so that its constructor checks them.

    Every scalar, and every value of a ``MAPS`` field, must be finite and
    positive; a ``ZERO_OK`` field may be zero and a ``SIGNED`` one of either
    sign.  An omitted ``MAPS`` field is a fresh ``{}``.  Nothing calls
    ``_replace``, which would skip the check.
    """

    __slots__ = ()
    MAPS = ZERO_OK = SIGNED = ()

    def __new__(cls, *args, **kwargs):
        for name in cls._fields[len(args):]:
            if name in cls.MAPS:
                kwargs.setdefault(name, {})
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            items = [(name, value)]
            if name in cls.MAPS:
                if not isinstance(value, Mapping):
                    raise cls._error(name, "a mapping", value)
                items = [(f"{name}[{kind}]", v) for kind, v in value.items()]
            for label, v in items:
                if not _finite(v):
                    raise cls._error(label, "finite", v)
                if name in cls.ZERO_OK and v < 0:
                    raise cls._error(label, "non-negative", v)
                if v <= 0 and name not in cls.ZERO_OK + cls.SIGNED:
                    raise cls._error(label, "positive", v)
        return self

    @classmethod
    def _error(cls, label: str, rule: str, value) -> PpaError:
        return PpaError(f"{cls.KEY} field {label} must be {rule}, got {value!r}")

    def to_dict(self) -> Dict[str, object]:
        return {name: dict(v) if isinstance(v, Mapping) else v
                for name, v in zip(self._fields, self)}

    def digest(self) -> str:
        return sha256(json.dumps(self.to_dict(), sort_keys=True,
                                 separators=(",", ":")).encode("utf-8")).hexdigest()

    def dump(self) -> str:
        return json.dumps({"version": 1, self.KEY: self.to_dict()},
                          indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dump())

    @classmethod
    def parse(cls, text: str):
        """The model built from the ``KEY`` object of a version-1 document."""
        try:
            doc = json.loads(text)
            body = dict(doc[cls.KEY])
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON too
            raise PpaError(f"{cls.KEY} document is malformed: {exc}") from exc
        if doc.get("version") != 1:
            raise PpaError(f"unsupported {cls.KEY} document version")
        unknown = sorted(set(body) - set(cls._fields))
        if unknown:
            raise PpaError(f"unknown {cls.KEY} fields: {unknown}")
        try:
            return cls(**body)
        except TypeError as exc:  # a missing field
            raise PpaError(f"{cls.KEY} document is malformed: {exc}") from exc

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())


# --------------------------------------------------------------- technology

class _TechFields(NamedTuple):
    L_G: float = 50.0          # drawn gate length, nm
    l_src: float = 50.0        # source/drain extension, nm
    w_src: float = 90.0        # source/drain width, nm
    t_ILD: float = 120.0       # inter-layer dielectric, nm
    t_miv: float = 50.0        # inter-tier via height, nm
    w_M1: float = 65.0         # metal-1 width, nm
    pitch_M1: float = 130.0    # metal-1 pitch, nm
    w_gate: float = 50.0       # transistor gate width, nm
    R_int_sq: float = 0.38     # metal sheet resistance, Ohm/sq
    R_via: float = 6.0         # stacked-contact resistance, Ohm
    C_int: float = 179.93      # wire capacitance, fF/mm
    R_MIV: float = 5.5         # inter-tier via resistance, Ohm
    C_MIV: float = 0.04        # inter-tier via capacitance, fF
    koz: float = 50.0          # via keep-out, nm
    cell_tracks: int = 14      # cell height in M1 tracks
    V_DD: float = 1.1          # supply, V
    C_load: float = 1.0        # default output pin load, fF


class TechParams(_Model, _TechFields):
    """Process constants. Defaults describe the 50 nm study node; the via
    fields may be zero, to model the degenerate fold."""

    __slots__ = ()
    KEY = "tech"
    ZERO_OK = ("R_MIV", "C_MIV", "koz")

    @property
    def cell_height(self) -> float:
        """Routable cell span in nm, the base length for wire classes."""
        return self.cell_tracks * self.pitch_M1

    def replaced(self, **kw) -> "TechParams":
        return TechParams(**{**self._asdict(), **kw})


load_tech, save_tech = TechParams.load, TechParams.save


@lru_cache(maxsize=1)
def default_tech() -> TechParams:
    return TechParams.parse(_bundled("default_tech.json"))


# -------------------------------------------------------------- calibration

class _CalibrationFields(NamedTuple):
    a_unit: float                      # um^2 per transistor
    a_miv_eff: float                   # um^2 per inter-tier via
    c_dev: float                       # fF per device of series stack
    k_skew: float                      # skew as a fraction of delay
    route_fraction: float              # fitted average net span, cell spans
    net_route_factor: float            # circuit fanout segment span, cell spans
    test_rate_mhz: float               # cycle rate behind the power figures
    p_leak_per_t: float                # uW of leak per transistor
    r_drive: Mapping[str, float]       # Ohm
    activity_mhz: Mapping[str, float]  # MHz
    residuals: Mapping[str, float]


class Calibration(_Model, _CalibrationFields):
    """Fitted model coefficients.

    ``r_drive`` and ``activity_mhz`` are per-type maps; unknown types fall
    back to the map average.  ``a_miv_eff`` may be zeroed to model vias as
    free, like the zeroable via tech fields; ``residuals`` record the fit's
    misses, so they may take either sign.
    """

    __slots__ = ()
    KEY = "calibration"
    MAPS = ("r_drive", "activity_mhz", "residuals")
    ZERO_OK, SIGNED = ("a_miv_eff",), ("residuals",)

    def r_drive_for(self, kind: str) -> float:
        return _per_type(self.r_drive, kind, "drive resistances")

    def activity_for(self, kind: str) -> float:
        return _per_type(self.activity_mhz, kind, "activity figures")


def _per_type(table: Mapping[str, float], kind: str, noun: str) -> float:
    """``table[kind]``, or the average over the table for an unlisted type."""
    if kind in table:
        return table[kind]
    if not table:
        raise PpaError(f"calibration carries no {noun}")
    return sum(table.values()) / len(table)


load_calibration, save_calibration = Calibration.load, Calibration.save


@lru_cache(maxsize=1)
def default_calibration() -> Calibration:
    return Calibration.parse(_bundled("default_calibration.json"))
