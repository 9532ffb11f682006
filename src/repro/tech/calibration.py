"""Technology calibration: one characterized model, many operating points.

The paper fits its 21 energy coefficients at one *implicit* operating
point — the process node, supply voltage and clock frequency of the
characterized core.  This module makes that point explicit and opens it
into a family: an :class:`OperatingPoint` names a ``(node_nm, voltage,
frequency_mhz)`` triple, and a :class:`TechCalibration` maps any such
triple to an **energy scale factor** against the calibration's reference
point via the first-order CMOS dynamic-energy law

    E(op) / E(ref)  =  C(node) / C(node_ref) * (V / V_ref)^2

where ``C(node)`` is the per-node switched-capacitance scale read from a
committed table (``tech_calib.json``) by piecewise-linear interpolation
over the process node.  Frequency never enters the per-operation energy
(to first order CMOS dynamic energy per switched event is
frequency-independent); it converts cycle counts into **seconds**, which
is what turns the cycle-based EDP into a real energy-delay product and
enables real-time objectives.

The table is data, not code: rows carry the capacitance scale, a leakage
scale (reserved for static-power overlays), the node's nominal supply
and its nominal-voltage peak clock.  Between rows every column
interpolates linearly in ``node_nm``; outside the table's node range the
calibration refuses to extrapolate (:class:`CalibrationError`), because
the scaling law itself stops being first-order credible there.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import threading
from typing import Optional, Sequence

#: Format tag of the committed calibration table.
CALIB_FORMAT = "repro-tech-calib/1"

#: Relative supply-voltage window accepted around a node's nominal
#: voltage (overdrive above, near-threshold scaling below).
MIN_VOLTAGE_RATIO = 0.5
MAX_VOLTAGE_RATIO = 1.5


class CalibrationError(ValueError):
    """An operating point or table the calibration cannot honor."""


_POINT_RE = re.compile(
    r"^\s*(?P<node>\d+(?:\.\d+)?)\s*nm\s*@\s*(?P<voltage>\d+(?:\.\d+)?)\s*V"
    r"\s*@\s*(?P<frequency>\d+(?:\.\d+)?)\s*MHz\s*$",
    re.IGNORECASE,
)


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """One deployment scenario: process node, supply voltage, clock."""

    node_nm: float
    voltage: float
    frequency_mhz: float

    def __post_init__(self) -> None:
        for field in ("node_nm", "voltage", "frequency_mhz"):
            value = getattr(self, field)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise CalibrationError(
                    f"operating point {field} must be a number, got {value!r}"
                ) from None
            if not value > 0:
                raise CalibrationError(
                    f"operating point {field} must be positive, got {value!r}"
                )
            object.__setattr__(self, field, value)

    @property
    def key(self) -> str:
        """Canonical string form, e.g. ``"65nm@1.1V@800MHz"``.

        ``%g`` round-trips every realistic value and keeps the key free
        of trailing zeros, so equal points always spell equally — the
        property knob values, cache keys and metrics labels rely on.
        """
        return f"{self.node_nm:g}nm@{self.voltage:g}V@{self.frequency_mhz:g}MHz"

    @property
    def frequency_hz(self) -> float:
        return self.frequency_mhz * 1e6

    def seconds(self, cycles: float) -> float:
        """Wall-clock time of a cycle count at this clock."""
        return cycles / self.frequency_hz

    @classmethod
    def parse(cls, text: "str | OperatingPoint") -> "OperatingPoint":
        """Parse the canonical ``<node>nm@<voltage>V@<frequency>MHz`` form."""
        if isinstance(text, OperatingPoint):
            return text
        if not isinstance(text, str):
            raise CalibrationError(
                f"operating point must be a string like '65nm@1.1V@800MHz', "
                f"got {text!r}"
            )
        match = _POINT_RE.match(text)
        if match is None:
            raise CalibrationError(
                f"cannot parse operating point {text!r} "
                "(expected '<node>nm@<voltage>V@<frequency>MHz', "
                "e.g. '65nm@1.1V@800MHz')"
            )
        return cls(
            node_nm=float(match.group("node")),
            voltage=float(match.group("voltage")),
            frequency_mhz=float(match.group("frequency")),
        )

    def to_payload(self) -> dict:
        return {
            "node_nm": self.node_nm,
            "voltage": self.voltage,
            "frequency_mhz": self.frequency_mhz,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "OperatingPoint":
        """Build from a JSON payload, tolerating unknown extra fields."""
        if not isinstance(payload, dict):
            raise CalibrationError(
                f"operating point payload must be an object, got {payload!r}"
            )
        try:
            return cls(
                node_nm=payload["node_nm"],
                voltage=payload["voltage"],
                frequency_mhz=payload["frequency_mhz"],
            )
        except KeyError as exc:
            raise CalibrationError(
                f"operating point payload is missing field {exc.args[0]!r}"
            ) from exc


@dataclasses.dataclass(frozen=True)
class TechNode:
    """One committed row of the technology table."""

    node_nm: float
    capacitance_scale: float
    leakage_scale: float
    nominal_voltage: float
    max_frequency_mhz: float

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = float(getattr(self, field.name))
            if not value > 0:
                raise CalibrationError(
                    f"technology node field {field.name} must be positive, "
                    f"got {value!r}"
                )
            object.__setattr__(self, field.name, value)


class TechCalibration:
    """Piecewise-linear interpolation over a committed technology table."""

    def __init__(
        self,
        nodes: Sequence[TechNode],
        reference: OperatingPoint,
        description: str = "",
    ) -> None:
        if len(nodes) < 2:
            raise CalibrationError(
                f"a calibration table needs at least two nodes, got {len(nodes)}"
            )
        ordered = sorted(nodes, key=lambda n: n.node_nm)
        if len({n.node_nm for n in ordered}) != len(ordered):
            raise CalibrationError("calibration table has duplicate node rows")
        self.nodes: tuple[TechNode, ...] = tuple(ordered)
        self.description = description
        self.reference = reference
        # The reference must itself be a valid point of the table.
        self.validate(reference)
        self._reference_numerator = self._dynamic_numerator(reference)

    # -- interpolation ------------------------------------------------------

    @property
    def node_range_nm(self) -> tuple[float, float]:
        return (self.nodes[0].node_nm, self.nodes[-1].node_nm)

    def _interpolate(self, node_nm: float, column: str) -> float:
        lo, hi = self.node_range_nm
        if not lo <= node_nm <= hi:
            raise CalibrationError(
                f"process node {node_nm:g} nm is outside the calibrated "
                f"range [{lo:g}, {hi:g}] nm; refusing to extrapolate"
            )
        for left, right in zip(self.nodes, self.nodes[1:]):
            if left.node_nm <= node_nm <= right.node_nm:
                span = right.node_nm - left.node_nm
                fraction = (node_nm - left.node_nm) / span
                a = getattr(left, column)
                b = getattr(right, column)
                return a + fraction * (b - a)
        raise AssertionError("unreachable: node inside range matched no segment")

    def capacitance_scale(self, node_nm: float) -> float:
        return self._interpolate(node_nm, "capacitance_scale")

    def leakage_scale(self, node_nm: float) -> float:
        return self._interpolate(node_nm, "leakage_scale")

    def nominal_voltage(self, node_nm: float) -> float:
        return self._interpolate(node_nm, "nominal_voltage")

    def max_frequency_mhz(
        self, node_nm: float, voltage: Optional[float] = None
    ) -> float:
        """Peak clock at a node, derated linearly with supply (DVFS)."""
        nominal = self._interpolate(node_nm, "max_frequency_mhz")
        if voltage is None:
            return nominal
        return nominal * (voltage / self.nominal_voltage(node_nm))

    # -- operating-point validation and scaling -----------------------------

    def validate(self, point: "OperatingPoint | str") -> OperatingPoint:
        """Check a point against the table; returns the parsed point."""
        op = OperatingPoint.parse(point)
        nominal = self.nominal_voltage(op.node_nm)  # raises on node range
        lo, hi = MIN_VOLTAGE_RATIO * nominal, MAX_VOLTAGE_RATIO * nominal
        if not lo <= op.voltage <= hi:
            raise CalibrationError(
                f"supply {op.voltage:g} V is outside [{lo:g}, {hi:g}] V "
                f"({MIN_VOLTAGE_RATIO:g}-{MAX_VOLTAGE_RATIO:g}x the "
                f"{nominal:g} V nominal at {op.node_nm:g} nm)"
            )
        fmax = self.max_frequency_mhz(op.node_nm, op.voltage)
        if op.frequency_mhz > fmax * (1 + 1e-9):
            raise CalibrationError(
                f"clock {op.frequency_mhz:g} MHz exceeds the {fmax:g} MHz "
                f"DVFS ceiling at {op.node_nm:g} nm / {op.voltage:g} V"
            )
        return op

    def _dynamic_numerator(self, op: OperatingPoint) -> float:
        return self.capacitance_scale(op.node_nm) * op.voltage**2

    def energy_scale(self, point: "OperatingPoint | str") -> float:
        """Per-operation dynamic-energy factor relative to the reference.

        ``energy_scale(reference) == 1.0`` by construction; frequency does
        not appear (dynamic energy per switched event is rate-independent
        to first order — the clock only converts cycles into seconds).
        """
        op = self.validate(point)
        return self._dynamic_numerator(op) / self._reference_numerator

    def relative_scale(
        self, point: "OperatingPoint | str", base: "OperatingPoint | str"
    ) -> float:
        """Energy factor of ``point`` relative to another valid point."""
        return self.energy_scale(point) / self.energy_scale(base)

    # -- (de)serialization --------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": CALIB_FORMAT,
            "description": self.description,
            "reference": self.reference.to_payload(),
            "nodes": [dataclasses.asdict(node) for node in self.nodes],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TechCalibration":
        if not isinstance(payload, dict) or payload.get("format") != CALIB_FORMAT:
            raise CalibrationError(
                f"unrecognized calibration format "
                f"{payload.get('format') if isinstance(payload, dict) else payload!r}"
            )
        try:
            known = {field.name for field in dataclasses.fields(TechNode)}
            nodes = [
                TechNode(**{k: v for k, v in row.items() if k in known})
                for row in payload["nodes"]
            ]
            reference = OperatingPoint.from_payload(payload["reference"])
        except (KeyError, TypeError) as exc:
            raise CalibrationError(f"malformed calibration table: {exc}") from exc
        return cls(
            nodes=nodes,
            reference=reference,
            description=str(payload.get("description", "")),
        )

    @classmethod
    def load(cls, path: str) -> "TechCalibration":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CalibrationError(
                    f"calibration table {path!r} is not valid JSON: {exc}"
                ) from exc
        return cls.from_payload(payload)


#: Path of the committed default table (shipped inside the package).
DEFAULT_CALIB_PATH = pathlib.Path(__file__).with_name("tech_calib.json")

#: Three bundled DVFS scenarios (one per mainstream node, nominal supply,
#: peak clock) — the default axis of the ``*_dvfs`` search spaces.
DEFAULT_DVFS_POINTS: tuple[str, ...] = (
    "130nm@1.5V@400MHz",
    "90nm@1.2V@600MHz",
    "65nm@1.1V@800MHz",
)

_DEFAULT_LOCK = threading.Lock()
_DEFAULT: Optional[TechCalibration] = None


def default_calibration() -> TechCalibration:
    """The committed calibration table, loaded once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = TechCalibration.load(str(DEFAULT_CALIB_PATH))
    return _DEFAULT


def reference_operating_point() -> OperatingPoint:
    """The fit point models without an explicit one are assumed to be at."""
    return default_calibration().reference
