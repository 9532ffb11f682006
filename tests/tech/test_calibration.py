"""Technology calibration: operating points, interpolation, scaling."""

import pytest

from repro.tech import (
    CALIB_FORMAT,
    DEFAULT_CALIB_PATH,
    DEFAULT_DVFS_POINTS,
    CalibrationError,
    OperatingPoint,
    TechCalibration,
    TechNode,
    default_calibration,
    reference_operating_point,
)


@pytest.fixture(scope="module")
def calib():
    return default_calibration()


class TestOperatingPoint:
    def test_parse_canonical(self):
        op = OperatingPoint.parse("65nm@1.1V@800MHz")
        assert (op.node_nm, op.voltage, op.frequency_mhz) == (65.0, 1.1, 800.0)
        assert op.key == "65nm@1.1V@800MHz"

    def test_parse_tolerates_whitespace_and_case(self):
        for text in ("65 nm @ 1.1 V @ 800 MHz", "65NM@1.1v@800mhz", " 65nm@1.1V@800MHz "):
            assert OperatingPoint.parse(text).key == "65nm@1.1V@800MHz"

    def test_parse_passes_through_instances(self):
        op = OperatingPoint(65, 1.1, 800)
        assert OperatingPoint.parse(op) is op

    def test_key_drops_trailing_zeros(self):
        assert OperatingPoint(90.0, 1.20, 600.0).key == "90nm@1.2V@600MHz"

    @pytest.mark.parametrize(
        "text",
        ["", "65nm", "65nm@1.1V", "1.1V@65nm@800MHz", "65nm@-1.1V@800MHz", "nope"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(CalibrationError):
            OperatingPoint.parse(text)

    def test_parse_rejects_non_string(self):
        with pytest.raises(CalibrationError):
            OperatingPoint.parse(65)

    def test_rejects_non_positive_fields(self):
        with pytest.raises(CalibrationError):
            OperatingPoint(0, 1.1, 800)
        with pytest.raises(CalibrationError):
            OperatingPoint(65, 1.1, -800)

    def test_seconds_is_cycles_over_clock(self):
        op = OperatingPoint(65, 1.1, 800)
        assert op.frequency_hz == 800e6
        assert op.seconds(800_000_000) == pytest.approx(1.0)

    def test_payload_round_trip_tolerates_unknown_fields(self):
        op = OperatingPoint(65, 1.1, 800)
        payload = op.to_payload()
        payload["future_field"] = "ignored"
        assert OperatingPoint.from_payload(payload) == op

    def test_payload_missing_field(self):
        with pytest.raises(CalibrationError, match="missing field"):
            OperatingPoint.from_payload({"node_nm": 65, "voltage": 1.1})


class TestInterpolation:
    def test_exact_rows(self, calib):
        assert calib.capacitance_scale(90) == 1.0
        assert calib.capacitance_scale(65) == 0.68
        assert calib.capacitance_scale(180) == 2.4

    def test_midpoint_is_linear(self, calib):
        # midway between 65 nm (0.68) and 90 nm (1.0)
        assert calib.capacitance_scale(77.5) == pytest.approx(0.84)

    def test_refuses_extrapolation(self, calib):
        with pytest.raises(CalibrationError, match="refusing to extrapolate"):
            calib.capacitance_scale(14)
        with pytest.raises(CalibrationError, match="refusing to extrapolate"):
            calib.capacitance_scale(250)

    def test_dvfs_ceiling_derates_with_supply(self, calib):
        nominal = calib.max_frequency_mhz(65)
        assert calib.max_frequency_mhz(65, 1.1) == pytest.approx(nominal)
        assert calib.max_frequency_mhz(65, 0.55) == pytest.approx(nominal / 2)


class TestEnergyScale:
    def test_reference_scales_to_one(self, calib):
        assert calib.energy_scale(calib.reference) == pytest.approx(1.0)
        assert reference_operating_point() == calib.reference

    @pytest.mark.parametrize(
        "point,expected",
        [
            ("130nm@1.5V@400MHz", 0.4484953703703704),
            ("90nm@1.2V@600MHz", 0.18518518518518517),
            ("65nm@1.1V@800MHz", 0.10581275720164612),
        ],
    )
    def test_hand_computed_dvfs_points(self, calib, point, expected):
        # C(node)/C(180) * (V/1.8)^2 against the committed table
        assert calib.energy_scale(point) == pytest.approx(expected, rel=1e-12)

    def test_frequency_never_enters_energy(self, calib):
        slow = calib.energy_scale("65nm@1.1V@100MHz")
        fast = calib.energy_scale("65nm@1.1V@800MHz")
        assert slow == fast

    def test_voltage_scaling_is_monotone(self, calib):
        scales = [
            calib.energy_scale(f"90nm@{v}V@100MHz") for v in (1.0, 1.2, 1.4)
        ]
        assert scales == sorted(scales)
        assert scales[0] < scales[2]

    def test_relative_scale_is_ratio(self, calib):
        a, b = "65nm@1.1V@800MHz", "130nm@1.5V@400MHz"
        assert calib.relative_scale(a, b) == pytest.approx(
            calib.energy_scale(a) / calib.energy_scale(b)
        )

    def test_validate_rejects_voltage_window(self, calib):
        with pytest.raises(CalibrationError, match="outside"):
            calib.validate("65nm@0.4V@100MHz")
        with pytest.raises(CalibrationError, match="outside"):
            calib.validate("65nm@2.0V@100MHz")

    def test_validate_rejects_overclock(self, calib):
        with pytest.raises(CalibrationError, match="DVFS ceiling"):
            calib.validate("65nm@1.1V@900MHz")
        # at exactly the ceiling the point is fine
        assert calib.validate("65nm@1.1V@800MHz").frequency_mhz == 800.0


class TestTable:
    def test_default_is_committed_and_memoized(self):
        assert DEFAULT_CALIB_PATH.exists()
        assert default_calibration() is default_calibration()
        for point in DEFAULT_DVFS_POINTS:
            default_calibration().validate(point)

    def test_payload_round_trip(self, calib):
        payload = calib.to_payload()
        assert payload["format"] == CALIB_FORMAT
        clone = TechCalibration.from_payload(payload)
        assert clone.energy_scale("65nm@1.1V@800MHz") == pytest.approx(
            calib.energy_scale("65nm@1.1V@800MHz")
        )

    def test_node_rows_tolerate_unknown_fields(self, calib):
        payload = calib.to_payload()
        for row in payload["nodes"]:
            row["future_column"] = 42
        TechCalibration.from_payload(payload)

    def test_rejects_unknown_format(self):
        with pytest.raises(CalibrationError, match="unrecognized"):
            TechCalibration.from_payload({"format": "bogus/9"})

    def test_needs_two_distinct_nodes(self):
        row = TechNode(90, 1.0, 1.0, 1.2, 600)
        with pytest.raises(CalibrationError, match="at least two"):
            TechCalibration((row,), OperatingPoint(90, 1.2, 100))
        with pytest.raises(CalibrationError, match="duplicate"):
            TechCalibration((row, row), OperatingPoint(90, 1.2, 100))

    def test_reference_must_be_valid(self):
        rows = (
            TechNode(90, 1.0, 1.0, 1.2, 600),
            TechNode(130, 1.55, 0.55, 1.5, 400),
        )
        with pytest.raises(CalibrationError):
            TechCalibration(rows, OperatingPoint(65, 1.1, 800))
