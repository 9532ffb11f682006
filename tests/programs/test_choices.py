"""The DSE choice lists: determinism, valid pairs, fingerprint behavior.

These are the hand-built studies the bundled search spaces subsume; the
content-addressed request key leans on their configs fingerprinting by
content, so collisions or drift between calls would silently cross-wire
memoized scores.
"""

from repro.programs import fir_choices, reed_solomon_choices


def _all_choices():
    return {"fir": fir_choices(), "reed_solomon": reed_solomon_choices()}


class TestDeterminism:
    def test_names_and_order_are_stable(self):
        assert [c.name for c in fir_choices()] == ["fir_sw", "fir_mac", "fir_packed"]
        assert [c.name for c in reed_solomon_choices()] == [
            "rs_sw",
            "rs_gfmul",
            "rs_gfmac",
            "rs_dual",
        ]

    def test_sources_identical_across_calls(self):
        for name, choices in _all_choices().items():
            again = fir_choices() if name == "fir" else reed_solomon_choices()
            assert [c.source for c in choices] == [c.source for c in again]

    def test_fresh_case_objects_each_call(self):
        # each call must return independent cases: the cached _built pair
        # of one consumer must never leak into another
        first, second = fir_choices(), fir_choices()
        for a, b in zip(first, second):
            assert a is not b


class TestValidPairs:
    def test_every_choice_builds_and_verifies(self):
        for choices in _all_choices().values():
            for case in choices:
                config, program = case.build()
                assert program.name == case.name
                assert config.name == f"xt-{case.name}"
                # the program must be encodable against this config's ISA
                # (custom mnemonics included), which run_verified exercises
                case.run_verified()

    def test_extension_counts(self):
        assert [len(c.build()[0].extensions) for c in fir_choices()] == [0, 3, 2]
        assert [len(c.build()[0].extensions) for c in reed_solomon_choices()] == [
            0,
            1,
            3,
            3,
        ]


class TestFingerprints:
    def test_round_trip_across_separate_builds(self):
        for make in (fir_choices, reed_solomon_choices):
            first = [c.build()[0].fingerprint() for c in make()]
            second = [c.build()[0].fingerprint() for c in make()]
            assert first == second

    def test_no_collisions_within_a_study(self):
        # every choice differs in hardware content, so fingerprints must
        # all differ — a collision would make the serve memo answer one
        # design point's score for another
        for choices in _all_choices().values():
            prints = [c.build()[0].fingerprint() for c in choices]
            assert len(set(prints)) == len(prints)

    def test_extension_free_choices_share_across_studies(self):
        # fir_sw and rs_sw build the *same* processor content (stock core,
        # no extensions), so content addressing must give them the same
        # fingerprint even though their names differ
        fir_sw = next(c for c in fir_choices() if c.name == "fir_sw")
        rs_sw = next(c for c in reed_solomon_choices() if c.name == "rs_sw")
        assert fir_sw.build()[0].fingerprint() == rs_sw.build()[0].fingerprint()
