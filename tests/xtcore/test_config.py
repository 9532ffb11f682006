"""Processor configuration tests."""

import dataclasses

import pytest

from repro.tie import TieSpec
from repro.xtcore import CacheConfig, ProcessorConfig, TimingConfig, build_processor


def _mul_spec(name="cmul"):
    spec = TieSpec(name, fmt="R3")
    a = spec.source("rs", width=16)
    b = spec.source("rt", width=16)
    spec.result(spec.tie_mult(a, b))
    return spec


def _acc_specs():
    from repro.tie import TieState

    shared = TieState("cacc", width=24)
    writer = TieSpec("cwr", fmt="RS1")
    writer.write_state(shared, writer.source("rs", width=24))
    reader = TieSpec("crd", fmt="RD1")
    reader.result(reader.zero_extend(reader.read_state(shared), 32))
    return [writer, reader]


class TestDefaults:
    def test_paper_configuration(self):
        config = ProcessorConfig()
        assert config.name == "xt1040"
        assert config.clock_mhz == 187.0
        assert config.num_registers == 64
        assert config.icache.size_bytes == 16 * 1024
        assert config.dcache.ways == 4
        assert config.extensions == ()

    def test_base_isa_exposed(self):
        config = ProcessorConfig()
        assert "add" in config.isa
        assert len(config.isa) >= 80

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_registers=65)
        with pytest.raises(ValueError):
            ProcessorConfig(clock_mhz=0)
        with pytest.raises(ValueError):
            TimingConfig(branch_taken_penalty=-1)


class TestExtensions:
    def test_build_processor_compiles_specs(self):
        config = build_processor("ext", [_mul_spec()])
        assert "cmul" in config.isa
        assert config.extension_for("cmul") is not None
        assert config.extension_for("nothere") is None

    def test_duplicate_mnemonics_rejected(self):
        from repro.tie import compile_spec

        impl = compile_spec(_mul_spec())
        with pytest.raises(ValueError, match="duplicate"):
            ProcessorConfig(name="dup", extensions=(impl, impl))

    def test_custom_instances_deduplicate_shared_state(self):
        config = build_processor("shared", _acc_specs())
        names = [inst.name for inst in config.custom_instances]
        assert names.count("state/cacc") == 1

    def test_state_inits_collected(self):
        from repro.tie import TieState

        spec = TieSpec("init", fmt="RD1")
        acc = spec.use_state(TieState("iacc", width=8, init=42))
        spec.result(spec.zero_extend(spec.read_state(acc), 32))
        config = build_processor("inits", [spec])
        assert config.state_inits == {"iacc": 42}

    def test_with_extensions_returns_new_config(self):
        base = ProcessorConfig()
        extended = base.with_extensions("plus", [_mul_spec()])
        assert base.extensions == ()
        assert len(extended.extensions) == 1
        assert extended.name == "plus"

    def test_describe_mentions_extensions(self):
        config = build_processor("described", [_mul_spec()])
        text = config.describe()
        assert "cmul" in text
        assert "16KB" in text

    def test_build_processor_without_specs(self):
        config = build_processor("plain")
        assert config.extensions == ()
        assert config.name == "plain"

    def test_replace_keeps_isa_cache_fresh(self):
        config = build_processor("a", [_mul_spec()])
        renamed = dataclasses.replace(config, name="b")
        assert "cmul" in renamed.isa

    def test_small_cache_config(self):
        config = ProcessorConfig(
            icache=CacheConfig(size_bytes=1024, ways=2, line_bytes=16),
            dcache=CacheConfig(size_bytes=2048, ways=2, line_bytes=32),
        )
        assert config.icache.num_sets == 32
        assert config.dcache.num_sets == 32


class TestFingerprint:
    def test_stable_across_equivalent_builds(self):
        one = build_processor("a", [_mul_spec()])
        two = build_processor("a", [_mul_spec()])
        assert one is not two
        assert one.fingerprint() == two.fingerprint()

    def test_hex_sha256_shape(self):
        fingerprint = ProcessorConfig().fingerprint()
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_name_is_excluded(self):
        # content addressing: the label a consumer gave the config must
        # not change what hardware it describes
        config = build_processor("a", [_mul_spec()])
        renamed = dataclasses.replace(config, name="b")
        assert config.fingerprint() == renamed.fingerprint()

    def test_base_knobs_are_included(self):
        base = ProcessorConfig()
        assert (
            dataclasses.replace(base, clock_mhz=200.0).fingerprint()
            != base.fingerprint()
        )
        assert (
            dataclasses.replace(
                base, dcache=CacheConfig(size_bytes=8 * 1024)
            ).fingerprint()
            != base.fingerprint()
        )
        assert (
            dataclasses.replace(base, num_registers=32).fingerprint()
            != base.fingerprint()
        )

    def test_extensions_are_included(self):
        plain = build_processor("p")
        extended = build_processor("p", [_mul_spec()])
        accum = build_processor("p", _acc_specs())
        prints = {c.fingerprint() for c in (plain, extended, accum)}
        assert len(prints) == 3

    def test_spec_content_not_mnemonic_spelling(self):
        # same mnemonic, different datapath width -> different hardware
        def _wide():
            spec = TieSpec("cmul", fmt="R3")
            a = spec.source("rs", width=32)
            b = spec.source("rt", width=32)
            spec.result(spec.tie_mult(a, b))
            return spec

        narrow = build_processor("p", [_mul_spec()])
        wide = build_processor("p", [_wide()])
        assert narrow.fingerprint() != wide.fingerprint()

    def test_stable_across_processes(self):
        import subprocess
        import sys

        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.xtcore import build_processor;"
            "from repro.tie import TieSpec;"
            "spec = TieSpec('cmul', fmt='R3');"
            "spec.result(spec.tie_mult(spec.source('rs', width=16),"
            " spec.source('rt', width=16)));"
            "print(build_processor('a', [spec]).fingerprint())"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                cwd=str(__import__("pathlib").Path(__file__).resolve().parents[2]),
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(runs) == 1
        assert runs == {build_processor("a", [_mul_spec()]).fingerprint()}


class TestLoweringKey:
    """The key covers exactly what ``compile_program`` reads."""

    def test_pricing_only_knobs_are_excluded(self):
        base = build_processor("a", [_mul_spec()])
        variants = [
            dataclasses.replace(base, name="b"),
            dataclasses.replace(base, clock_mhz=400.0),
            dataclasses.replace(
                base, icache=CacheConfig(size_bytes=4096, ways=2, line_bytes=64)
            ),
            dataclasses.replace(base, dcache=CacheConfig(line_bytes=16, miss_penalty=30)),
            dataclasses.replace(
                base, timing=TimingConfig(interlock_stall=3, uncached_fetch_penalty=20)
            ),
        ]
        assert {v.lowering_key for v in variants} == {base.lowering_key}

    def test_lowered_content_is_included(self):
        base = build_processor("a", [_mul_spec()])
        impl = base.extensions[0]
        slow = dataclasses.replace(
            impl,
            latency=impl.latency + 2,
            instruction=dataclasses.replace(
                impl.instruction, latency=impl.latency + 2
            ),
        )
        variants = [
            base,
            build_processor("a"),
            dataclasses.replace(base, num_registers=32),
            dataclasses.replace(base, timing=TimingConfig(branch_taken_penalty=4)),
            dataclasses.replace(base, extensions=(slow,)),
        ]
        assert len({v.lowering_key for v in variants}) == len(variants)

    def test_each_pricing_knob_alone_shares_the_key(self):
        base = build_processor("a", [_mul_spec(), *_acc_specs()])
        variants = [
            dataclasses.replace(base, icache=CacheConfig(size_bytes=8 * 1024, ways=2)),
            dataclasses.replace(base, dcache=CacheConfig(miss_penalty=40)),
            dataclasses.replace(base, clock_mhz=50.0),
            dataclasses.replace(base, timing=TimingConfig(interlock_stall=4)),
            dataclasses.replace(base, timing=TimingConfig(uncached_fetch_penalty=0)),
        ]
        assert {v.lowering_key for v in variants} == {base.lowering_key}

    @staticmethod
    def _graph_variants():
        """Specs that each differ from ``_mul_spec()`` in one lowered fact."""
        wider = TieSpec("cmul", fmt="R3")
        wider.result(wider.tie_mult(wider.source("rs", width=17), wider.source("rt", width=16)))
        other_op = TieSpec("cmul", fmt="R3")
        other_op.result(other_op.mul(other_op.source("rs", width=16), other_op.source("rt", width=16)))
        swapped = TieSpec("cmul", fmt="R3")
        b = swapped.source("rt", width=16)
        a = swapped.source("rs", width=16)
        swapped.result(swapped.tie_mult(a, b))
        const = TieSpec("cmul", fmt="R3")
        const.result(const.tie_mult(const.source("rs", width=16), const.const(3, 16)))
        const2 = TieSpec("cmul", fmt="R3")
        const2.result(const2.tie_mult(const2.source("rs", width=16), const2.const(5, 16)))
        # the same product latched into state: no GPR result, so no GPR write
        from repro.tie import TieState

        latched = TieSpec("cmul", fmt="RS1")
        src = latched.source("rs", width=16)
        latched.write_state(TieState("cprod", width=32), latched.tie_mult(src, src))
        return [wider, other_op, swapped, const, const2, latched]

    def test_every_lowered_fact_splits_the_key(self):
        base = build_processor("a", [_mul_spec()])
        keys = [base.lowering_key]
        keys += [build_processor("a", [spec]).lowering_key for spec in self._graph_variants()]
        impl = base.extensions[0]
        slow = dataclasses.replace(
            impl,
            latency=impl.latency + 1,
            instruction=dataclasses.replace(impl.instruction, latency=impl.latency + 1),
        )
        keys += [
            dataclasses.replace(base, extensions=(slow,)).lowering_key,
            dataclasses.replace(base, num_registers=63).lowering_key,
            dataclasses.replace(base, timing=TimingConfig(branch_taken_penalty=3)).lowering_key,
        ]
        assert len(set(keys)) == len(keys)

    def test_gpr_access_splits_the_key(self):
        from repro.tie import TieState

        def spec(reads_gpr):
            s = TieSpec("cset", fmt="RS1")
            value = s.source("rs", width=8) if reads_gpr else s.const(7, 8)
            s.write_state(TieState("cflag", width=8), value)
            return s

        reads, constant = spec(True), spec(False)
        assert reads.accesses_gpr and not constant.accesses_gpr
        assert (
            build_processor("a", [reads]).lowering_key
            != build_processor("a", [constant]).lowering_key
        )

    @pytest.mark.parametrize("mnemonics", [("wrmac", "mac16", "rdmac"), ("gfmul",), ("sbox48",)])
    def test_separate_cold_builds_share_the_key(self, mnemonics):
        from repro.programs.extensions import ALL_SPEC_FACTORIES

        builds = [
            build_processor(f"cold{i}", [ALL_SPEC_FACTORIES[m]() for m in mnemonics])
            for i in range(2)
        ]
        assert builds[0].extensions[0] is not builds[1].extensions[0]
        assert builds[0].lowering_key == builds[1].lowering_key

    def test_bundled_extension_sets_keep_their_sharing(self):
        # one key per distinct extension list, as the full-content key gave
        from repro.programs import application_suite, characterization_suite
        from repro.programs.extensions import ALL_SPEC_FACTORIES

        lists = {
            tuple(impl.mnemonic for impl in case.config.extensions)
            for case in characterization_suite() + application_suite()
        }
        keys = {
            build_processor("x", [ALL_SPEC_FACTORIES[m]() for m in names]).lowering_key
            for names in lists
        }
        assert len(keys) == len(lists)

    def test_memoized_hex_sha256(self):
        config = ProcessorConfig()
        assert config.lowering_key is config.lowering_key
        assert len(config.lowering_key) == 64
        assert config.lowering_key != config.fingerprint()


# -- byte identity of the spliced fingerprints ---------------------------------


def _reference_fingerprint(config):
    """The full-JSON formulation: re-serialise every extension in place."""
    import hashlib
    import json

    from repro.xtcore.config import _extension_payload

    def cache_payload(cache):
        return [cache.size_bytes, cache.ways, cache.line_bytes, cache.miss_penalty]

    payload = {
        "format": "repro-config-fingerprint/1",
        "clock_mhz": config.clock_mhz,
        "num_registers": config.num_registers,
        "icache": cache_payload(config.icache),
        "dcache": cache_payload(config.dcache),
        "timing": [
            config.timing.branch_taken_penalty,
            config.timing.interlock_stall,
            config.timing.uncached_fetch_penalty,
        ],
        "extensions": [_extension_payload(impl) for impl in config.extensions],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reference_semantic_fingerprint(config):
    import hashlib
    import json

    from repro.xtcore.config import _extension_payload

    extensions = []
    for impl in config.extensions:
        payload = _extension_payload(impl)
        for key in ("latency", "instances", "active_cycles", "bus_tapped"):
            payload.pop(key)
        extensions.append(payload)
    blob = json.dumps(
        {
            "format": "repro-semantic-fingerprint/1",
            "num_registers": config.num_registers,
            "extensions": extensions,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _assert_byte_identical(configs):
    from repro.xtcore import semantic_fingerprint

    for config in configs:
        assert config.fingerprint() == _reference_fingerprint(config), config.name
        assert semantic_fingerprint(config) == _reference_semantic_fingerprint(config), (
            config.name
        )


class TestFingerprintByteIdentity:
    """``fingerprint()`` and ``semantic_fingerprint()`` splice memoized
    per-instruction JSON fragments; the digests must equal the full
    re-serialisation byte for byte, or every content key would move."""

    @pytest.mark.parametrize("space_name", ["reed_solomon_tuned", "fir_tuned"])
    def test_every_tuned_candidate(self, space_name):
        from repro.dse import get_space

        space = get_space(space_name)
        _assert_byte_identical(c.build()[0] for c in space.candidates())

    def test_all_bundled_cases(self):
        from repro.programs import application_suite, characterization_suite

        cases = characterization_suite() + application_suite()
        assert len(cases) == 66
        _assert_byte_identical(case.config for case in cases)

    def test_after_cache_clear(self):
        from repro.dse import get_space
        from repro.xtcore import compilation_cache

        space = get_space("reed_solomon_tuned")
        candidate = space.candidate_at(space.size - 1)
        before = candidate.build()[0]
        compilation_cache().clear()
        after = candidate.build()[0]
        assert after.extensions is not before.extensions
        assert after.fingerprint() == before.fingerprint()
        _assert_byte_identical([before, after])

    def test_configs_sharing_one_extension_tuple(self):
        config = build_processor("shared", [_mul_spec(), *_acc_specs()])
        variants = [
            config,
            dataclasses.replace(config, name="other"),
            dataclasses.replace(config, icache=CacheConfig(size_bytes=4 * 1024)),
            dataclasses.replace(config, num_registers=32, clock_mhz=200.0),
        ]
        assert all(v.extensions is config.extensions for v in variants)
        _assert_byte_identical(variants)
        assert len({v.fingerprint() for v in variants}) == 3  # name is cosmetic

    def test_no_extensions(self):
        _assert_byte_identical([ProcessorConfig(), build_processor("plain")])
