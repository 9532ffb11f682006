"""Linearity properties of the macro-model over workload composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.core import EnergyMacroModel, default_template
from repro.obs import run_session
from repro.xtcore import build_processor


@pytest.fixture(scope="module")
def model():
    template = default_template()
    return EnergyMacroModel(template, np.linspace(10, 400, len(template)))


@pytest.fixture(scope="module")
def stats_pair():
    config = build_processor("lin")
    a = run_session(config, assemble(
        "main:\n    movi a2, 40\nl:\n    add a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n", "a")).stats
    b = run_session(config, assemble(
        "    .data\nv: .space 64\n    .text\nmain:\n    la a2, v\n    movi a3, 10\nl:\n    l32i a4, a2, 0\n    s32i a4, a2, 4\n    addi a3, a3, -1\n    bnez a3, l\n    halt\n", "b")).stats
    return config, a, b


class TestLinearity:
    def test_estimate_additive_over_merged_stats(self, model, stats_pair):
        """E(a ⊕ b) = E(a) + E(b): the macro-model is a measure over runs.

        This is the property that makes both multi-run workload
        estimation and the region profiler exact.
        """
        config, a, b = stats_pair
        merged = a.merge(b)
        assert model.estimate_from_stats(merged, config) == pytest.approx(
            model.estimate_from_stats(a, config) + model.estimate_from_stats(b, config)
        )

    def test_merge_is_commutative(self, model, stats_pair):
        config, a, b = stats_pair
        ab = model.estimate_from_stats(a.merge(b), config)
        ba = model.estimate_from_stats(b.merge(a), config)
        assert ab == pytest.approx(ba)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_n_fold_merge_scales(self, n):
        config = build_processor("lin-scale")
        template = default_template()
        local_model = EnergyMacroModel(template, np.linspace(10, 400, len(template)))
        stats = run_session(config, assemble(
            "main:\n    movi a2, 15\nl:\n    xor a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
            "unit")).stats
        merged = stats
        for _ in range(n - 1):
            merged = merged.merge(stats)
        single = local_model.estimate_from_stats(stats, config)
        assert local_model.estimate_from_stats(merged, config) == pytest.approx(n * single)
