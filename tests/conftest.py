"""Shared fixtures for the test suite.

The expensive artifacts — the characterized macro-model and the verified
benchmark runs — are session-scoped so the integration tests pay for the
characterization flow exactly once.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.xtcore import build_processor


@pytest.fixture(scope="session")
def base_config():
    """A stock (extension-free) processor configuration."""
    return build_processor("test-base")


@pytest.fixture(scope="session")
def tiny_loop_program():
    """A minimal verified program on the base ISA."""
    source = """
    .data
out: .word 0
    .text
main:
    movi a2, 10
    movi a3, 0
loop:
    add a3, a3, a2
    addi a2, a2, -1
    bnez a2, loop
    la a4, out
    s32i a3, a4, 0
    halt
"""
    return assemble(source, "tiny_loop")


@pytest.fixture(scope="session")
def experiment_context():
    """The fully characterized model context (slow; built once)."""
    from repro.analysis import default_context

    return default_context()


@pytest.fixture()
def forced_fusion(monkeypatch):
    """Fuse each superop region on its first re-entry.

    Sets the dispatch loop's payback constant to one op, so a region
    fuses on its second entry instead of after it has retired
    ``_FUSE_AFTER_OPS`` ops op by op: short test programs then run
    through fused closures too.
    """
    from repro.xtcore import iss

    monkeypatch.setattr(iss, "_FUSE_AFTER_OPS", 1)
