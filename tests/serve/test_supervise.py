"""Unit tests for the self-healing primitives (`repro.serve.supervise`).

Everything here runs without a server or a pool, so the supervisor's
decision logic (quarantine accounting, deadline math, chaos-plan
determinism) is pinned exactly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.serve.supervise import (
    QuarantineRegistry,
    deadline_at,
    deadline_expired,
    execute_chaos_directive,
)
from repro.testing.faults import ServiceChaosPlan


class TestDeadlines:
    def test_none_never_expires(self):
        assert deadline_at(None) is None
        assert not deadline_expired(None)

    def test_future_deadline_not_expired(self):
        assert not deadline_expired(deadline_at(60_000))

    def test_past_deadline_expired(self):
        assert deadline_expired(time.monotonic() - 0.001)


class TestQuarantineRegistry:
    def test_quarantines_at_threshold(self):
        registry = QuarantineRegistry(threshold=2)
        assert registry.record_crash("k1", "prog") is False
        assert not registry.is_quarantined("k1")
        assert registry.record_crash("k1", "prog") is True
        assert registry.is_quarantined("k1")
        assert registry.quarantined_count == 1
        assert registry.total_quarantined == 1

    def test_success_exonerates_suspects(self):
        registry = QuarantineRegistry(threshold=2)
        registry.record_crash("k1")
        registry.record_success("k1")
        # the count restarted: one more crash must not quarantine
        assert registry.record_crash("k1") is False
        assert not registry.is_quarantined("k1")

    def test_release_lifts_quarantine(self):
        registry = QuarantineRegistry(threshold=1)
        registry.record_crash("k1", "prog")
        assert registry.release("k1") is True
        assert not registry.is_quarantined("k1")
        assert registry.release("k1") is False
        # total stays monotonic for metrics even after release
        assert registry.total_quarantined == 1

    def test_snapshot_names_held_keys(self):
        registry = QuarantineRegistry(threshold=1)
        registry.record_crash("kbad", "poison_prog")
        registry.record_crash("kother")  # threshold=1: also quarantined
        snap = registry.snapshot()
        assert snap["held"] == 2
        assert snap["keys"]["kbad"] == "poison_prog"
        assert snap["threshold"] == 1

    def test_bounded_suspect_table(self):
        registry = QuarantineRegistry(threshold=10, max_entries=4)
        for i in range(8):
            registry.record_crash(f"k{i}")
        assert len(registry.snapshot()["suspects"]) == 4

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            QuarantineRegistry(threshold=0)


class TestExecuteChaosDirective:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_crash_exits_the_worker_process(self):
        pid = os.fork()
        if pid == 0:  # child: the directive must end this process
            try:
                execute_chaos_directive("crash")
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 13

    def test_hang_sleeps_for_the_given_seconds(self):
        began = time.monotonic()
        execute_chaos_directive("hang:0.05")
        assert time.monotonic() - began >= 0.05

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            execute_chaos_directive("meteor")


class TestServiceChaosPlan:
    def test_same_seed_same_schedule(self):
        a = ServiceChaosPlan(seed=7, crashes=3, hangs=1, resets=2, horizon=24)
        b = ServiceChaosPlan(seed=7, crashes=3, hangs=1, resets=2, horizon=24)
        schedule_a = [a.directive_for_batch(i) for i in range(24)]
        schedule_b = [b.directive_for_batch(i) for i in range(24)]
        assert schedule_a == schedule_b
        assert sum(1 for d in schedule_a if d == "crash") == 3
        assert sum(1 for d in schedule_a if d and d.startswith("hang:")) == 1

    def test_directives_fire_once(self):
        plan = ServiceChaosPlan(seed=1, crashes=1, horizon=4)
        fired = [i for i in range(4) if plan.directive_for_batch(i)]
        assert len(fired) == 1
        assert plan.directive_for_batch(fired[0]) is None  # consumed
        assert plan.injected_counts() == {"crash": 1}

    def test_poison_matches_benchmark_and_name(self):
        plan = ServiceChaosPlan(poison=("bad_prog",))
        assert plan.is_poisoned({"benchmark": "bad_prog"})
        assert plan.is_poisoned({"name": "bad_prog", "source": "..."})
        assert not plan.is_poisoned({"benchmark": "fine_prog"})

    def test_connection_resets_by_response_ordinal(self):
        plan = ServiceChaosPlan(seed=3, resets=2, horizon=8)
        hits = [plan.take_connection_reset() for _ in range(8)]
        assert sum(hits) == 2
        assert plan.injected_counts() == {"reset": 2}

    def test_rearm_reschedules_an_unexecuted_directive(self):
        plan = ServiceChaosPlan(seed=1, crashes=1, horizon=4)
        fired = [i for i in range(4) if plan.directive_for_batch(i)]
        assert plan.injected_counts() == {"crash": 1}
        # the batch never reached a worker: hand the directive back
        plan.rearm("crash", not_before=fired[0] + 1)
        assert plan.injected_counts() == {}
        refired = [i for i in range(fired[0] + 1, 10) if plan.directive_for_batch(i)]
        assert len(refired) == 1
        assert plan.injected_counts() == {"crash": 1}

    def test_rearm_skips_occupied_ordinals(self):
        plan = ServiceChaosPlan(seed=2, crashes=2, horizon=2)  # ordinals 0 and 1
        assert plan.directive_for_batch(0) == "crash"
        plan.rearm("crash", not_before=1)  # 1 is still armed: lands on 2
        assert plan.directive_for_batch(1) == "crash"
        assert plan.directive_for_batch(2) == "crash"
        assert plan.injected_counts() == {"crash": 2}

    def test_rejects_overfull_horizon(self):
        with pytest.raises(ValueError):
            ServiceChaosPlan(crashes=20, hangs=10, horizon=24)

    def test_parse_round_trip(self):
        plan = ServiceChaosPlan.parse(
            "seed=7,crashes=3,hangs=1,resets=1,horizon=24,hang=2.5,poison=a|b"
        )
        assert plan.seed == 7
        assert plan.horizon == 24
        assert plan.hang_seconds == 2.5
        assert plan.poison == frozenset({"a", "b"})

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ServiceChaosPlan.parse("seed=7,meteors=2")
        with pytest.raises(ValueError):
            ServiceChaosPlan.parse("justaword")
