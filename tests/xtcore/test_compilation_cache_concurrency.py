"""CompilationCache consistency under the serving worker-pool usage pattern.

Any thread of a process may estimate through its one
:class:`CompilationCache`, and the estimation service's forked workers
inherit it across ``fork``, so the LRU bookkeeping has hard invariants
to keep under races:

* ``hits + misses == lookups`` — no lookup is double- or un-counted;
* ``compilations == misses`` — exactly one lowering per (program, config)
  content pair, even when many threads request it at once;
* ``evictions == compilations - len(cache)`` and ``len <= maxsize`` —
  eviction accounting never drifts.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.asm import assemble
from repro.xtcore import build_processor
from repro.xtcore.compiled import CompilationCache


def make_programs(count: int):
    """Distinct tiny programs (distinct digests) on the base ISA."""
    programs = []
    for index in range(count):
        source = f"main:\n    movi a2, {index + 1}\n    halt\n"
        programs.append(assemble(source, f"cc{index}"))
    return programs


@pytest.fixture(scope="module")
def config():
    return build_processor("cache-stress")


class TestThreadedStress:
    def test_counters_and_eviction_stay_consistent(self, config):
        cache = CompilationCache(maxsize=3)
        programs = make_programs(6)
        threads_n, rounds = 8, 40
        lookups = threads_n * rounds
        start = threading.Barrier(threads_n)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                start.wait()
                for i in range(rounds):
                    # rotate through more programs than the cache holds, with
                    # per-thread phase shifts so threads contend on the same
                    # keys while the LRU constantly churns
                    program = programs[(seed + i) % len(programs)]
                    executable = cache.get_or_compile(config, program)
                    assert executable.program_digest == program.digest()
            except BaseException as exc:  # noqa: BLE001 — re-raised on the test thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        info = cache.info()
        assert info["hits"] + info["misses"] == lookups
        assert info["compilations"] == info["misses"]
        assert info["entries"] <= cache.maxsize
        assert info["evictions"] == info["compilations"] - info["entries"]

    def test_stampede_on_one_key_compiles_once(self, config):
        """All threads racing the same cold key get one compilation total."""
        cache = CompilationCache(maxsize=8)
        program = make_programs(1)[0]
        threads_n = 12
        start = threading.Barrier(threads_n)
        results = []
        lock = threading.Lock()

        def worker() -> None:
            start.wait()
            executable = cache.get_or_compile(config, program)
            with lock:
                results.append(executable)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == threads_n
        # every thread got the same cached object, compiled exactly once
        assert len({id(executable) for executable in results}) == 1
        assert cache.compilations == 1
        assert cache.misses == 1
        assert cache.hits == threads_n - 1


def _forked_child(config, programs, queue) -> None:
    """Runs in the forked child: the inherited cache must answer hits."""
    from repro.xtcore import compilation_cache

    cache = compilation_cache()
    before = cache.info()
    for program in programs:
        cache.get_or_compile(config, program)
    after = cache.info()
    queue.put(
        {
            "new_compilations": after["compilations"] - before["compilations"],
            "new_hits": after["hits"] - before["hits"],
        }
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestForkInheritance:
    def test_prewarmed_entries_survive_fork(self, config):
        """The service prewarms pre-fork; children must hit, not recompile."""
        from repro.xtcore import compilation_cache

        cache = compilation_cache()
        programs = make_programs(3)
        for program in programs:
            cache.get_or_compile(config, program)  # parent-side prewarm

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_forked_child, args=(config, programs, queue))
        child.start()
        outcome = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert outcome["new_compilations"] == 0
        assert outcome["new_hits"] == len(programs)
