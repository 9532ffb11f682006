"""Differential test: the cache model vs a naive dictionary-based oracle.

Hypothesis drives both implementations with the same access stream; they
must agree on every hit/miss decision.  The oracle is written for
clarity, the production model for speed — divergence pinpoints a bug in
either.  Both LRU forms of the production model are covered: the
per-access ``access()`` and the batch ``replay()`` kernel — and so is
``run_batch``'s miss count per geometry, which skips the replay when no
set receives more distinct lines than it has ways.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xtcore import CacheConfig, SetAssociativeCache
from repro.xtcore.batch import _geometry_misses


class OracleCache:
    """Obviously-correct LRU set-associative cache (OrderedDict per set)."""

    def __init__(self, sets: int, ways: int, line: int) -> None:
        self.sets = sets
        self.ways = ways
        self.line = line
        self.storage: list[OrderedDict] = [OrderedDict() for _ in range(sets)]

    def access(self, addr: int) -> bool:
        line_number = addr // self.line
        index = line_number % self.sets
        tag = line_number // self.sets
        bucket = self.storage[index]
        if tag in bucket:
            bucket.move_to_end(tag)
            return True
        bucket[tag] = True
        if len(bucket) > self.ways:
            bucket.popitem(last=False)
        return False


GEOMETRIES = st.sampled_from(
    [
        (1, 1, 16),
        (2, 2, 16),
        (4, 2, 32),
        (8, 4, 32),
        (16, 4, 64),
    ]
)


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        GEOMETRIES,
        st.lists(st.integers(min_value=0, max_value=0x3FFF), min_size=1, max_size=400),
    )
    def test_hit_miss_stream_matches_oracle(self, geometry, addresses):
        sets, ways, line = geometry
        config = CacheConfig(size_bytes=sets * ways * line, ways=ways, line_bytes=line)
        production = SetAssociativeCache(config)
        oracle = OracleCache(sets, ways, line)
        for i, addr in enumerate(addresses):
            expected = oracle.access(addr)
            actual = production.access(addr)
            assert actual == expected, f"divergence at access {i} (addr {addr:#x})"

    @settings(max_examples=40, deadline=None)
    @given(
        GEOMETRIES,
        st.lists(st.integers(min_value=0, max_value=0x3FFF), min_size=1, max_size=200),
    )
    def test_contains_matches_oracle_residency(self, geometry, addresses):
        sets, ways, line = geometry
        config = CacheConfig(size_bytes=sets * ways * line, ways=ways, line_bytes=line)
        production = SetAssociativeCache(config)
        oracle = OracleCache(sets, ways, line)
        for addr in addresses:
            oracle.access(addr)
            production.access(addr)
        for addr in addresses:
            line_number = addr // line
            index = line_number % sets
            tag = line_number // sets
            assert production.contains(addr) == (tag in oracle.storage[index])


def _memo_survivors(addresses, line):
    """Addresses left after the same-line memo at ``line`` bytes."""
    survivors, last = [], None
    for addr in addresses:
        if addr // line != last:
            last = addr // line
            survivors.append(addr)
    return survivors


#: Same-line runs: (start address, run length, byte stride within the run).
RUNS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=0x3FFF),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([0, 1, 4]),
    ),
    min_size=1,
    max_size=120,
)


class TestReplayKernel:
    @settings(max_examples=120, deadline=None)
    @given(GEOMETRIES, RUNS, st.sampled_from([1, 2, 4, 8, 16]))
    def test_replay_matches_memoized_oracle(self, geometry, runs, record_line):
        sets, ways, line = geometry
        # The stream as a batch recorder captures it: deduped at a line
        # size no coarser than the replaying geometry's.
        addresses = [start + i * stride for start, count, stride in runs for i in range(count)]
        stream = _memo_survivors(addresses, min(record_line, line))
        config = CacheConfig(size_bytes=sets * ways * line, ways=ways, line_bytes=line)

        oracle = OracleCache(sets, ways, line)
        survivors = _memo_survivors(stream, line)
        expected_misses = sum(not oracle.access(addr) for addr in survivors)

        kernel = SetAssociativeCache(config)
        assert kernel.replay(stream) == expected_misses

        stepped = SetAssociativeCache(config)
        for addr in survivors:
            stepped.access(addr)
        assert (kernel.hits, kernel.misses) == (stepped.hits, stepped.misses)
        assert kernel._sets == stepped._sets

    def test_replay_of_same_line_run_is_one_access(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=256, ways=2, line_bytes=32))
        assert cache.replay([0x40, 0x44, 0x5C, 0x40]) == 1
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.replay([0x40, 0x80, 0x40]) == 1
        assert (cache.hits, cache.misses) == (2, 2)


@st.composite
def working_sets(draw, overflow: bool):
    """``(geometry, lines)``: per set at most ``ways`` distinct lines, and
    with ``overflow`` one set given ``ways + 1`` to ``ways + 3`` of them."""
    sets, ways, line = draw(GEOMETRIES)
    tags = st.integers(min_value=0, max_value=63)
    lines = []
    for index in range(sets):
        for tag in draw(st.lists(tags, max_size=ways, unique=True)):
            lines.append(tag * sets + index)
    if overflow:
        index = draw(st.integers(min_value=0, max_value=sets - 1))
        crowd = draw(st.lists(tags, min_size=ways + 1, max_size=ways + 3, unique=True))
        lines.extend(tag * sets + index for tag in crowd)
    if not lines:
        lines.append(draw(tags) * sets)
    return (sets, ways, line), lines


@st.composite
def recorded_streams(draw, overflow: bool):
    """A geometry and an address stream touching every line of a working
    set, deduped at a line size no coarser than the geometry's — as a
    batch recorder captures it."""
    (sets, ways, line), lines = draw(working_sets(overflow))
    order = draw(st.permutations(lines))
    order += draw(st.lists(st.sampled_from(lines), max_size=200))
    offsets = st.integers(min_value=0, max_value=line - 1)
    addresses = [number * line + draw(offsets) for number in order]
    record_line = draw(st.sampled_from([1, 2, 4, 8, 16]))
    return (sets, ways, line), _memo_survivors(addresses, min(record_line, line))


def _batch_misses(geometry, stream):
    sets, ways, line = geometry
    config = CacheConfig(size_bytes=sets * ways * line, ways=ways, line_bytes=line)
    return _geometry_misses({}, stream, set(stream), config, "dcache")


def _oracle_misses(geometry, stream):
    oracle = OracleCache(*geometry)
    return sum(not oracle.access(addr) for addr in stream)


class TestGeometryMisses:
    @settings(max_examples=120, deadline=None)
    @given(recorded_streams(overflow=False))
    def test_fitting_working_set_counts_distinct_lines(self, case):
        geometry, stream = case
        distinct_lines = len({addr // geometry[2] for addr in stream})
        assert _batch_misses(geometry, stream) == _oracle_misses(geometry, stream)
        assert _oracle_misses(geometry, stream) == distinct_lines

    @settings(max_examples=120, deadline=None)
    @given(recorded_streams(overflow=True))
    def test_overflowing_set_matches_oracle(self, case):
        geometry, stream = case
        assert _batch_misses(geometry, stream) == _oracle_misses(geometry, stream)

    @settings(max_examples=80, deadline=None)
    @given(GEOMETRIES, RUNS, st.sampled_from([1, 2, 4, 8, 16]))
    def test_any_stream_matches_oracle(self, geometry, runs, record_line):
        addresses = [start + i * stride for start, count, stride in runs for i in range(count)]
        stream = _memo_survivors(addresses, min(record_line, geometry[2]))
        assert _batch_misses(geometry, stream) == _oracle_misses(geometry, stream)

    def test_thrashing_set_is_replayed(self):
        # Two lines 1 KiB apart alternate in one set of a direct-mapped
        # cache: its 3 distinct lines would undercount the 9 misses.
        geometry = (32, 1, 32)
        stream = [0x000, 0x400, 0x000, 0x400, 0x000, 0x400, 0x000, 0x400, 0x800]
        assert _batch_misses(geometry, stream) == _oracle_misses(geometry, stream) == 9
