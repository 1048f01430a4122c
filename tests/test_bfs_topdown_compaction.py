"""Tests for the adaptive frontier deduplication in the top-down step.

``compact_unique`` claims small fresh sets through a never-reset owner
buffer and sorts the survivors, but claims large ones into a pooled
flag array and compacts with ``np.flatnonzero``. Both paths must equal
``np.unique`` (sorted, unique, int64) whatever the owner buffer held
before, and the flag path must restore the pooled flag's all-False
contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.bfs.frontier as frontier_mod
from repro.bfs.frontier import compact_unique
from repro.bfs.kernel import TraversalKernel, Workspace
from repro.bfs.topdown import topdown_step
from repro.bfs.visited import VisitMarks
from repro.generators import barabasi_albert
from repro.graph import from_edges


def random_graph(n, num_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = {
        (min(u, v), max(u, v))
        for u, v in rng.integers(0, n, size=(num_edges, 2))
        if u != v
    }
    return from_edges(sorted(pairs), num_vertices=n)


class TestCompactUnique:
    @pytest.mark.parametrize("size", [0, 1, 50, 5_000])
    def test_matches_np_unique(self, size):
        rng = np.random.default_rng(size)
        values = rng.integers(0, 1_000, size=size)
        np.testing.assert_array_equal(
            compact_unique(values, 1_000), np.unique(values)
        )

    def test_claim_path_forced(self, monkeypatch):
        monkeypatch.setattr(frontier_mod, "CLAIM_FRACTION", 0.0)
        rng = np.random.default_rng(1)
        values = rng.integers(0, 500, size=200)
        # size 200 >= max(64, 0) -> claim path, with and without a pool
        pool = Workspace(500)
        for p in (None, pool):
            np.testing.assert_array_equal(
                compact_unique(values, 500, pool=p), np.unique(values)
            )

    def test_claim_flag_restored_all_false(self, monkeypatch):
        monkeypatch.setattr(frontier_mod, "CLAIM_FRACTION", 0.0)
        pool = Workspace(300)
        values = np.arange(100, dtype=np.int64).repeat(2)
        compact_unique(values, 300, pool=pool)
        assert not pool.claim_flag().any()


def small_limit(n):
    """Fresh sets below this size take the owner-claim branch."""
    return max(64, int(n * frontier_mod.CLAIM_FRACTION))


@st.composite
def id_multisets(draw, n=None):
    """``(values, n)``: a multiset of ids in ``[0, n)`` on either branch.

    The size is drawn below or at/above ``CLAIM_FRACTION * n`` so both
    dedup branches are hit, the ids are uniform, one repeated id, or
    only the boundary ids, and ``0``/``n - 1`` are spliced in on demand.
    """
    if n is None:
        n = draw(st.integers(min_value=1, max_value=3_000))
    limit = small_limit(n)
    if draw(st.booleans()):
        size = draw(st.integers(min_value=0, max_value=limit - 1))
    else:
        size = draw(st.integers(min_value=limit, max_value=limit + 2 * n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "one-id", "boundary"]))
    if kind == "uniform":
        values = rng.integers(0, n, size=size)
    elif kind == "one-id":
        values = np.full(size, rng.integers(0, n), dtype=np.int64)
    else:
        values = rng.choice(np.array([0, n - 1], dtype=np.int64), size=size)
    if size and draw(st.booleans()):
        values[rng.integers(0, size)] = 0
        values[rng.integers(0, size)] = n - 1
    return values.astype(np.int64), n


class TestCompactUniqueProperty:
    @settings(max_examples=200, deadline=None)
    @given(id_multisets())
    def test_equals_np_unique_pooled_and_poolless(self, case):
        values, n = case
        before = values.copy()
        want = np.unique(values)
        for pool in (None, Workspace(n)):
            got = compact_unique(values, n, pool=pool)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(values, before)  # input untouched

    @settings(max_examples=60, deadline=None)
    @given(st.lists(id_multisets(n=700), min_size=1, max_size=12))
    def test_repeated_calls_on_dirty_pool(self, cases):
        # One pool across many calls: the owner buffer keeps whatever
        # earlier calls scattered into it (and starts as deliberate
        # garbage that aliases real positions), so only slots written
        # in the current call may ever be read.
        pool = Workspace(700)
        pool.owner_buffer()[:] = np.arange(700) % 5
        for values, n in cases:
            np.testing.assert_array_equal(
                compact_unique(values, n, pool=pool), np.unique(values)
            )
        assert not pool.claim_flag().any()

    @pytest.mark.parametrize("n", [1, 2, 100, 5_000])
    def test_edge_cases_both_branches(self, n):
        pool = Workspace(n)
        limit = small_limit(n)
        cases = [
            np.empty(0, dtype=np.int64),
            np.full(limit - 1, n - 1, dtype=np.int64),  # all-duplicate, owner branch
            np.full(limit + 1, n - 1, dtype=np.int64),  # all-duplicate, flag branch
            np.array([n - 1, 0] * (limit // 2), dtype=np.int64),
            np.array([n - 1, 0] * (limit + 1), dtype=np.int64),
        ]
        for values in cases:
            want = np.unique(values)
            for p in (None, pool):
                got = compact_unique(values, n, pool=p)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)


class TestTopdownFrontiers:
    def test_both_paths_identical_frontiers(self, monkeypatch):
        # Run the same traversal once per dedup strategy and assert the
        # frontiers agree level by level.
        g = random_graph(400, 1_200, seed=3)

        def run(claim_fraction):
            monkeypatch.setattr(frontier_mod, "CLAIM_FRACTION", claim_fraction)
            marks = VisitMarks(g.num_vertices)
            marks.new_epoch()
            marks.visit(0)
            frontier = np.array([0], dtype=np.int64)
            levels = []
            pool = Workspace(g.num_vertices)
            while len(frontier):
                frontier, _ = topdown_step(g, frontier, marks, pool=pool)
                levels.append(frontier.copy())
            return levels

        sort_levels = run(2.0)  # owner claim + survivor sort always
        claim_levels = run(0.0)  # claim + flatnonzero always
        assert len(sort_levels) == len(claim_levels)
        for a, b in zip(sort_levels, claim_levels):
            np.testing.assert_array_equal(a, b)

    def test_full_bfs_unaffected_by_strategy(self, monkeypatch):
        g = barabasi_albert(500, 3, seed=2)
        kernel = TraversalKernel(g, directions=False)
        ref = kernel.bfs(0, record_dist=True)
        monkeypatch.setattr(frontier_mod, "CLAIM_FRACTION", 0.0)
        forced = TraversalKernel(g, directions=False).bfs(0, record_dist=True)
        assert forced.eccentricity == ref.eccentricity
        np.testing.assert_array_equal(forced.dist, ref.dist)
