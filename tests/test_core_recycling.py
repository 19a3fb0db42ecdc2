"""Unit tests for the cluster recycling cache."""

import pytest

from repro import BMatrixFactory
from repro.core import ClusterCache, cluster_product
from tests.helpers import relerr


@pytest.fixture
def cache(factory4x4, field4x4):
    """At half filling: one spin sector per build (the down sector is
    the particle-hole image, so nothing reads a partner)."""
    return ClusterCache(factory4x4, field4x4, cluster_size=5)


@pytest.fixture
def doped_cache(model4x4, field4x4):
    """The same chain doped: both sectors evaluated, built in pairs."""
    factory = BMatrixFactory(model4x4.with_(mu=-0.5))
    return ClusterCache(factory, field4x4, cluster_size=5)


class TestCacheBasics:
    def test_get_matches_direct_product(self, cache, factory4x4, field4x4):
        for j in range(cache.n_clusters):
            direct = cluster_product(factory4x4, field4x4, 1, cache.ranges[j])
            assert relerr(cache.get(1, j), direct) < 1e-14

    def test_hits_and_misses(self, cache, doped_cache):
        """Doped, one miss per cluster: the stacked rebuild prefetches the
        partner spin, whose first access is then a hit. At half filling
        no partner is built. These are the counts
        ``core.recycling.hit_ratio`` reports."""
        for c in (doped_cache, cache):
            c.get(1, 0)
            c.get(1, 0)
            c.get(-1, 0)
        assert doped_cache.misses == 1 and doped_cache.hits == 2
        assert doped_cache.batched_builds == 1
        assert cache.misses == 2 and cache.hits == 1
        assert cache.batched_builds == 2

    def test_cached_object_identity(self, cache):
        a = cache.get(1, 2)
        b = cache.get(1, 2)
        assert a is b  # recycling, not recompute

    def test_cluster_of_slice(self, cache):
        assert cache.cluster_of_slice(0) == 0
        assert cache.cluster_of_slice(4) == 0
        assert cache.cluster_of_slice(5) == 1
        assert cache.cluster_of_slice(19) == 3
        with pytest.raises(IndexError):
            cache.cluster_of_slice(20)


class TestTake:
    def test_returns_what_get_returns_and_forgets_it(self, cache):
        cached = cache.get(1, 2)
        assert cache.take(1, 2) is cached
        assert (1, 2) not in cache._cache
        rebuilt = cache.get(1, 2)
        assert rebuilt is not cached and relerr(rebuilt, cached) == 0.0

    def test_partner_spin_of_the_build_stays_cached(self, cache, doped_cache):
        doped_cache.take(1, 0)  # miss: builds both spins, keeps the partner
        assert (-1, 0) in doped_cache._cache and (1, 0) not in doped_cache._cache
        builds = doped_cache.batched_builds
        doped_cache.get(-1, 0)
        assert doped_cache.batched_builds == builds
        cache.take(1, 0)  # half filling: no partner built, nothing left
        assert not cache._cache

    def test_counts_like_the_get_it_goes_through(self, cache, doped_cache):
        """Every access is one hit or one miss whichever verb made it
        (and ``take`` calls ``self.get``, so a caller that wraps ``get``
        on the instance, as the e2e tracer does, sees takes too)."""
        # doped: the partner of each build is a hit; at half filling
        # every take misses and leaves nothing behind
        for c, counts, entries in (
            (doped_cache, (2, 1, 2), 1.0),  # (-1, 0)
            (cache, (3, 0, 3), 0.0),
        ):
            seen = []
            inner = c.get
            c.get = lambda sigma, j: seen.append((sigma, j)) or inner(sigma, j)
            c.take(1, 0)
            c.take(-1, 0)
            c.take(1, 0)
            assert (c.misses, c.hits, c.batched_builds) == counts
            assert seen == [(1, 0), (-1, 0), (1, 0)]
            assert c.stats()["cluster_cache.entries"] == entries


class TestInvalidation:
    def test_invalidate_slice_refreshes_owner_only(self, cache, field4x4):
        before_own = cache.get(1, 1)
        before_other = cache.get(1, 2)
        field4x4.flip(6, 3)  # slice 6 lives in cluster 1
        cache.invalidate_slice(6)
        after_own = cache.get(1, 1)
        after_other = cache.get(1, 2)
        assert after_own is not before_own
        assert relerr(after_own, before_own) > 1e-12  # value truly changed
        assert after_other is before_other

    def test_invalidation_covers_both_spins(self, cache, field4x4):
        up = cache.get(1, 0)
        dn = cache.get(-1, 0)
        field4x4.flip(0, 0)
        cache.invalidate_slice(0)
        assert cache.get(1, 0) is not up
        assert cache.get(-1, 0) is not dn

    def test_invalidate_all(self, cache):
        objs = [cache.get(1, j) for j in range(cache.n_clusters)]
        cache.invalidate_all()
        assert all(
            cache.get(1, j) is not o for j, o in enumerate(objs)
        )

    def test_stale_cache_would_be_wrong(self, cache, factory4x4, field4x4):
        """Sanity: without invalidation the cached product is stale —
        this is the invariant invalidate_slice protects."""
        stale = cache.get(1, 0)
        field4x4.flip(0, 0)
        fresh = cluster_product(factory4x4, field4x4, 1, cache.ranges[0])
        assert relerr(stale, fresh) > 1e-12
        cache.invalidate_slice(0)
        assert relerr(cache.get(1, 0), fresh) < 1e-14


class TestChain:
    def test_chain_rotation_order(self, cache):
        ids = [id(cache.get(1, j)) for j in range(cache.n_clusters)]
        chain = cache.chain(1, start_cluster=2)
        assert [id(m) for m in chain] == [ids[2], ids[3], ids[0], ids[1]]

    def test_chain_start_zero_is_natural_order(self, cache):
        chain = cache.chain(1, 0)
        assert len(chain) == cache.n_clusters

    def test_chain_bad_start_raises(self, cache):
        with pytest.raises(IndexError):
            cache.chain(1, 4)
