import hashlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import hosts
from relturan.core import OrderedGraph, delta_int
from relturan.graphio import dumps_blocked, loads_blocked
from relturan.hosts import (
    BlockedGraph,
    BudgetError,
    _philox_below,
    complete_hypercube,
    complete_ordered,
    generate_host,
    philox_rng,
    verify_host,
)
from relturan.patterns import build_hk, contains_ordered
from relturan.tiling import TilingConfig, sample_many
from test_graphio import ref_encode_blocked


def thin_every_other(host: BlockedGraph) -> BlockedGraph:
    """Imbalance fixture: keep every second edge of each block pair, in row-major order."""
    mats = host.mats.reshape(len(host.mats), -1).copy()
    for flat in mats:
        flat[np.flatnonzero(flat)[1::2]] = False
    return BlockedGraph(host.d, host.m, host.seed, host.pairs, mats)


def _pair_index(x: int, y: int, n_blocks: int) -> int:
    """Index of (x, y), x < y, in lexicographic order over all block pairs."""
    return x * (2 * n_blocks - x - 1) // 2 + (y - x - 1)


def reference_host_blocks(m: int, d: int, seed: int) -> dict:
    """One fresh Philox per block pair, keyed (seed, pair index), drawn from counter 0."""
    n_blocks = 1 << d
    blocks = {}
    for x in range(n_blocks):
        for y in range(x + 1, n_blocks):
            key = np.array([seed, _pair_index(x, y, n_blocks)], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            blocks[(x, y)] = rng.random((m, m)) < 2.0 ** (delta_int(x, y, d) - d)
    return blocks


def reference_level_counts(host: BlockedGraph) -> list[int]:
    counts = [0] * (host.d + 1)
    for (x, y), mat in host.blocks.items():
        counts[delta_int(x, y, host.d)] += int(mat.sum())
    return counts


class TestPairIndex:
    def test_bijective(self):
        for d in (1, 2, 3):
            nb = 1 << d
            seen = [_pair_index(x, y, nb) for x in range(nb) for y in range(x + 1, nb)]
            assert sorted(seen) == list(range(nb * (nb - 1) // 2))


class TestStreams:
    # m <= 12 draws from _philox_below, m >= 13 from Philox.random_raw: at
    # d = 8 the two are level at m = 11 and 12, and the kernel 1.3x slower at 13
    @given(
        st.integers(1, 16),
        st.integers(1, 5),
        st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pair_philox(self, m, d, seed):
        host = generate_host(m, d, seed)
        ref = reference_host_blocks(m, d, seed)
        # the host lists exactly the pairs with an edge; the others read as zero
        assert list(host.blocks) == [key for key, mat in ref.items() if mat.any()]
        for key, mat in ref.items():
            assert np.array_equal(host.block_matrix(*key), mat), key

    # sha256 of dumps_blocked output, fixed before generation reused one Philox
    @pytest.mark.parametrize("m, d, seed, digest", [
        (8, 8, 0, "3a23978644be91856d78655f103d42f9506043c1f581a97fa2459771a982f068"),
        (256, 4, 9, "f986a35efb67fce3192ff02ca172aed4d1aaa6b545d92c942b080309aa92d7fb"),
        (5, 3, 7, "e8c457cf87336f4dabfd3f63bc8a4efb8509d1edd82f5f38c5a7167445d0db53"),
    ])
    def test_pinned_files(self, m, d, seed, digest):
        text = dumps_blocked(generate_host(m, d, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_seed_outside_uint64_is_refused(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must be in"):
                generate_host(2, 1, seed)
            with pytest.raises(OverflowError):
                _philox_below(seed, [0], np.ones(1, np.uint64), np.empty((1, 4), bool))

    @pytest.mark.parametrize("seed", [1.5, True, False, "1"])
    def test_seed_that_is_not_an_int_is_refused(self, seed):
        # a float or bool seed would key the stream of int(seed) and be
        # written into the host header, where the reader refuses it
        for call in (lambda: generate_host(2, 2, seed), lambda: philox_rng(seed)):
            with pytest.raises(ValueError, match="seed must be in"):
                call()

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_philox_rng_is_keyed_by_seed_and_zero(self, seed):
        key = np.array([seed, 0], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(50)
        assert np.array_equal(philox_rng(seed).random(50), want)

    @pytest.mark.parametrize("seed", [-1, -5, 2**64])
    def test_seeded_consumers_refuse_seed_outside_uint64(self, seed):
        cfg = TilingConfig(6, (1, 2, 3, 4, 5, 6), 4, 2)
        for call in (lambda: philox_rng(seed),
                     lambda: verify_host(generate_host(2, 2, 0), 0.5, 1, seed),
                     lambda: sample_many(cfg, 5, seed)):
            with pytest.raises(ValueError, match="seed must be in"):
                call()

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
    def test_kernel_matches_philox(self, seed):
        # keys near 2^64 wrap in the key schedule; each key is a row once per
        # threshold k = 1..63, against its own bound 2^(64 - k)
        idx = [0, 1, 7, 2**32 + 3, 2**63, 2**64 - 2, 2**64 - 1]
        ks = np.repeat(np.arange(1, 64), len(idx))
        bounds = np.left_shift(np.uint64(1), (64 - ks).astype(np.uint64))
        for n in (1, 3, 4, 5, 10, 64, 161):
            got = np.empty((len(ks), n), bool)
            _philox_below(seed, idx * 63, bounds, got)
            for row, k, i in zip(got, ks.tolist(), idx * 63):
                words = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(n)
                assert np.array_equal(row, words < 2 ** (64 - k)), (i, n, k)

    @given(st.integers(1, 53), st.integers(0, 2**64 - 1))
    def test_word_threshold(self, k, word):
        # Generator.random maps the word w to (w >> 11) * 2^-53
        for w in (2 ** (64 - k) - 1, 2 ** (64 - k), word):
            assert ((w >> 11) * 2.0**-53 < 2.0**-k) == (w >> (64 - k) == 0)

    def test_random_is_the_top_53_bits(self):
        key = np.array([5, 3], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(1000)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(1000)
        assert np.array_equal(doubles, (words >> np.uint64(11)) * 2.0**-53)


class TestLevelCounts:
    def _check(self, host):
        want = reference_level_counts(host)
        assert host.level_counts() == want
        assert host.num_edges() == sum(want)

    def test_generated(self):
        self._check(generate_host(5, 4, seed=3))

    def test_no_blocks(self):
        host = loads_blocked("3 4 0\n")
        assert host.blocks == {}
        assert host.level_counts() == [0, 0, 0, 0]
        self._check(host)

    def test_loaded_views(self):
        host = loads_blocked(dumps_blocked(generate_host(7, 3, seed=11)))
        assert all(mat.base is not None for mat in host.blocks.values())
        self._check(host)

    def test_thinned(self):
        self._check(thin_every_other(generate_host(6, 3, seed=4)))

    def test_keys_out_of_pair_order(self):
        rng = np.random.default_rng(0)
        keys = [(6, 7), (0, 4), (2, 3), (0, 1), (1, 6), (3, 5)]
        host = BlockedGraph(3, 4, 0, keys, rng.random((len(keys), 4, 4)) < 0.5)
        self._check(host)

    def test_d_beyond_int64_keys_is_refused(self):
        # at d = 32 the key x << d | y wraps past int64 once x >= 2^31
        with pytest.raises(ValueError):
            BlockedGraph(32, 1, 0, [(1, 2)], np.ones((1, 1, 1), dtype=bool))
        assert BlockedGraph(31, 1, 0, [(1, 2)], np.ones((1, 1, 1), dtype=bool)).block_matrix(1, 2).all()

    def test_self_pair_is_refused(self):
        host = BlockedGraph(2, 2, 0, [(1, 1)], np.ones((1, 2, 2), dtype=bool))
        with pytest.raises(ValueError):
            host.level_counts()


class TestGeneration:
    # m <= 12 draws from _philox_below, m >= 13 from Philox.random_raw: at
    # d = 8 the two are level at m = 11 and 12, and the kernel 1.3x slower at 13
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 2**64 - 1), st.integers(1, 7))
    def test_lists_exactly_the_nonempty_blocks(self, m, d, seed, per_run):
        host = generate_host(m, d, seed)
        runs = list(hosts.host_runs(m, d, seed, per_run))
        # each run yields its blocks with an edge, and their levels, alone
        for pairs, levels, cells in runs:
            assert cells.shape[1:] == (m, m) and cells.any(axis=(1, 2)).all()
            assert levels.tolist() == [delta_int(x, y, d) for x, y in pairs.tolist()]
        assert np.array_equal(host.pairs, np.concatenate([run[0] for run in runs]))
        assert np.array_equal(host.mats, np.concatenate([run[2] for run in runs]))
        # the reference draws every pair: the host lists its nonempty ones and
        # equals the graph built from all of them, the empty ones interleaved
        ref = reference_host_blocks(m, d, seed)
        assert list(host.blocks) == [key for key, mat in ref.items() if mat.any()]
        assert host == BlockedGraph(d, m, seed, list(ref), list(ref.values()))
        assert dumps_blocked(host) == ref_encode_blocked(d, m, seed, ref)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_draw_over_several_batches(self, seed):
        # 2,016 pairs of 64 words in one run: three whole batches of 512 pairs
        # and a partial one
        step = hosts._BATCH_WORDS // 64
        assert 2 * step < 2016 < hosts._SLAB_BYTES // (64 + hosts._PAIR_BYTES) and 2016 % step
        ref = reference_host_blocks(8, 6, seed)
        assert generate_host(8, 6, seed) == BlockedGraph(6, 8, seed, list(ref), list(ref.values()))

    def test_deterministic(self):
        assert generate_host(6, 3, seed=5) == generate_host(6, 3, seed=5)

    def test_seed_changes_edges(self):
        a = generate_host(8, 3, seed=0)
        b = generate_host(8, 3, seed=1)
        assert a != b

    def test_top_level_blocks_complete(self):
        # delta = d gives probability 1: sibling blocks fully joined
        host = generate_host(3, 2, seed=9)
        for x in range(4):
            for y in range(x + 1, 4):
                if delta_int(x, y, 2) == 2:
                    assert host.block_matrix(x, y).all()

    def test_no_intra_block_edges(self):
        host = generate_host(4, 2, seed=3)
        assert all(x < y for x, y in host.blocks)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            generate_host(1 << 12, 10, seed=0)

    @pytest.mark.parametrize("d", [23, 10**5, 10**21])
    def test_dimension_past_budget_is_refused_before_shifting(self, d):
        # m << d at d = 10^21 raised OverflowError, and d = 10^5 failed to print its vertex count
        with pytest.raises(BudgetError, match=f"2\\^{d} blocks exceed budget"):
            generate_host(2, d, seed=0)

    def test_memory_refusal(self, monkeypatch):
        # a host that passes the guard reaches triu_indices, made to fail here
        # so that a missing guard cannot allocate gigabytes
        def admitted(*args, **kwargs):
            raise RuntimeError("admitted")

        monkeypatch.setattr(hosts.np, "triu_indices", admitted)
        # 2^16 vertices pass the vertex budget; the cells alone need 2 GiB
        for m, d in ((1, 16), (2, 14), (1, 13), (16, 12), (1 << 13, 4)):
            with pytest.raises(BudgetError):
                generate_host(m, d, seed=0)
        for m, d in ((8, 12), (1, 12), (1 << 12, 4)):
            with pytest.raises(RuntimeError, match="admitted"):
                generate_host(m, d, seed=0)

    def test_edge_probability_converges(self):
        # empirical block density vs 2^(delta - d) at a fixed block pair
        m, d = 200, 3
        host = generate_host(m, d, seed=2)
        x, y = 0, 4  # delta = 1, p = 1/4
        mat = host.block_matrix(x, y)
        p = 2.0 ** (delta_int(x, y, d) - d)
        se = np.sqrt(p * (1 - p) / mat.size)
        assert abs(mat.mean() - p) <= 3 * se

    def test_level_counts_sum(self):
        host = generate_host(5, 3, seed=7)
        assert sum(host.level_counts()[1:]) == host.num_edges()

    def test_thin_every_other_halves(self):
        host = generate_host(6, 2, seed=1)
        thin = thin_every_other(host)
        for key, mat in host.blocks.items():
            kept = int(thin.blocks[key].sum())
            assert kept == (int(mat.sum()) + 1) // 2
            assert not (thin.blocks[key] & ~mat).any()

    def test_to_ordered_labels(self):
        host = generate_host(3, 1, seed=0)
        og = host.to_ordered()
        assert og.n == 6
        mat = host.block_matrix(0, 1)
        for i in range(3):
            for j in range(3):
                assert og.has_edge(i, 3 + j) == bool(mat[i, j])

    @staticmethod
    def edge_list_route(host: BlockedGraph) -> OrderedGraph:
        """The host flattened one edge at a time through the edge-list constructor."""
        b, i, j = np.nonzero(host.mats)
        us = host.pairs[b, 0] * host.m + i
        vs = host.pairs[b, 1] * host.m + j
        return OrderedGraph(host.n, zip(us.tolist(), vs.tolist()))

    @pytest.mark.parametrize("m, d", [(1, 1), (1, 5), (3, 2), (8, 5), (8, 8), (63, 2),
                                      (64, 2), (70, 1), (256, 1)])
    def test_to_ordered_matches_the_edge_list_route(self, m, d):
        host = generate_host(m, d, seed=3)
        og, want = host.to_ordered(), self.edge_list_route(host)
        assert og == want
        assert og.forward_masks == want.forward_masks and og.backward_masks == want.backward_masks

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_to_ordered_of_thinned_hosts_matches_the_edge_list_route(self, m, d, seed):
        host = thin_every_other(generate_host(m, d, seed))
        og, want = host.to_ordered(), self.edge_list_route(host)
        assert og.forward_masks == want.forward_masks and og.backward_masks == want.backward_masks

    @pytest.mark.parametrize("slab_bytes", [1, 8 * 9 * 4, 1 << 14])
    @pytest.mark.parametrize("m, d", [(3, 4), (8, 5), (70, 1), (5, 6)])
    def test_to_ordered_in_small_slabs_matches_the_edge_list_route(self, m, d, slab_bytes,
                                                                   monkeypatch):
        # a slab of one block, of 4 blocks at m = 3, and of 32 blocks at m = 8
        monkeypatch.setattr(hosts, "_SLAB_BYTES", slab_bytes)
        host = thin_every_other(generate_host(m, d, seed=5))
        og, want = host.to_ordered(), self.edge_list_route(host)
        assert og.forward_masks == want.forward_masks and og.backward_masks == want.backward_masks

    @pytest.mark.parametrize("m, d, edges, digest", [
        (8, 5, 5168, "54a90e71ea9f5ab2cf442a0561f5c6707403fd7d0a4fa0c8115a0068074b666c"),
        (8, 6, 12263, "d6b15795f333892b6832c505c56e49b01ae7c099f52f2dbb6ecf344bab7a6923"),
        (16, 3, 2940, "7302cbfcbb306e4a7ac5939fad76c7ddeb19d39546d1697a09f8d85df0185152"),
        (2, 11, 45123, "427a4689f6ddbf99d18ef7b8c665080395851923709c34210dd15745246b6591"),
    ])
    def test_to_ordered_keeps_the_pinned_masks(self, m, d, edges, digest):
        # the hosts of the P3 benchmark's sizes and the 2.1M-pair host; the
        # digests are those of the masks the per-row byte packer built
        og = generate_host(m, d, 0).to_ordered()
        h = hashlib.sha256()
        for mask in og.forward_masks + og.backward_masks:
            h.update(mask.to_bytes((og.n + 7) // 8, "little"))
        assert og.num_edges() == edges and h.hexdigest() == digest

    def test_to_ordered_of_a_sparse_host_on_two_million_vertices(self):
        # 2^21 vertices, four edges: the masks cost what their bits need
        mat = np.zeros((256, 256), dtype=bool)
        mat[0, 0] = mat[255, 7] = True
        host = BlockedGraph(13, 256, 0, [(0, 1), (5, 8191)], [mat, mat])
        og = host.to_ordered()
        assert og.n == 1 << 21
        assert og.sorted_edges() == [(0, 256), (255, 263), (1280, 2096896), (1535, 2096903)]
        assert og.backward_masks[2096903] == 1 << 1535

    def test_to_ordered_in_bounded_memory(self):
        # 2.1M edges: their int32 keys are 16 MiB. Measured with numpy 2.4 on
        # CPython 3.11: 24.7 MiB, and 160 MiB when the keys were built from
        # whole-host int64 arrays; the ceiling leaves a quarter's margin
        from test_graphio import _traced_peak

        host = generate_host(256, 4, 0)
        assert _traced_peak(host.to_ordered) < 31 * 2**20

    def test_to_ordered_of_an_edgeless_host(self):
        host = BlockedGraph(2, 3, 0, np.zeros((0, 2)), np.zeros((0, 3, 3)))
        og = host.to_ordered()
        assert og == OrderedGraph(12, []) and og.backward_masks == (0,) * 12


class TestPathFreeSide:
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_each_level_is_h2_free(self, m, d, seed):
        # the level of a block pair is an ultrametric, so no copy of H_2 (ab,
        # ad, cd for a < b < c < d) lies within one level: each level is an
        # H_k-free subgraph (k >= 2) holding about 1/d of the host's edges
        g = generate_host(m, d, seed).to_ordered()
        levels = {}
        for u, v in g.edges:
            levels.setdefault(delta_int(u // m, v // m, d), []).append((u, v))
        for edges in levels.values():
            assert contains_ordered(build_hk(2), OrderedGraph(g.n, edges)) is None


class TestVerification:
    def test_passes_at_moderate_scale(self):
        host = generate_host(64, 3, seed=0)
        report = verify_host(host, epsilon=0.3, sample_budget=50, seed=1)
        assert report.levels_ok and report.pairs_ok

    def test_detects_level_imbalance(self):
        host = thin_every_other(generate_host(64, 3, seed=0))
        report = verify_host(host, epsilon=0.3, sample_budget=10, seed=1)
        assert not report.levels_ok

    def test_report_shape(self):
        host = generate_host(16, 2, seed=0)
        report = verify_host(host, epsilon=0.5, sample_budget=7, seed=0)
        assert len(report.level_checks) == 2
        assert len(report.pair_checks) == 7
        assert all(c.p_size == c.q_size == 7 for c in report.pair_checks)  # ceil(16^(2/3))

    def test_rejects_bad_epsilon(self):
        host = generate_host(4, 2, seed=0)
        with pytest.raises(ValueError):
            verify_host(host, epsilon=0.0, sample_budget=1, seed=0)


class TestCompleteHosts:
    def test_complete_ordered(self):
        g = complete_ordered(5)
        assert len(g.edges) == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 65, 300])
    def test_complete_ordered_matches_the_edge_list_route(self, n):
        g = complete_ordered(n)
        ref = OrderedGraph(n, combinations(range(n), 2))
        assert g == ref and g.backward_masks == ref.backward_masks

    def test_complete_ordered_refusal(self):
        assert complete_ordered(4096).num_edges() == 4096 * 4095 // 2
        with pytest.raises(BudgetError, match="complete graph on 4097 vertices refused"):
            complete_ordered(4097)
        with pytest.raises(BudgetError):
            complete_ordered(5000)

    def test_complete_hypercube(self):
        g = complete_hypercube(3)
        assert g.num_edges() == 28
        counts = g.level_counts()
        assert counts[1:] == [16, 8, 4]

    def test_complete_hypercube_refusal(self):
        with pytest.raises(BudgetError):
            complete_hypercube(14)
