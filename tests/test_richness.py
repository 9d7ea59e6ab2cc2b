import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import richness
from relturan.core import HypercubeGraph, delta_int, tau
from relturan.hosts import complete_hypercube
from relturan.patterns import build_hk, validate_witness
from relturan.richness import (
    ExtractionResult,
    PostconditionError,
    StageFailure,
    Thresholds,
    _replay_postconditions,
    average_richness,
    embed_hk_extracted,
    embed_hk_rich,
    extract_rich_interval,
    rich_levels,
    strip_top_forward,
)
from richness_oracle import extract_rich_interval as extract_reference
from richness_oracle import level_counts as level_counts_reference
from richness_oracle import strip_top_forward as strip_reference


def random_cube_graph(rng, d, keep=0.8):
    full = complete_hypercube(d)
    edges = [e for e in full.sorted_edges() if rng.random() < keep]
    return HypercubeGraph(d, edges)


class TestRichLevels:
    def test_complete_cube_all_rich(self):
        g = complete_hypercube(4)
        assert rich_levels(g.level_counts(), g.d, alpha=1.0) == [1, 2, 3, 4]

    def test_alpha_zero_includes_everything(self):
        g = HypercubeGraph(3, [(0, 4)])
        assert len(rich_levels(g.level_counts(), d=3, alpha=0.0)) == 3

    def test_threshold_is_sharp(self):
        d = 3
        # exactly half the level-3 pairs present
        g = HypercubeGraph(d, [(0, 1), (2, 3)])
        assert 3 in rich_levels(g.level_counts(), d, 0.5)
        assert 3 not in rich_levels(g.level_counts(), d, 0.51)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=30)
    def test_deletion_never_gains_levels(self, d, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_cube_graph(rng, d)
        edges = list(g.sorted_edges())
        kept = [e for e in edges if rng.random() < 0.7]
        sub = HypercubeGraph(d, kept)
        alpha = data.draw(st.floats(0.0, 1.0))
        assert set(rich_levels(sub.level_counts(), d, alpha)) <= set(rich_levels(g.level_counts(), d, alpha))

    def test_threshold_is_the_float_product(self):
        # 0.1 * 8 * 5 * 5 rounds to 20.0; 0.1 * 200 is exactly 20.0000000000000011...
        assert Fraction(0.1) * tau(4, 4) * 5 * 5 > 20
        assert rich_levels([0, 0, 0, 0, 20], 4, 0.1, 5) == [4]
        assert rich_levels([0, 0, 0, 0, 19], 4, 0.1, 5) == []

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rich_levels(complete_hypercube(2).level_counts(), 2, 1.5)


class TestAverageRichness:
    def test_complete_cube_is_one(self):
        g = complete_hypercube(4)
        assert average_richness(g.level_counts(), 4) == 1

    def test_complete_blocked_host_is_one(self):
        d, m = 3, 4
        counts = [0] + [tau(level, d) * m * m for level in range(1, d + 1)]
        assert average_richness(counts, d, m) == 1

    def test_each_level_against_its_own_capacity(self):
        # capacities tau_1 = 4, tau_2 = 2 at d = 2: half of level 1, all of level 2
        assert average_richness([0, 2, 2], 2) == Fraction(3, 4)


class TestStrip:
    def test_complete_cube_removes_top_levels(self):
        g = complete_hypercube(3)
        stripped, removed = strip_top_forward(g)
        # every vertex except the largest has forward neighbours; its top
        # level block disappears
        for x in range(g.n - 1):
            top = max(delta_int(x, y, 3) for y in range(x + 1, g.n))
            assert not any(stripped.has_edge(x, y) for y in range(x + 1, g.n) if delta_int(x, y, 3) == top)
        assert removed[0] == 0
        assert sum(removed) == g.num_edges() - stripped.num_edges()

    @given(st.integers(1, 6), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_top_level_and_victims_match_bruteforce(self, d, keep, rng):
        g = random_cube_graph(rng, d, keep)
        stripped, removed = strip_top_forward(g)
        removed_per_level = [0] * (d + 1)
        for x in range(g.n):
            forward = [y for y in range(x + 1, g.n) if g.has_edge(x, y)]
            top = max((delta_int(x, y, d) for y in forward), default=0)
            # x's victims, read off the stripped graph, are its forward
            # neighbours at its top level
            victims = [y for y in forward if not stripped.has_edge(x, y)]
            assert victims == [y for y in forward if delta_int(x, y, d) == top]
            removed_per_level[top] += len(victims)
        assert set(stripped.sorted_edges()) <= set(g.sorted_edges())
        assert list(removed) == removed_per_level

    @given(st.integers(1, 6), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_matches_the_list_reference(self, d, keep, rng):
        g = random_cube_graph(rng, d, keep)
        stripped, removed = strip_top_forward(g)
        want, want_removed = strip_reference(g)
        assert stripped == want and stripped.backward_masks == want.backward_masks
        assert removed == want_removed

    def test_adjacency_stays_symmetric(self):
        rng = random.Random(3)
        g = random_cube_graph(rng, 4)
        stripped, _ = strip_top_forward(g)
        for u, v in stripped.sorted_edges():
            assert stripped.has_edge(v, u)
            assert g.has_edge(u, v)

    def test_edgeless_is_noop(self):
        g = HypercubeGraph(2)
        stripped, removed = strip_top_forward(g)
        assert stripped.num_edges() == 0
        assert removed == (0, 0, 0)


class TestThresholds:
    def test_paper_values_scale_with_eps(self):
        t = Thresholds.paper(0.6)
        assert t.rich_alpha == 0.6
        assert t.y1_value == pytest.approx(0.2)
        assert t.y2_prop == pytest.approx(0.6**2 / 108)

    def test_desk_is_permissive(self):
        t = Thresholds.desk()
        assert t.y1_prop == 0.0 and t.f_value > 0

    def test_rejects_zero_value_threshold(self):
        with pytest.raises(ValueError):
            Thresholds(0.1, 0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
        for name, value in (("y1_value", -0.1), ("f_value", 0.0), ("f_value", -1e-12)):
            fields = {**Thresholds.desk()._asdict(), name: value}
            with pytest.raises(ValueError, match="value thresholds must be positive"):
                Thresholds(**fields)
            with pytest.raises(ValueError, match="value thresholds must be positive"):
                Thresholds(*fields.values())

    def test_check_holds_under_optimize(self):
        # an explicit raise, not an assert: python -O refuses the same inputs
        code = (
            "import sys\n"
            "from relturan.richness import Thresholds\n"
            "print(sys.flags.optimize)\n"
            "for name in ('y1_value', 'f_value'):\n"
            "    try:\n"
            "        Thresholds(**{**Thresholds.desk()._asdict(), name: 0.0})\n"
            "    except ValueError:\n"
            "        print('refused')\n"
        )
        src = str(Path(richness.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1", "refused", "refused"]

    def test_paper_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            Thresholds.paper(0.0)
        with pytest.raises(ValueError):
            Thresholds.paper(1.5)


class TestExtraction:
    def test_succeeds_on_complete_cube(self):
        g = complete_hypercube(5)
        res = extract_rich_interval(g, Thresholds.desk())
        assert isinstance(res, ExtractionResult)
        assert res.subgraph.d == g.d - res.pivot_level
        w = g.d - res.pivot_level
        assert res.x in range(res.rhs_base - (1 << w), res.rhs_base)
        assert res.rhs_base % (1 << w) == 0 and (res.rhs_base >> w) & 1 == 1
        _replay_postconditions(g, res)

    def test_edge_endpoints_adjacent_to_x(self):
        rng = random.Random(5)
        g = random_cube_graph(rng, 5, keep=0.9)
        res = extract_rich_interval(g, Thresholds.desk())
        assert isinstance(res, ExtractionResult)
        for _, v in res.subgraph.sorted_edges():
            assert g.has_edge(res.x, v + res.rhs_base)

    @pytest.mark.parametrize("seed", range(6))
    def test_subgraph_is_right_half_edges_ending_in_y3(self, seed):
        # per-edge reference for the per-vertex mask construction
        rng = random.Random(seed)
        g, _ = strip_top_forward(random_cube_graph(rng, rng.randint(3, 6), keep=0.85))
        res = extract_rich_interval(g, Thresholds.desk())
        assert isinstance(res, ExtractionResult)
        base, size = res.rhs_base, 1 << res.subgraph.d
        expected = {
            (u - base, y - base)
            for y in res.trace.y3
            for u in range(base, y)
            if g.has_edge(u, y)
        }
        assert all(base <= y < base + size for y in res.trace.y3)
        assert set(res.subgraph.sorted_edges()) == expected

    def test_replay_rejects_endpoint_not_adjacent_to_x(self):
        g = complete_hypercube(5)
        res = extract_rich_interval(g, Thresholds.desk())
        _, v = max(res.subgraph.sorted_edges())
        cut = [e for e in g.sorted_edges() if e != (res.x, v + res.rhs_base)]
        with pytest.raises(PostconditionError):
            _replay_postconditions(HypercubeGraph(g.d, cut), res)

    def test_certified_count_is_honest(self):
        g = complete_hypercube(5)
        res = extract_rich_interval(g, Thresholds.desk())
        assert isinstance(res, ExtractionResult)
        sub = res.subgraph
        recomputed = rich_levels(sub.level_counts(), sub.d, res.certified_eta)
        assert len(recomputed) >= res.certified_rich_count

    def test_replay_rejects_overstated_certificate(self):
        # an explicit check, not an assert: it holds under python -O too
        g = complete_hypercube(5)
        res = extract_rich_interval(g, Thresholds.desk())
        inflated = res._replace(certified_rich_count=g.d + 1)
        with pytest.raises(PostconditionError):
            _replay_postconditions(g, inflated)

    def test_paper_preset_fails_on_thinned_graph(self):
        rng = random.Random(1)
        g = random_cube_graph(rng, 4, keep=0.5)
        res = extract_rich_interval(g, Thresholds.paper(0.9))
        assert isinstance(res, StageFailure)
        assert res.stage == "working-levels"

    def test_sparse_graph_fails_cleanly(self):
        g = HypercubeGraph(4, [(0, 8)])
        res = extract_rich_interval(g, Thresholds.paper(0.9))
        assert isinstance(res, StageFailure)

    def test_deterministic(self):
        g = complete_hypercube(4)
        a = extract_rich_interval(g, Thresholds.desk())
        b = extract_rich_interval(g, Thresholds.desk())
        assert isinstance(a, ExtractionResult)
        assert a.trace == b.trace

    @pytest.mark.parametrize("field", ["y1_value", "f_value"])
    def test_refuses_value_thresholds_that_skipped_the_check(self, field):
        # _replace builds the tuple without the constructor's check; the
        # table leaves out vertices with no backward edge, which is exact
        # only for positive value thresholds
        with pytest.raises(ValueError, match="value thresholds must be positive"):
            extract_rich_interval(complete_hypercube(3), Thresholds.desk()._replace(**{field: 0.0}))


PRESETS = [Thresholds.desk(), Thresholds.paper(0.2), Thresholds.paper(0.5), Thresholds.paper(0.9)]
# the desk preset with one stage tightened past what a cube graph meets
TIGHTENED = [
    Thresholds(**{**Thresholds.desk()._asdict(), field: value})
    for field, value in (("y1_prop", 1.0), ("lstar_prop", 1.0), ("y2_prop", 1.0), ("x_prop", 2.0),
                         ("final_prop", 1.0))
]
HAND_BUILT = [complete_hypercube(d) for d in (2, 3, 4, 5)] + [
    HypercubeGraph(3, [(0, 4)]),
    HypercubeGraph(3, [(0, 1), (2, 3)]),
    HypercubeGraph(4, [(0, 8)]),
    HypercubeGraph(2, [(0, 3), (1, 2), (0, 1)]),
    HypercubeGraph(3, [(0, 7), (1, 3), (2, 3), (4, 6), (0, 1)]),
    HypercubeGraph(3, [(0, 7), (1, 3), (2, 3), (5, 7)]),  # levels 1 and 2 tie for the pivot
    HypercubeGraph(2),
]


def same_as_reference(g, thresholds):
    """The outcome's stage ("ok" for a result), once every field equals the reference's."""
    got, want = extract_rich_interval(g, thresholds), extract_reference(g, thresholds)
    assert type(got) is type(want)
    assert got == want  # field by field: the subgraph by its masks, certified_eta exactly
    if isinstance(got, StageFailure):
        return got.stage
    # the trace reaches embed-hk's trace.json: Python ints only
    for value in (got.x, got.rhs_base, got.pivot_level, got.certified_rich_count, *got.trace):
        assert all(type(v) is int for v in (value if isinstance(value, tuple) else (value,)))
    return "ok"


@st.composite
def drawn_cube_graphs(draw, max_d=7):
    d = draw(st.integers(1, max_d))
    n = 1 << d
    keep = draw(st.floats(0, 1))
    bits = random.Random(draw(st.integers(0, 2**64 - 1)))
    g = HypercubeGraph(d, [(u, v) for u in range(n) for v in range(u + 1, n) if bits.random() < keep])
    return strip_top_forward(g)[0] if draw(st.booleans()) else g


class TestAgainstListReference:
    """The level-degree table against the per-vertex lists it replaced."""

    @given(drawn_cube_graphs(), st.sampled_from(PRESETS))
    @settings(max_examples=150, deadline=None)
    def test_drawn_graphs(self, g, thresholds):
        assert g.level_counts() == level_counts_reference(g)
        same_as_reference(g, thresholds)

    def test_hand_built_graphs_reach_every_stage(self):
        stages = set()
        for g in HAND_BUILT:
            assert g.level_counts() == level_counts_reference(g)
            for h in (g, strip_top_forward(g)[0]):
                stages.update(same_as_reference(h, t) for t in PRESETS + TIGHTENED)
        assert stages == {"ok", "working-levels", "y1", "pivot-level", "interval", "x", "surviving-levels"}


class TestEmbedHkRich:
    def test_k1_minimal_edge(self):
        g = complete_hypercube(2)
        w = embed_hk_rich(g, 1)
        assert w == (0, 1)

    def test_empty_graph(self):
        assert embed_hk_rich(HypercubeGraph(3), 1) is None

    def test_k_up_to_3_on_complete_cube(self):
        g = complete_hypercube(6)
        host = g.to_ordered()
        for k in (1, 2, 3):
            w = embed_hk_rich(g, k)
            assert w is not None
            assert validate_witness(build_hk(k), host, w)

    @pytest.mark.parametrize("d, witnesses", [
        (4, [(0, 1), (0, 1, 8, 10), None]),
        (5, [(0, 1), (0, 1, 16, 18), (0, 1, 16, 18, 24, 28)]),
        (6, [(0, 1), (0, 1, 32, 34), (0, 1, 32, 34, 48, 52)]),
        (7, [(0, 1), (0, 1, 64, 66), (0, 1, 64, 66, 96, 100)]),
        (8, [(0, 1), (0, 1, 128, 130), (0, 1, 128, 130, 192, 196)]),
        (9, [(0, 1), (0, 1, 256, 258), (0, 1, 256, 258, 384, 388)]),
        (10, [(0, 1), (0, 1, 512, 514), (0, 1, 512, 514, 768, 772)]),
    ])
    def test_pinned_witnesses_on_complete_cubes(self, d, witnesses):
        # found by the earlier per-level mask implementation: an oracle independent of level_block
        g = complete_hypercube(d)
        got = [embed_hk_rich(g, k) for k in (1, 2, 3)]
        assert got == witnesses

    def test_random_dense_graphs_validate(self):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(4, 6)
            g = random_cube_graph(rng, d, keep=0.9)
            w = embed_hk_rich(g, 2)
            if w is not None:
                assert validate_witness(build_hk(2), g.to_ordered(), w)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_continues_from_given_extraction(self, k):
        rng = random.Random(k)
        for _ in range(5):
            g = random_cube_graph(rng, 6, keep=0.95)
            res = extract_rich_interval(strip_top_forward(g)[0], Thresholds.desk())
            a = embed_hk_extracted(g, k, res, Thresholds.desk())
            assert a == embed_hk_rich(g, k, Thresholds.desk())

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            embed_hk_rich(complete_hypercube(2), 0)
