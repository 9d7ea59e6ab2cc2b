import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan.core import BudgetError, OrderedGraph, tau
from relturan.hosts import complete_ordered, philox_rng
from relturan.patterns import build_hk, monotone_p3
from relturan import tiling
from relturan.tiling import TilingConfig, sample_many, tiling_guarantee_report
from tiling_oracle import (
    exact_edge_probability,
    exact_pair_probability,
    one_draw_sample_batch,
    oracle_guarantee_report,
    sample_embedding,
)


#: (d, levels, w, h) that ``sample_many`` and the report refuse, with the message
INVALID_CONFIGS = [
    ((4, (0, 1, 2), 1, 1), r"levels must lie in \[1, d\]"),
    ((4, (1, 5), 1, 1), r"levels must lie in \[1, d\]"),
    ((4, (2, 1, 3), 1, 1), "levels must be strictly ascending"),
    ((4, (1, 1, 3), 1, 1), "levels must be strictly ascending"),
    ((4, (1, 2, 3), 2, 0), "need 1 <= h <= w"),
    ((4, (1, 2, 3), 2, 3), "need 1 <= h <= w"),  # h > w
    ((4, (1, 2, 3), 3, 2), "window must be shorter than the level set"),  # w not < L
]


def full_cfg(d, w, h):
    return TilingConfig(d, tuple(range(1, d + 1)), w, h)


class TestConfig:
    def test_validation(self):
        # the record holds any values, however it is built; its readers
        # refuse them before any other check
        for args, message in INVALID_CONFIGS:
            for cfg in (TilingConfig(*args), TilingConfig._make(args),
                        full_cfg(4, 2, 2)._replace(**dict(zip(TilingConfig._fields, args)))):
                assert tuple(cfg) == args
                with pytest.raises(ValueError, match=f"^{message}$"):
                    sample_many(cfg, 1, 0)
                with pytest.raises(ValueError, match=f"^{message}$"):  # a pattern of h vertices
                    tiling_guarantee_report(OrderedGraph(cfg.h, []), cfg, 0.5)

    def test_checks_hold_under_optimize(self):
        # explicit raises, not asserts: python -O refuses the same configs
        code = (
            "import sys\n"
            "from relturan.core import OrderedGraph\n"
            "from relturan.tiling import TilingConfig, sample_many, tiling_guarantee_report\n"
            "print(sys.flags.optimize)\n"
            f"for args in {[args for args, _ in INVALID_CONFIGS]!r}:\n"
            "    cfg = TilingConfig._make(args)\n"
            "    for read in (lambda: sample_many(cfg, 1, 0),\n"
            "                 lambda: tiling_guarantee_report(OrderedGraph(cfg.h, []), cfg, 0.5)):\n"
            "        try:\n"
            "            read()\n"
            "        except ValueError as exc:\n"
            "            print(exc)\n"
            "        else:\n"
            "            print('accepted', args)\n"
        )
        src = str(Path(tiling.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        flag, *lines = run.stdout.splitlines()
        assert flag == "1" and len(lines) == 2 * len(INVALID_CONFIGS)
        messages = [message for _, message in INVALID_CONFIGS for _reader in range(2)]
        for line, message in zip(lines, messages):
            assert re.fullmatch(message, line), line


class TestSampler:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sample_invariants(self, seed):
        cfg = full_cfg(d=7, w=4, h=3)
        smp = sample_embedding(cfg, philox_rng(seed))
        smp.check(cfg)  # window membership, split levels, top bit

    def test_subset_cfg_invariants(self):
        cfg = TilingConfig(8, (1, 3, 4, 6, 8), 3, 2)
        rng = philox_rng(5)
        for _ in range(300):
            sample_embedding(cfg, rng).check(cfg)

    def test_check_refuses_corrupted_draws_under_optimize(self):
        # python -O drops asserts that pytest does not rewrite, as in
        # tiling_oracle: the checks must still refuse each broken invariant
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "from relturan.tiling import TilingConfig\n"
            "from tiling_oracle import EmbeddingSample\n"
            "print(sys.flags.optimize)\n"
            "cfg = TilingConfig(4, (1, 2, 3, 4), 2, 2)\n"
            "good = EmbeddingSample(0, (1, 2), (0, 8))\n"
            "good.check(cfg)\n"
            "for bad in [dict(a=2), dict(levels=(1, 3)), dict(vertices=(0, 4)),\n"
            "            dict(vertices=(8, 0)), dict(vertices=(0, 12))]:\n"
            "    try:\n"
            "        replace(good, **bad).check(cfg)\n"
            "    except AssertionError:\n"
            "        print('refused')\n"
            "    else:\n"
            "        print('accepted', bad)\n"
        )
        paths = [str(Path(tiling.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n")[:-1] == ["1"] + ["refused"] * 5

    def test_a_batch_past_the_cap_is_refused_before_any_draw(self, monkeypatch):
        # a batch takes n (9h + 25) bytes: 100 chains of 3 vertices 5,200
        monkeypatch.setattr(tiling, "_MAX_BUILD_BYTES", 5200)
        cfg = full_cfg(6, 4, 3)
        assert sample_many(cfg, 100, 0).shape == (100, 3)
        monkeypatch.setattr(tiling, "_sample_batch", None)  # a draw would fail on it
        with pytest.raises(BudgetError, match="101 chains of 3 vertices need 5252 bytes, over 5200"):
            sample_many(cfg, 101, 0)

    def test_batch_deterministic(self):
        cfg = full_cfg(6, 3, 2)
        assert np.array_equal(sample_many(cfg, 100, seed=9), sample_many(cfg, 100, seed=9))

    def test_chains_strictly_increasing(self):
        cfg = full_cfg(6, 4, 4)
        verts = sample_many(cfg, 500, seed=2)
        assert (np.diff(verts.astype(np.int64), axis=1) > 0).all()

    # a slab of one row of ranking reals, three, or an odd byte count
    @pytest.mark.parametrize("rows, extra", [(1, 0), (3, 0), (7, 3)])
    def test_slabs_keep_the_one_draw_stream(self, rows, extra, monkeypatch):
        cases = [(full_cfg(12, 6, 3), 1000, 3), (full_cfg(62, 6, 6), 300, 1),
                 (TilingConfig(60, tuple(range(1, 61, 2)), 7, 4), 501, 9), (full_cfg(5, 4, 1), 101, 2)]
        for cfg, n, seed in cases:
            monkeypatch.setattr(tiling, "_SLAB_BYTES", rows * 8 * cfg.w + extra)
            got = tiling._sample_batch(cfg, n, philox_rng(seed))
            want = one_draw_sample_batch(cfg, n, philox_rng(seed))
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_block_reassembly(self):
        # prefix above the split level is shared by consecutive vertices,
        # and all separator bits between successive levels are 1
        cfg = full_cfg(7, 5, 3)
        rng = philox_rng(3)
        for _ in range(200):
            smp = sample_embedding(cfg, rng)
            for vi, vj, lv in zip(smp.vertices, smp.vertices[1:], smp.levels):
                shift = cfg.d - lv + 1
                assert vi >> shift == vj >> shift


class TestExactOracle:
    def test_law_of_total_probability(self):
        cfg = full_cfg(d=6, w=3, h=3)
        n = 1 << cfg.d
        for i, j in ((1, 2), (1, 3), (2, 3)):
            total = sum(
                exact_pair_probability(cfg, i, j, x, y)
                for x in range(n)
                for y in range(x + 1, n)
            )
            assert total == 1

    def test_zero_when_level_unavailable(self):
        cfg = TilingConfig(5, (1, 2, 4, 5), 2, 2)
        # x, y splitting at level 3, which is not in the level set
        assert exact_pair_probability(cfg, 1, 2, 0b00000, 0b00100) == 0

    def test_monte_carlo_agreement(self):
        cfg = full_cfg(d=6, w=3, h=3)
        pat = monotone_p3()
        n_samples = 200_000
        verts = sample_many(cfg, n_samples, seed=4)
        rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
        checked = 0
        while checked < 10:
            x = int(rng.integers(0, 63))
            y = int(rng.integers(x + 1, 64))
            p = exact_edge_probability(pat, cfg, x, y)
            if p == 0:
                continue
            hits = 0
            for (u, v) in pat.sorted_edges():
                hits += int(((verts[:, u] == x) & (verts[:, v] == y)).sum())
            emp = hits / n_samples
            se = math.sqrt(float(p) * (1 - float(p)) / n_samples)
            assert abs(emp - float(p)) <= 4 * se + 1e-12
            checked += 1

    def test_rejects_bad_slots(self):
        cfg = full_cfg(5, 2, 2)
        with pytest.raises(ValueError):
            exact_pair_probability(cfg, 2, 1, 0, 1)
        with pytest.raises(ValueError):
            exact_pair_probability(cfg, 1, 2, 3, 3)


class TestGuaranteeReport:
    def test_report_structure(self):
        cfg = full_cfg(d=5, w=3, h=3)
        report = tiling_guarantee_report(monotone_p3(), cfg, epsilon=0.5)
        assert len(report.per_level) == 5
        for lg in report.per_level:
            assert 0 <= lg.passing_pairs <= lg.total_pairs

    def test_budget_refusal(self):
        cfg = full_cfg(d=10, w=3, h=3)
        with pytest.raises(ValueError):
            tiling_guarantee_report(monotone_p3(), cfg, 0.5, budget=10)

    def test_budget_counts_classes(self):
        # d = L = 5, w = 2: positions 1..5 have 2, 4, 4, 2 and 1 classes
        cfg = full_cfg(d=5, w=2, h=2)
        edge = OrderedGraph(2, [(0, 1)])
        tiling_guarantee_report(edge, cfg, 0.5, budget=13)
        with pytest.raises(BudgetError, match="^13 y-classes exceed budget 12$"):
            tiling_guarantee_report(edge, cfg, 0.5, budget=12)

    def test_large_d_within_default_budget(self):
        cfg = full_cfg(d=40, w=4, h=3)
        report = tiling_guarantee_report(monotone_p3(), cfg, 0.5)
        assert [lg.level for lg in report.per_level] == list(range(1, 41))
        for lg in report.per_level:
            assert lg.total_pairs == tau(lg.level, 40)
            assert 0 <= lg.passing_pairs <= lg.total_pairs

    def test_score_overflow_is_refused(self):
        cfg = full_cfg(d=41, w=40, h=40)
        with pytest.raises(ValueError, match="overflow int64"):
            tiling_guarantee_report(complete_ordered(40), cfg, 0.5, budget=1 << 100)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            tiling_guarantee_report(monotone_p3(), full_cfg(5, 3, 3), epsilon)

    def test_pattern_size_must_match(self):
        cfg = full_cfg(5, 3, 3)
        with pytest.raises(ValueError):
            exact_edge_probability(OrderedGraph(2, [(0, 1)]), cfg, 0, 1)
        with pytest.raises(ValueError):
            tiling_guarantee_report(OrderedGraph(2, [(0, 1)]), cfg, 0.5)


# patterns whose vertex count is the chain length h
ORACLE_PATTERNS = {
    "edge": OrderedGraph(2, [(0, 1)]),
    "P3": monotone_p3(),
    "K3": complete_ordered(3),
    "H2": build_hk(2),
    "path4": OrderedGraph(4, [(0, 1), (1, 2), (2, 3)]),
}


@st.composite
def oracle_cases(draw):
    """(pattern, cfg, epsilon) with d <= 10 and a random ascending level set."""
    pattern = ORACLE_PATTERNS[draw(st.sampled_from(sorted(ORACLE_PATTERNS)))]
    h = pattern.n
    d = draw(st.integers(h + 1, 10))
    levels = draw(st.lists(st.integers(1, d), min_size=h + 1, max_size=d, unique=True))
    cfg = TilingConfig(d, tuple(sorted(levels)), draw(st.integers(h, len(levels) - 1)), h)
    epsilon = draw(st.sampled_from([0.5, 0.25, 0.75, 0.1, 0.9, 0.999]))
    if draw(st.booleans()):
        # pin some level's threshold exactly on the probability of some of its cells
        ratios = set()
        for level in cfg.levels:
            width = d - level
            scale = Fraction(cfg.L * tau(level, d), len(pattern.edges))
            for y in range(1 << d):
                if (y >> width) & 1:
                    x = y >> (width + 1) << (width + 1)
                    ratios.add(scale * exact_edge_probability(pattern, cfg, x, y))
        ties = sorted(r for r in ratios if 0 < r < 1)
        if ties:
            epsilon = 1 - draw(st.sampled_from(ties))
    return pattern, cfg, epsilon


class TestReportAgainstOracle:
    @given(oracle_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_cell_oracle(self, case):
        pattern, cfg, epsilon = case
        assert tiling_guarantee_report(pattern, cfg, epsilon) == oracle_guarantee_report(
            pattern, cfg, epsilon
        )

    def test_exact_threshold_counts_as_passing(self):
        # at eps = 1/4 the level-3 threshold equals the probability of the cells
        # y = 001xxx, the least nonzero one at that level
        pattern, cfg, level = monotone_p3(), full_cfg(6, 4, 3), 3
        p = exact_edge_probability(pattern, cfg, 0b000000, 0b001000)
        report = tiling_guarantee_report(pattern, cfg, 0.25)
        assert report == oracle_guarantee_report(pattern, cfg, 0.25)
        lg = report.per_level[level - 1]
        assert lg.threshold == p == Fraction(1, 1024)
        # every cell with nonzero probability passes, the tied ones included
        zero_cells = sum(
            1 << (6 - level)
            for y in range(1 << 6)
            if (y >> (6 - level)) & 1
            and exact_edge_probability(pattern, cfg, y & ~0b1111, y) == 0
        )
        assert lg.passing_pairs == lg.total_pairs - zero_cells
