"""Tests of the benchmark itself: its checks reject wrong outputs, its names match.

Run with ``python -m pytest bench`` from the root of the repository.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

P3 = (3, [(0, 1), (1, 2)])
K4 = {(u, v) for u in range(4) for v in range(u + 1, 4)}
# SOURCE {0, 1} -> SINK {2, 3}: the optimum floor(4^2/4) = 4 for P3 on K_4
K4_OPT = [(0, 2), (0, 3), (1, 2), (1, 3)]


def _exact(cert, best=None, **kw):
    oracles.check_exact_optimum(
        len(cert) if best is None else best, cert, True, *P3, 4, K4, **kw)


def _label(fn, *args, **kw) -> str:
    with pytest.raises(CheckFailed) as exc:
        fn(*args, **kw)
    return exc.value.label


class TestExactChecks:
    def test_accepts_optimum(self):
        _exact(K4_OPT, extremal=4, reference=(4, tuple(K4_OPT)))

    def test_rejects_extra_edge_outside_host(self):
        assert _label(_exact, K4_OPT + [(2, 7)]) == "subset"

    def test_rejects_extra_edge_creating_copy(self):
        assert _label(_exact, K4_OPT + [(2, 3)]) == "pattern-free"

    def test_rejects_non_maximal(self):
        assert _label(_exact, K4_OPT[:3]) == "maximal"

    def test_rejects_wrong_size(self):
        assert _label(_exact, K4_OPT, best=5) == "size"

    def test_rejects_wrong_extremal_and_reference(self):
        # {01, 02, 03} is maximal and P3-free but smaller than the optimum
        star = [(0, 1), (0, 2), (0, 3)]
        assert _label(_exact, star, extremal=4) == "extremal"
        assert _label(_exact, star, reference=(4, tuple(K4_OPT))) == "exhaustive"


class TestP3Checks:
    def test_accepts_quarter_subgraph(self):
        oracles.check_p3_free(K4_OPT, K4, min_edges=2)

    def test_rejects_increasing_path(self):
        assert _label(oracles.check_p3_free, [(0, 1), (1, 3)], K4) == "p3-free"

    def test_rejects_too_few_edges(self):
        assert _label(oracles.check_p3_free, [(0, 2)], K4, min_edges=2) == "quarter"


@pytest.fixture(scope="module")
def small_host():
    from relturan import graphio, hosts

    host = hosts.generate_host(4, 2, 7)
    return host, graphio.dumps_blocked(host)


class TestBlockedFileCheck:
    def test_accepts_roundtrip(self, small_host):
        host, text = small_host
        got = oracles.check_blocked_file(text, 2, 4, 7, host.blocks)
        assert oracles.blocked_level_counts(2, got) == host.level_counts()

    def test_rejects_corrupted_row(self, small_host):
        host, text = small_host
        lines = text.splitlines()
        lines[2] = format(int(lines[2], 16) ^ 1, "x")
        bad = "\n".join(lines) + "\n"
        assert _label(oracles.check_blocked_file, bad, 2, 4, 7, host.blocks) == "roundtrip"

    def test_rejects_malformed_and_truncated(self, small_host):
        host, text = small_host
        lines = text.splitlines()
        signed = "\n".join(lines[:2] + ["-" + lines[2][1:]] + lines[3:])
        assert _label(oracles.check_blocked_file, signed, 2, 4, 7, host.blocks) == "roundtrip"
        short = "\n".join(lines[:-1])
        assert _label(oracles.check_blocked_file, short, 2, 4, 7, host.blocks) == "roundtrip"
        assert _label(oracles.check_blocked_file, text, 2, 4, 8, host.blocks) == "roundtrip"


# d = 3 cube graph with edges 000-001, 000-011, 010-011: a copy of H_2 at 0 < 1 < 2 < 3
CUBE = "3 3\n000 001\n000 011\n010 011\n"


class TestWitnessCheck:
    def test_accepts_witness(self):
        oracles.check_witness([0, 1, 2, 3], 2, 3, oracles.cube_edge_lookup(CUBE, 3))

    @pytest.mark.parametrize("witness", [[0, 1, 2, 4], [0, 2, 1, 3], [0, 1, 2], [0, 1, 2, 9], None])
    def test_rejects_broken_witness(self, witness):
        has_edge = oracles.cube_edge_lookup(CUBE, 3)
        assert _label(oracles.check_witness, witness, 2, 3, has_edge) == "witness"

    def test_hk_edges_match_package(self):
        from relturan.patterns import build_hk

        assert sorted(oracles.hk_edges(3)) == sorted(build_hk(3).edges)


class TestCliOutputChecks:
    def test_richness_average_by_definition(self):
        d, counts = oracles.decode_cube(CUBE)
        # e_1 = 0 (tau 16), e_2 = 1 (tau 8), e_3 = 2 (tau 4): (0 + 1/8 + 1/2) / 3 = 5/24
        assert counts == [0, 0, 1, 2]
        out = {"d": 3, "m": 1, "level_counts": counts[1:], "rich_levels": [3], "rich_count": 1,
               "average_richness": {"num": "5", "den": "24"}}
        oracles.check_richness(out, d, 1, 0.5, counts)
        # the nominal 2^(d-1) m^2 normalisation gives (0 + 1 + 2) / 4 / 3 = 1/4
        out["average_richness"] = {"num": "1", "den": "4"}
        assert _label(oracles.check_richness, out, d, 1, 0.5, counts) == "average_richness"

    def test_blocked_richness_uses_capacity_times_m_squared(self):
        # d = 2, m = 2: capacities tau_l m^2 are 16 and 8, so (2/16 + 1/8) / 2 = 1/8
        counts = [0, 2, 1]
        out = {"d": 2, "m": 2, "level_counts": [2, 1], "rich_levels": [], "rich_count": 0,
               "average_richness": {"num": "1", "den": "8"}}
        oracles.check_richness(out, 2, 2, 0.5, counts)
        # the nominal 2^(d-1) m^2 = 8 gives (2/8 + 1/8) / 2 = 3/16
        out["average_richness"] = {"num": "3", "den": "16"}
        assert _label(oracles.check_richness, out, 2, 2, 0.5, counts) == "average_richness"

    def test_tile_sample_counts_must_sum(self):
        out = {"n_samples": 10, "per_slot_split_levels": [{"1": 6, "2": 4}, {"2": 9, "3": 1}]}
        oracles.check_tile_sample(out, 10, [1, 2, 3], 3)
        out["per_slot_split_levels"][1]["3"] = 2
        assert _label(oracles.check_tile_sample, out, 10, [1, 2, 3], 3) == "split-levels"


class TestTracing:
    def _span(self, sid, layer, kind, parent, start, end, fold_s=0.0):
        s = tracing.Span(sid, (0, "op"), layer, kind, parent)
        s.start, s.end, s.fold_s, s.fold_calls = start, end, fold_s, int(fold_s > 0)
        return s

    def test_self_times_add_up_and_nesting_counts_once(self):
        spans = [
            self._span(0, "bench", "op", None, 0.0, 10.0),
            self._span(1, "cli", "embed-hk", 0, 0.5, 9.5),
            self._span(2, "graphio", "load", 1, 1.0, 4.0),
            self._span(3, "graphio", "load", 2, 2.0, 3.0),
            self._span(4, "density", "exact", 1, 5.0, 8.0, fold_s=2.0),
        ]
        agg = tracing.aggregate(spans)
        assert agg["time"]["graphio", "load"] == 3.0 and agg["calls"]["graphio", "load"] == 1
        assert agg["self"]["density", "exact"] == 1.0
        assert agg["self_layer"]["patterns"] == 2.0
        assert agg["self_layer"]["cli"] == 3.0
        assert sum(agg["self_layer"].values()) == pytest.approx(10.0)


class TestBenchmarkSpec:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_match(self):
        e2e = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        assert e2e == run.END_TO_END
        assert {m["name"]: m["unit"] for m in self.spec["per_layer"]} == tracing.PER_LAYER

    def test_workloads_match(self):
        assert [w["name"] for w in self.spec["workloads"]] == list(workloads.WORKLOADS)

    def test_bounds(self):
        assert all(0 < m["bound"] <= 0.25 for m in self.spec["end_to_end"])


class TestNormalisation:
    def test_reference_speed_is_identity(self):
        assert run.normalised(2.0, run.CALIB_REF_S) == pytest.approx(2.0)

    def test_slow_phase_is_divided_out(self):
        # the same op on a machine running at 2/3 speed: op and loop both take 1.5x
        assert run.normalised(3.0, 1.5 * run.CALIB_REF_S) == pytest.approx(2.0)

    def test_calibration_loop_runs(self):
        assert 0 < run.calibrate() < 1

    def test_trimmed_mean_drops_one_outlier_each_side(self):
        assert run.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(3.0)
        assert run.trimmed_mean([1.0, 3.0]) == pytest.approx(2.0)
