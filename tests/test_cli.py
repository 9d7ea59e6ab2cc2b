import argparse
import ast
import csv
import hashlib
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from relturan import (__version__, cli, density, graphio, hosts, lemma_checks, patterns,
                      richness, tiling)
from relturan.cli import _jsonify, build_parser, main
from relturan.core import HypercubeGraph, OrderedGraph, delta_int
from relturan.graphio import read_blocked, write_hypercube, write_ordered
from relturan.hosts import complete_hypercube, complete_ordered, generate_host
from relturan.patterns import build_hk, contains_ordered, monotone_p3

#: every subcommand of the CLI
SUBCOMMANDS = ["gen-host", "classify", "solve", "analyze-richness", "embed-hk", "tile-sample",
               "tile-verify", "appendix-check", "report"]


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.og"
    write_ordered(path, monotone_p3())
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.og"
    write_ordered(path, complete_ordered(4))
    return str(path)


class TestClassify:
    def test_p3(self, p3_file, capsys):
        assert main(["classify", "--pattern", p3_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["has_monotone_p3"] is True
        assert out["chi_interval"] == 3
        assert out["classification"] == "AT_LEAST_QUARTER"

    def test_h4(self, tmp_path, capsys):
        path = tmp_path / "h4.og"
        write_ordered(path, build_hk(4))
        assert main(["classify", "--pattern", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "ZERO"
        assert out["chi_interval"] == 5
        assert out["hk_embedding"] is not None

    @pytest.mark.parametrize("pattern, classification, hk_embedding", [
        (monotone_p3(), "AT_LEAST_QUARTER", None),
        (build_hk(3), "ZERO", [0, 3, 4, 7, 8, 11]),
        (OrderedGraph(2, [(0, 1)]), "ZERO", [0, 3]),
        (OrderedGraph(3, []), None, None),
    ], ids=["p3", "h3", "edge", "edgeless"])
    def test_classification_and_hk_embedding(self, pattern, classification, hk_embedding,
                                             tmp_path, capsys):
        # zero density iff no monotone P3, and an edgeless pattern gets no class
        path = tmp_path / "pattern.og"
        write_ordered(path, pattern)
        assert main(["classify", "--pattern", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["classification"], out["hk_embedding"]) == (classification, hk_embedding)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["classify", "--pattern", str(tmp_path / "nope.og")]) == 2

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.og"
        path.write_text("not a graph\n")
        assert main(["classify", "--pattern", str(path)]) == 2


class TestSolve:
    def test_p3_on_k4(self, p3_file, k4_file, capsys):
        assert main(["solve", "--pattern", p3_file, "--host", k4_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_edges"] == 4 and out["total"] == 6

    def test_modes_agree(self, p3_file, k4_file, capsys):
        # the exact mode gives the exhaustive oracle's optimum and least certificate
        ref = density.rho_exhaustive(monotone_p3(), complete_ordered(4))
        assert main(["solve", "--pattern", p3_file, "--host", k4_file, "--mode", "exact"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["best_edges"], out["exact"]) == (ref.best_edge_count, True)
        assert out["certificate"] == [list(e) for e in ref.certificate]

    def test_copy_table_past_its_cap_is_usage_error(self, p3_file, k4_file, capsys, monkeypatch):
        # K_4 has 4 copies of P3, each charged 56 bytes
        monkeypatch.setattr(patterns, "_MAX_BUILD_BYTES", 100)
        assert main(["solve", "--pattern", p3_file, "--host", k4_file, "--mode", "exact"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: more than 1 copies of the pattern exceed 100 bytes\n"

    @pytest.mark.parametrize("mode", ["local", "exact"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_budget_is_usage_error(self, p3_file, k4_file, capsys, mode, value):
        # 0 used to mean the default and -3 ran no rounds; both exited 0
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--pattern", p3_file, "--host", k4_file,
                  "--mode", mode, "--budget", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must be at least 1" in err

    def test_budget_in_exhaustive_mode_is_usage_error(self, p3_file, k4_file, capsys):
        # exhaustive mode gave the exact mode's answer on hosts of at most 20
        # edges, and refused --budget; it is no longer a mode
        for budget in ([], ["--budget", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--pattern", p3_file, "--host", k4_file,
                      "--mode", "exhaustive", *budget])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "invalid choice: 'exhaustive'" in captured.err

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_seed_in_exact_mode_is_usage_error(self, p3_file, k4_file, capsys, seed):
        # the exact search draws nothing; --seed used to be taken and not read
        assert main(["solve", "--pattern", p3_file, "--host", k4_file, "--mode", "exact",
                     "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed seeds the local search; --mode exact reads none\n"

    def test_local_seed_defaults_to_0(self, p3_file, tmp_path, capsys):
        k8 = tmp_path / "k8.og"
        write_ordered(k8, complete_ordered(8))
        argv = ["solve", "--pattern", p3_file, "--host", str(k8), "--mode", "local",
                "--budget", "20"]
        runs = []
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            assert main([*argv, *seed]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        want = density.rho_local_search(monotone_p3(), complete_ordered(8), budget=20, seed=5)
        assert json.loads(runs[2])["certificate"] == [list(e) for e in want.certificate]

    def test_local_budget_counts_rounds(self, p3_file, k4_file, capsys):
        assert main(["solve", "--pattern", p3_file, "--host", k4_file,
                     "--mode", "local", "--budget", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes_explored"] == 1

    def test_local_mode_prints_the_same_json_interpreted(self, tmp_path, capsys, monkeypatch):
        # P4's searches are generated from source; the interpreted ones print
        # the same bytes
        write_ordered(tmp_path / "p4.og", monotone_p3(4))
        write_ordered(tmp_path / "host.og", generate_host(4, 3, 1).to_ordered())
        argv = ["solve", "--pattern", str(tmp_path / "p4.og"), "--host", str(tmp_path / "host.og"),
                "--mode", "local", "--budget", "50"]
        assert main(argv) == 0
        generated = capsys.readouterr().out
        monkeypatch.setattr(patterns, "_generated_searches", lambda pattern: None)
        assert main(argv) == 0
        assert capsys.readouterr().out == generated

    def test_local_mode_k6_prints_the_interpreted_json(self, tmp_path, capsys):
        # K_6's searches are generated from source; the JSON is pinned to
        # what its interpreted searches printed before any search was
        # generated (36 of K_10's 45 edges)
        k6 = OrderedGraph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
        write_ordered(tmp_path / "k6.og", k6)
        write_ordered(tmp_path / "k10.og", complete_ordered(10))
        assert main(["solve", "--pattern", str(tmp_path / "k6.og"), "--host",
                     str(tmp_path / "k10.og"), "--mode", "local", "--budget", "40"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["best_edges"] == 36
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c7f105426e3ac4241f895489659bf6e2efb8f9fff865f7054eeff8e4a376ff64")

    def test_local_mode_past_the_source_cap(self, tmp_path, capsys):
        # K_11's source would pass the cap, so its searches stay interpreted;
        # the JSON is pinned to what they printed when the cap was 2^15
        # (64 of K_12's 66 edges)
        k11 = OrderedGraph(11, [(u, v) for u in range(11) for v in range(u + 1, 11)])
        assert patterns._search_source(k11) is None
        write_ordered(tmp_path / "k11.og", k11)
        write_ordered(tmp_path / "k12.og", complete_ordered(12))
        assert main(["solve", "--pattern", str(tmp_path / "k11.og"), "--host",
                     str(tmp_path / "k12.og"), "--mode", "local", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["best_edges"] == 64
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "33cc445e8a58d22a19b5e183983838138d11801f2b8762d00cbdbc004b46beb2")

    def test_local_mode_on_a_600_vertex_star_pattern(self, tmp_path, capsys):
        # generating the star's searches ran out of memory (exit 1); now
        # generation stops at the cap and the interpreted searches run
        star = OrderedGraph(600, [(0, i) for i in range(1, 600)])
        write_ordered(tmp_path / "star.og", star)
        write_ordered(tmp_path / "k8.og", complete_ordered(8))
        assert main(["solve", "--pattern", str(tmp_path / "star.og"), "--host",
                     str(tmp_path / "k8.og"), "--mode", "local", "--budget", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_edges"] == 28 and out["total"] == 28

    def test_budget_before_first_leaf_reports_the_greedy_seed(self, p3_file, tmp_path, capsys):
        # the search starts from a greedy maximal P3-free set, here {0, 1} -> {2, 3, 4}
        k5 = tmp_path / "k5.og"
        write_ordered(k5, complete_ordered(5))
        assert main(["solve", "--pattern", p3_file, "--host", str(k5),
                     "--mode", "exact", "--budget", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best_edges"] == 6 and out["exact"] is False
        assert out["certificate"] == [[u, v] for u in (0, 1) for v in (2, 3, 4)]
        assert out["ratio"]["float"] == 0.6

    def test_deep_search_within_budget(self, p3_file, tmp_path, capsys):
        # K_50 has 1,225 edges, so the search runs far deeper than Python's
        # recursion limit before the budget stops it
        k50 = tmp_path / "k50.og"
        write_ordered(k50, complete_ordered(50))
        assert main(["solve", "--pattern", p3_file, "--host", str(k50),
                     "--mode", "exact", "--budget", "3000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] is False and out["total"] == 1225
        # the greedy seed is already an optimum, 25 x 25 edges, and the
        # search does not prove it within the budget; from threshold 0 it
        # reached 348 edges
        assert out["best_edges"] == 625 and out["nodes_explored"] == 3001
        cert = [tuple(e) for e in out["certificate"]]
        assert len(cert) == out["best_edges"] > 0
        assert hashlib.sha256(repr(tuple(cert)).encode()).hexdigest() == (
            "fed39a10ae8dc07fb88032f1a042c75bd507018fac90b369718156d64fd61e9b")
        assert set(cert) <= complete_ordered(50).edges
        assert contains_ordered(monotone_p3(), OrderedGraph(50, cert)) is None


class TestGenHost:
    def test_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "host.rg"
        assert main(["gen-host", "--d", "2", "--m", "4", "--seed", "3",
                     "--out", str(out_file)]) == 0
        loaded = read_blocked(out_file)
        assert loaded == generate_host(4, 2, seed=3)
        stats = json.loads(capsys.readouterr().out)
        assert stats["edges"] == loaded.num_edges()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-host", "--d", "2", "--m", "4", "--seed", "-1",
                  "--out", str(tmp_path / "host.rg")])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_seed_beyond_uint64_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-host", "--d", "2", "--m", "4", "--seed", str(2**64),
                  "--out", str(tmp_path / "host.rg")])
        assert exc.value.code == 2
        assert "2^64" in capsys.readouterr().err

    def test_largest_seed_is_accepted(self, tmp_path, capsys):
        out_file = tmp_path / "host.rg"
        assert main(["gen-host", "--d", "2", "--m", "3", "--seed", str(2**64 - 1),
                     "--out", str(out_file)]) == 0
        assert read_blocked(out_file) == generate_host(3, 2, seed=2**64 - 1)

    def test_host_beyond_memory_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 2^16 vertices pass the vertex budget, but 2^31 block pairs do not fit;
        # triu_indices fails here so that a missing guard cannot allocate them
        monkeypatch.setattr(np, "triu_indices", None)
        assert main(["gen-host", "--d", "16", "--m", "1", "--out", str(tmp_path / "h.rg")]) == 2
        assert "block pairs" in capsys.readouterr().err
        assert not (tmp_path / "h.rg").exists()

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--json"]])
    def test_removed_flags_are_usage_errors(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-host", "--d", "2", "--m", "4", "--out", str(tmp_path / "h.rg"), *flag])
        assert exc.value.code == 2


class TestAnalyzeRichness:
    def test_blocked_host(self, tmp_path, capsys):
        out_file = tmp_path / "host.rg"
        main(["gen-host", "--d", "3", "--m", "8", "--seed", "0", "--out", str(out_file)])
        capsys.readouterr()
        assert main(["analyze-richness", "--host", str(out_file), "--alpha", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == 3 and out["m"] == 8
        assert len(out["level_counts"]) == 3
        avg = richness.average_richness([0, *out["level_counts"]], 3, 8)
        assert out["average_richness"]["num"] == str(avg.numerator)
        assert out["average_richness"]["den"] == str(avg.denominator)

    def test_complete_cube_average_is_one(self, tmp_path, capsys):
        # each level against its capacity tau_l: the complete cube fills all of them
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(4))
        assert main(["analyze-richness", "--host", str(host_file), "--alpha", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["average_richness"] == {"num": "1", "den": "1", "float": 1.0}
        assert out["rich_levels"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("kind", ["blocked", "cube"])
    def test_alpha_outside_unit_interval_is_usage_error(self, alpha, kind, tmp_path, capsys):
        host_file = tmp_path / "host.txt"
        if kind == "blocked":
            graphio.write_blocked(host_file, generate_host(4, 2, seed=0))
        else:
            write_hypercube(host_file, complete_hypercube(3))
        with pytest.raises(SystemExit) as exc:
            main(["analyze-richness", "--host", str(host_file), "--alpha", alpha])
        assert exc.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    @pytest.mark.parametrize("argv, host", [
        (["analyze-richness", "--alpha", "0.5"], lambda path: graphio.write_blocked(
            path, generate_host(4, 2, seed=0))),
        (["analyze-richness", "--alpha", "0.5"], lambda path: write_hypercube(
            path, complete_hypercube(3))),
        (["embed-hk", "--k", "2"], lambda path: write_hypercube(path, complete_hypercube(3))),
    ], ids=["analyze-richness-blocked", "analyze-richness-cube", "embed-hk"])
    def test_a_pipe_reads_as_the_file(self, argv, host, tmp_path, capsys):
        # a pipe cannot be opened twice, to sniff its header and then to read it
        host_file = tmp_path / "host.txt"
        host(host_file)
        assert main([*argv, "--host", str(host_file)]) == 0
        want = capsys.readouterr().out
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:  # a few hundred bytes: within the pipe's buffer
            fh.write(host_file.read_bytes())
        try:
            assert main([*argv, "--host", f"/dev/fd/{read_end}"]) == 0
        finally:
            os.close(read_end)
        assert capsys.readouterr().out == want

    def test_alpha_one_is_accepted_on_blocked_host(self, tmp_path, capsys):
        host_file = tmp_path / "host.rg"
        graphio.write_blocked(host_file, generate_host(4, 2, seed=0))
        assert main(["analyze-richness", "--host", str(host_file), "--alpha", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        # level 1 pairs are present with probability 2^(1-d) = 1/2, so not all there
        assert 1 not in out["rich_levels"] and 2 in out["rich_levels"]


class TestEmbedHk:
    def test_success_with_trace(self, tmp_path, capsys):
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(5))
        assert main(["embed-hk", "--host", str(host_file), "--k", "2",
                     "--out-dir", str(tmp_path / "run")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["embedded"] is True
        trace = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert "extraction" in trace and trace["witness"] == out["witness"]

    @pytest.mark.parametrize("d, k, epsilon, digest", [
        (5, 2, [], "bc9624a3e009b2c2f65f17b49df67a183e20e8f01ceb455088c2c898a6ab3feb"),
        (5, 2, ["--epsilon", "0.5"], "d8fed60b8dce93577d4f156b534eafc06ccda76603fabacbf6a7954bc053c247"),
        (6, 3, ["--epsilon", "0.5"], "c63e010d3e3568c2c9eb6da031afc74a35b0901a14714ecb5c5f2a87e21549c2"),
    ], ids=["desk", "paper-d5", "paper-d6"])
    def test_trace_json_bytes_are_pinned(self, d, k, epsilon, digest, tmp_path, capsys):
        # the bytes --trace FILE wrote for the same run, with --preset paper for --epsilon
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(d))
        assert main(["embed-hk", "--host", str(host_file), "--k", str(k), *epsilon,
                     "--out-dir", str(tmp_path / "run")]) == 0
        trace = (tmp_path / "run" / "trace.json").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == digest
        assert json.loads(trace)["preset"] == ("paper" if epsilon else "desk")

    def test_failure_exits_1(self, tmp_path, capsys):
        host_file = tmp_path / "sparse.hg"
        write_hypercube(host_file, HypercubeGraph(3, [(0, 4)]))
        assert main(["embed-hk", "--host", str(host_file), "--k", "3"]) == 1

    def test_invalid_witness_exits_1(self, tmp_path, capsys, monkeypatch):
        # the witness is re-validated by an explicit check, so this holds under -O
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(4))
        calls = []

        def bad_embedding(g, k, res, thresholds):
            calls.append((k, res))
            return (3, 2, 1, 0)

        monkeypatch.setattr(richness, "embed_hk_extracted", bad_embedding)
        assert main(["embed-hk", "--host", str(host_file), "--k", "2"]) == 1
        assert "not an ordered copy" in capsys.readouterr().err
        # the CLI hands its own top-level extraction on instead of running it again
        assert len(calls) == 1
        assert calls[0][0] == 2 and isinstance(calls[0][1], richness.ExtractionResult)

    def test_witness_matches_library(self, tmp_path, capsys):
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(6))
        for k in (1, 2, 3):
            assert main(["embed-hk", "--host", str(host_file), "--k", str(k)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["witness"] == list(richness.embed_hk_rich(complete_hypercube(6), k))

    def test_bad_k_is_usage_error(self, tmp_path, capsys):
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(3))
        assert main(["embed-hk", "--host", str(host_file), "--k", "0"]) == 2

    @pytest.mark.parametrize("value", ["-5", "0", "1.5", "inf", "nan"])
    def test_epsilon_outside_unit_interval_is_usage_error(self, tmp_path, capsys, value):
        host_file = tmp_path / "cube.hg"
        write_hypercube(host_file, complete_hypercube(3))
        with pytest.raises(SystemExit) as exc:
            main(["embed-hk", "--host", str(host_file), "--k", "2", "--epsilon", value])
        assert exc.value.code == 2
        assert "must be in (0, 1]" in capsys.readouterr().err

    def test_epsilon_runs_the_paper_preset(self, tmp_path, capsys):
        # the stdout --preset paper --epsilon X printed, and the library's
        # witness under Thresholds.paper(X); without --epsilon, the desk preset
        runs = [
            (5, 3, "0.5", 1, "05c2ff530611b79563eab0e1a60465ffedebdcc91cd051ecdd64bc20e2f218dd"),
            (6, 3, "0.5", 0, "2594a7798f9a031378c68204a34d723b573b7a6f8032ca84108bc1ede20a6502"),
            (6, 2, "1", 1, "6327fb1ace6981ad9d56b1872ef3733d3054baf91a7673061ab10415eeec22e3"),
            (6, 2, "0.1", 0, "5b8d1fb80ac5d1d247a6c0203ecbfc238624edc47cd2a89e4491595538d1a9b3"),
        ]
        for d, k, epsilon, code, digest in runs:
            host_file = tmp_path / f"cube{d}.hg"
            write_hypercube(host_file, complete_hypercube(d))
            argv = ["embed-hk", "--host", str(host_file), "--k", str(k)]
            assert main([*argv, "--epsilon", epsilon]) == code
            captured = capsys.readouterr()
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
            assert code == 0 or "under the paper preset" in captured.err
            paper = richness.Thresholds.paper(float(epsilon))
            witness = richness.embed_hk_rich(complete_hypercube(d), k, paper)
            assert json.loads(captured.out)["witness"] == (witness and list(witness))
            main(argv)
            desk = richness.embed_hk_rich(complete_hypercube(d), k, richness.Thresholds.desk())
            assert json.loads(capsys.readouterr().out)["witness"] == (desk and list(desk))


class TestAppendixCheck:
    def test_pass(self, capsys):
        params = json.dumps({"alpha": "1/2", "eps": "1/5", "k": 2, "eta": "1/8", "n": 100})
        assert main(["appendix-check", "--lemma", "a1", "--params", params]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_fail_exits_1(self, capsys):
        params = json.dumps({"alpha": "1/2", "eps": "1/16", "k": 2, "eta": "1/8", "n": 16})
        assert main(["appendix-check", "--lemma", "a1", "--params", params]) == 1

    def test_binomials_beyond_double_range_stay_exact(self, capsys):
        params = {"alpha": "1/2", "eps": "1/10", "k": 600, "eta": "1/10", "n": 2000}
        report = lemma_checks.check_binomial_fraction(**params)
        assert main(["appendix-check", "--lemma", "a1", "--params", json.dumps(params)]) == (
            0 if report.passed else 1
        )
        out = json.loads(capsys.readouterr().out)
        for key in ("lhs", "rhs", "margin"):
            exact = getattr(report, key)
            assert out[key]["num"] == str(exact.numerator)
            assert out[key]["den"] == str(exact.denominator)
        assert out["rhs"]["float"] is None
        assert out["params"]["alpha"]["float"] == 0.5

    def test_fractions_past_the_int_digit_limit_are_written_whole(self, capsys):
        # lhs is C(25000, 20000), 5,431 digits: Python's limit of 4,300 made
        # the valid check exit 2 after computing it
        params = {"alpha": "1/2", "eps": 0.1, "k": 20000, "eta": "1/4", "n": 100000}
        limit = sys.get_int_max_str_digits()
        assert main(["appendix-check", "--lemma", "a1", "--params", json.dumps(params)]) == 0
        assert sys.get_int_max_str_digits() == limit  # restored after writing
        out = json.loads(capsys.readouterr().out)
        sys.set_int_max_str_digits(0)
        try:
            want = str(math.comb(25000, 20000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (out["lhs"]["num"], out["lhs"]["den"]) == (want, "1")

    def test_fraction_past_the_digit_cap_is_usage_error(self, capsys, monkeypatch):
        # lhs is C(1250, 1000), 271 digits, over a cap lowered to 200
        monkeypatch.setattr(cli, "MAX_DIGITS", 200)
        params = {"alpha": "1/2", "eps": 0.1, "k": 1000, "eta": "1/4", "n": 5000}
        limit = sys.get_int_max_str_digits()
        assert main(["appendix-check", "--lemma", "a1", "--params", json.dumps(params)]) == 2
        assert sys.get_int_max_str_digits() == limit
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: an exact fraction of up to ")
        assert err.rstrip().endswith("digits exceeds 200")

    def test_identity_mode(self, capsys):
        params = json.dumps({"n_max": 20})
        assert main(["appendix-check", "--lemma", "a3", "--params", params]) == 0

    def test_bad_json_is_usage_error(self):
        assert main(["appendix-check", "--lemma", "a1", "--params", "{oops"]) == 2

    @pytest.mark.parametrize("lemma, params, message", [
        ("a1", [1], "params must be a JSON object"),
        ("a2", {"n": 1024, "eps": 0.3, "n_samples": 10, "seed": 1, "bogus": 1},
         "unexpected keyword argument 'bogus'"),
        ("a2", {"n": 1024, "eps": 0.3, "n_samples": 10}, "missing a required argument: 'seed'"),
        ("a3", {"n_max": "x"}, 'param n_max must be an integer, got "x"'),
        ("a3", {"n_max": True}, "param n_max must be an integer, got true"),
        ("a2", {"n": 1024, "eps": "0.3", "n_samples": 10, "seed": 1},
         'param eps must be a number, got "0.3"'),
        ("a2", {"n": 8, "eps": 0.3, "n_samples": 10, "seed": 1, "exhaustive": "no"},
         'param exhaustive must be true or false, got "no"'),
        ("a1", {"alpha": [1], "eps": "1/5", "k": 2, "eta": "1/8", "n": 100},
         "param alpha must be a number or a fraction string, got [1]"),
        ("a1", {"alpha": "1/2", "eps": True, "k": 2, "eta": "1/8", "n": 100},
         "param eps must be a number or a fraction string, got true"),
        ("a3", {"f": 5, "n": 5, "x": 1, "y": 1, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "param f must be a list of numbers or fraction strings, got 5"),
        ("a3", {"f": [0.5, [1]], "n": 2, "x": 0, "y": 0, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "param f must be a list of numbers or fraction strings, got [0.5, [1]]"),
        # json.loads reads Infinity and 1e400 as float("inf"), which Fraction refuses
        # with an OverflowError and a2 would compare as a threshold
        ("a1", {"alpha": float("inf"), "eps": "1/5", "k": 2, "eta": "1/8", "n": 100},
         "param alpha must be a number or a fraction string, got Infinity"),
        ("a2", {"n": 64, "eps": float("nan"), "n_samples": 5, "seed": 1},
         "param eps must be a number, got NaN"),
        # Fraction("1/0") raises ZeroDivisionError, which is no usage error
        ("a1", {"alpha": "1/2", "eps": 0.1, "k": 2, "eta": "1/0", "n": 10},
         'param eta must be a number or a fraction string, got "1/0"'),
        ("a3", {"f": [0.5, "1/0"], "n": 2, "x": 0, "y": 0, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         'param f must be a list of numbers or fraction strings, got [0.5, "1/0"]'),
        # Fraction("1e1000000") builds 10^1000000, about 0.6 s, and
        # "1e10000000" took 13 s: an exponent past 4300 in size is refused
        ("a1", {"alpha": "1/2", "eps": 0.1, "k": 2, "eta": "1e1000000", "n": 10},
         'param eta must be a number or a fraction string, got "1e1000000"'),
        ("a3", {"f": [0.5, "1e-1000000"], "n": 2, "x": 0, "y": 0, "alpha": 0.5, "eps": 0.1,
                "eta": 0.1},
         'param f must be a list of numbers or fraction strings, got [0.5, "1e-1000000"]'),
        # each of these checked nothing and passed (exit 0), or leaked math.comb's
        # "k must be a non-negative integer"
        ("a3", {"n_max": 0}, "need n_max >= 1, got 0"),
        ("a3", {"n_max": -5}, "need n_max >= 1, got -5"),
        ("a3", {"f": [], "n": 0, "x": 0, "y": 0, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "need n >= 1, got 0"),
        ("a3", {"f": [0.5, 0.5], "n": 2, "x": 5, "y": 5, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "need x + y + 1 <= n, got x + y + 1 = 11 > n = 2"),
        ("a3", {"f": [0.5, 0.5], "n": 2, "x": -1, "y": 0, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "need x >= 0, got -1"),
        ("a3", {"f": [0.5] * 4, "n": 4, "x": 1, "y": -2, "alpha": 0.5, "eps": 0.1, "eta": 0.1},
         "need y >= 0, got -2"),
    ], ids=["a1-list", "a2-unknown-key", "a2-missing-key", "a3-string-int", "a3-bool-int",
            "a2-string-eps", "a2-string-exhaustive", "a1-list-alpha", "a1-bool-eps",
            "a3-int-f", "a3-nested-f", "a1-infinite-alpha", "a2-nan-eps",
            "a1-zero-denominator-eta", "a3-zero-denominator-f", "a1-huge-exponent-eta",
            "a3-huge-exponent-f", "a3-n-max-0", "a3-n-max-negative", "a3-n-0", "a3-x-y-past-n",
            "a3-negative-x", "a3-negative-y"])
    def test_bad_params_are_usage_errors(self, lemma, params, message, capsys):
        start = time.perf_counter()
        assert main(["appendix-check", "--lemma", lemma, "--params", json.dumps(params)]) == 2
        assert time.perf_counter() - start < 0.5  # each is refused in milliseconds
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    def test_fraction_exponents_up_to_the_int_digit_limit_are_read(self):
        for text in ("1e-3", "1/3", "0.25", "1E4300", "2.5e-4300", "1e+0_1"):
            assert cli._is_fraction(text), text
        for text in ("1e4301", "1e-4301", "1e", "1e1.5", "e5"):
            assert not cli._is_fraction(text), text

    def test_fraction_strings_and_numbers_are_accepted(self, capsys):
        params = {"f": [0.5, "1/2", 1, 0, "0.5"], "n": 5, "x": 1, "y": 1,
                  "alpha": "1/2", "eps": 0.5, "eta": 0}
        report = lemma_checks.check_binomial_average(**params)
        assert main(["appendix-check", "--lemma", "a3", "--params", json.dumps(params)]) == (
            0 if report.passed else 1
        )
        assert json.loads(capsys.readouterr().out)["passed"] is report.passed

    @pytest.mark.parametrize("lemma, params, message", [
        ("a1", {"alpha": 0.5, "eps": 0.1, "k": 100_000_000, "eta": 0.1, "n": 1_000_000_000},
         "C(1000000000, 100000000) has more than 100000 digits"),
        ("a2", {"n": 100_000_000, "eps": 0.1, "n_samples": 1, "seed": 0},
         "1 x 33999827110 window sums exceed 2147483648"),
        ("a3", {"n_max": 100_000}, "n_max 100000 exceeds 100"),
        ("a3", {"f": [0.5] * 20_000, "n": 20_000, "x": 1, "y": 1, "alpha": 0.5, "eps": 0.1,
                "eta": 0.001}, "199630171 premise windows exceed 262144"),
    ], ids=["a1-binomial", "a2-window-sums", "a3-n-max", "a3-premise-windows"])
    def test_sizes_past_the_bounds_are_usage_errors(self, lemma, params, message, capsys):
        # each ran past 10 s before it was refused up front
        start = time.perf_counter()
        assert main(["appendix-check", "--lemma", lemma, "--params", json.dumps(params)]) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("extra", [{"n_samples": 0}, {"seed": -1}, {"seed": 2**64}])
    def test_a2_bad_samples_or_seed_is_usage_error(self, extra, capsys):
        params = json.dumps({"n": 1024, "eps": 0.3, "n_samples": 10, "seed": 1, **extra})
        assert main(["appendix-check", "--lemma", "a2", "--params", params]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFileSystemErrors:
    @pytest.mark.parametrize("case", ["out-is-a-dir", "pattern-is-a-dir", "trace-under-a-file",
                                      "out-dir-is-a-file"])
    def test_user_path_errors_are_usage_errors(self, case, p3_file, tmp_path, capsys):
        a_dir, a_file = tmp_path / "dir", tmp_path / "file"
        a_dir.mkdir()
        a_file.write_text("")
        cube = tmp_path / "cube.hg"
        write_hypercube(cube, complete_hypercube(3))
        argv = {
            "out-is-a-dir": ["gen-host", "--d", "2", "--m", "2", "--out", str(a_dir)],
            "pattern-is-a-dir": ["classify", "--pattern", str(a_dir)],
            "trace-under-a-file": ["embed-hk", "--host", str(cube), "--k", "1",
                                   "--out-dir", str(a_file / "run")],
            "out-dir-is-a-file": ["classify", "--pattern", p3_file, "--out-dir", str(a_file)],
        }[case]
        assert main(argv) == 2
        # a failed run prints no result
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestManifest:
    def test_written_with_out_dir(self, p3_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["classify", "--pattern", p3_file, "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["seed"] is None  # classify takes no --seed
        assert "pattern" in manifest["input_digests"]
        result = json.loads((out_dir / "result.json").read_text())
        assert result == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("argv, seed", [
        (["solve", "--mode", "exact"], None),
        (["solve", "--mode", "local", "--budget", "3"], 0),
        (["solve", "--mode", "local", "--budget", "3", "--seed", "9"], 9),
        (["report"], None),
    ], ids=["solve-exact", "solve-local", "solve-local-seed-9", "report"])
    def test_seed_is_the_seed_the_run_read(self, argv, seed, p3_file, k4_file, tmp_path, capsys):
        # a report's seeds are its grid's; an exact solve reads none
        grid = tmp_path / "grid.json"
        grid.write_text('{"m": 2, "d_values": [2], "seeds": [3]}')
        inputs = ["--grid", str(grid)] if argv[0] == "report" else ["--pattern", p3_file,
                                                                    "--host", k4_file]
        assert main([*argv, *inputs, "--out-dir", str(tmp_path / "run")]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == seed
        assert manifest["params"].get("seed") == seed

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_input_digests_are_the_input_flags(self, command, p3_file, k4_file, tmp_path, capsys):
        # each --pattern, --host and --grid file the subcommand reads, and no other
        blocked, cube, grid = tmp_path / "host.rg", tmp_path / "cube.hg", tmp_path / "grid.json"
        graphio.write_blocked(blocked, generate_host(4, 2, seed=0))
        write_hypercube(cube, complete_hypercube(4))
        grid.write_text('{"m": 2, "d_values": [2]}')
        tile = ["--pattern", p3_file, "--d", "6", "--levels", "1,2,3,4,5,6", "--w", "4"]
        argv, inputs = {
            "gen-host": (["--d", "2", "--m", "2", "--out", str(tmp_path / "g.rg")], {}),
            "classify": (["--pattern", p3_file], {"pattern": p3_file}),
            "solve": (["--pattern", p3_file, "--host", k4_file],
                      {"pattern": p3_file, "host": k4_file}),
            "analyze-richness": (["--host", str(blocked), "--alpha", "0.5"], {"host": blocked}),
            "embed-hk": (["--host", str(cube), "--k", "2"], {"host": cube}),
            "tile-sample": ([*tile, "--n-samples", "10"], {"pattern": p3_file}),
            "tile-verify": ([*tile, "--epsilon", "0.5"], {"pattern": p3_file}),
            "appendix-check": (["--lemma", "a3", "--params", '{"n_max": 5}'], {}),
            "report": (["--grid", str(grid)], {"grid": grid}),
        }[command]
        out_dir = tmp_path / "run"
        assert main([command, *argv, "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["input_digests"] == {
            name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in inputs.items()}

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_a_pipe_input_has_no_digest(self, tmp_path, capsys):
        # the command drains the pipe, so a digest taken after it would be
        # that of no bytes, e3b0c442...
        host_file = tmp_path / "host.rg"
        graphio.write_blocked(host_file, generate_host(4, 2, seed=0))
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:  # a few hundred bytes: within the pipe's buffer
            fh.write(host_file.read_bytes())
        out_dir = tmp_path / "run"
        try:
            assert main(["analyze-richness", "--alpha", "0.5", "--host", f"/dev/fd/{read_end}",
                         "--out-dir", str(out_dir)]) == 0
        finally:
            os.close(read_end)
        assert json.loads((out_dir / "manifest.json").read_text())["input_digests"] == {
            "host": None}


class TestThinShell:
    """``cli`` prints what the commands return and does no numerical work of its own."""

    tree = ast.parse(Path(cli.__file__).read_text())

    def top_level(self):
        """Each top-level function of cli.py with the nodes inside it."""
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, list(ast.walk(node))

    def test_every_subcommand_is_covered(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(SUBCOMMANDS)

    def test_main_alone_emits_and_sets_exit_codes(self):
        emitters, exits = set(), set()
        for name, nodes in self.top_level():
            for node in nodes:
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_emit":
                    emitters.add(name)
                if isinstance(node, ast.Return) and type(getattr(node.value, "value", None)) is int:
                    exits.add(name)  # an exit code
                if name.startswith("cmd_") and isinstance(node, ast.Return):
                    # (result, failure): a failed check is a message, not an exit code
                    assert isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2, name
        assert emitters == {"main"} and exits == {"main"}
        # no exit besides main's return value and the script entry point
        calls = [node for node in ast.walk(self.tree) if isinstance(node, ast.Call)]
        assert [ast.unparse(c) for c in calls if "exit" in ast.unparse(c.func)] == ["sys.exit(main())"]
        assert not any(isinstance(node, ast.Raise) and "Exit" in ast.unparse(node)
                       for node in ast.walk(self.tree))

    def test_no_numpy_and_no_private_names_of_other_modules(self):
        modules = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.split(".")[0] == "numpy" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level or node.module.split(".")[0] != "numpy"
                if node.level:  # a relturan module: its names, or the modules themselves
                    names = [alias.name for alias in node.names]
                    assert not [n for n in names if n.startswith("_") and not n.startswith("__")]
                    if node.module is None:
                        modules.update(alias.asname or alias.name for alias in node.names)
        assert {"graphio", "hosts", "tiling", "lemma_checks"} <= modules
        private = sorted(
            ast.unparse(node) for node in ast.walk(self.tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
            and not node.attr.startswith("__"))
        assert private == []


class TestReport:
    def test_quarter_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"experiment": "quarter-density", "m": 3, "d_values": [2, 3], "seeds": [0]}
        ))
        out_dir = tmp_path / "rep"
        assert main(["report", "--grid", str(grid), "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "report.csv").read_text().splitlines()
        assert lines[0].startswith("d,m,seed,status")
        assert len(lines) == 3
        for line in lines[1:]:
            ratio = float(line.split(",")[6])
            assert ratio >= 0.25  # constructor guarantee

    @pytest.mark.parametrize("experiment", ["quarter-density", "local-density"])
    def test_rows_count_what_the_density_functions_keep(self, experiment, tmp_path, capsys):
        # the grid the CI step runs: m = 4, d = 2 and 3, seed 0, 10 local rounds
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"experiment": experiment, "m": 4, "d_values": [2, 3], "seeds": [0]}
        ))
        budget = ["--budget", "10"] if experiment == "local-density" else []
        assert main(["report", "--grid", str(grid), *budget, "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["d"], row["status"]) for row in rows] == [("2", "ok"), ("3", "ok")]
        for row in rows:
            host = generate_host(4, int(row["d"]), 0).to_ordered()
            if experiment == "quarter-density":
                kept = density.quarter_free_subgraph(host).num_edges()
            else:
                kept = density.rho_local_search(monotone_p3(), host, budget=10, seed=0)
                kept = kept.best_edge_count
            assert (int(row["total_edges"]), int(row["kept_edges"])) == (host.num_edges(), kept)

    @pytest.mark.parametrize("spec, budget, epsilon, checks", [
        ({"m": 8, "d_values": [2, 3], "seeds": [0, 1], "epsilon": 0.3}, ["--budget", "5"], 0.3, 5),
        ({"m": 6, "d_values": [3], "seeds": [2]}, [], 0.1, 50),  # the defaults
    ])
    def test_host_stats_rows_are_verify_hosts_fields(self, spec, budget, epsilon, checks,
                                                     tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "host-stats", **spec}))
        assert main(["report", "--grid", str(grid), *budget, "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["d", "m", "seed", "status", "levels_ok", "pairs_ok",
                                 "pair_checks", "worst_excess", "runtime_s"]
        assert len(rows) == len(spec["d_values"]) * len(spec["seeds"])
        for row in rows:
            m, d, seed = (int(row[key]) for key in ("m", "d", "seed"))
            rep = hosts.verify_host(generate_host(m, d, seed), epsilon, checks, seed)
            assert row["status"] == "ok"
            assert (row["levels_ok"], row["pairs_ok"], row["pair_checks"], row["worst_excess"]) == (
                str(rep.levels_ok), str(sum(c.ok for c in rep.pair_checks)), str(checks),
                f"{rep.worst_pair_excess:.6f}")

    def test_host_stats_refused_sizes_are_infeasible_rows(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "host-stats", "d_values": [-1, 2], "m": 2}))
        assert main(["report", "--grid", str(grid)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert rows[0][3].startswith("infeasible: ") and rows[0][4:8] == ["False", "0", "0", "nan"]
        assert rows[1][3] == "ok" and rows[1][6] == "50"

    @pytest.mark.parametrize("epsilon, shown", [
        (0, "0"), (-0.5, "-0.5"), (True, "true"), ("0.1", '"0.1"'), (None, "null"),
        (float("nan"), "NaN"), (float("inf"), "Infinity"),
    ])
    def test_bad_epsilon_is_usage_error_before_any_row(self, epsilon, shown, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "host-stats", "m": 2, "d_values": [2],
                                    "epsilon": epsilon}))
        assert main(["report", "--grid", str(grid)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: grid epsilon must be a positive number, got {shown}\n"

    @pytest.mark.parametrize("experiment", ["quarter-density", "local-density", "host-stats"])
    def test_stdout_is_the_csv_alone(self, experiment, tmp_path, capsys):
        # the CSV used to be followed by the JSON result, so stdout parsed as neither
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": experiment, "m": 2, "d_values": [2, 3],
                                    "seeds": [0, 1]}))
        budget = [] if experiment == "quarter-density" else ["--budget", "3"]
        assert main(["report", "--grid", str(grid), *budget]) == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert main(["report", "--grid", str(grid), *budget, "--out-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 4
        with open(tmp_path / "report.csv", newline="") as fh:
            written = list(csv.reader(fh))
        # every column but runtime_s
        assert [row[:-1] for row in printed] == [row[:-1] for row in written]
        assert len(printed) == 5 and printed[0][-1] == "runtime_s"

    def test_empty_grid_header_only(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "quarter-density", "d_values": []}))
        out_dir = tmp_path / "rep"
        assert main(["report", "--grid", str(grid), "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "report.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_reproducible_bytes(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"experiment": "local-density", "m": 2, "d_values": [2], "seeds": [1]}
        ))
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["report", "--grid", str(grid), "--out-dir", str(out_dir)]) == 0
            text = (out_dir / "report.csv").read_text()
            # runtime column varies between runs; compare everything else
            outputs.append([",".join(line.split(",")[:7]) for line in text.splitlines()])
        assert outputs[0] == outputs[1]

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "mystery"}))
        assert main(["report", "--grid", str(grid)]) == 2

    @pytest.mark.parametrize("spec, message", [
        ({"d_values": ["x"]}, "grid d_values must be a list of integers"),
        ({"d_values": [True], "m": 2}, "grid d_values must be a list of integers"),
        ({"d_values": 2}, "grid d_values must be a list of integers"),
        ({"d_values": [2], "m": 2.0}, "grid m must be an integer"),
        # m is the one key for m; m_values, a list of them, is gone
        ({"d_values": [2], "m_values": [2]}, "quarter-density grids take no key 'm_values'"),
        ({"d_values": [2], "m": 2, "seeds": [2**64]}, "grid seeds must be non-negative and below 2^64"),
        ({"d_values": [2], "m": 2, "seeds": [0, -1]}, "grid seeds must be non-negative and below 2^64"),
        # 1.5 used to draw the host of seed 1 under a row that said 1.5
        ({"d_values": [2], "m": 2, "seeds": [1.5]}, "grid seeds must be a list of integers"),
        ([{"d_values": [2]}], "grid must be a JSON object"),
        # a key a grid does not take used to be ignored: the typo "d_value"
        # printed the header alone and "seed" ran seed 0, both exiting 0
        ({"experiment": "host-stats", "m": 8, "d_value": [3]},
         "host-stats grids take no key 'd_value'"),
        ({"experiment": "quarter-density", "m": 4, "d_values": [2], "seed": [1]},
         "quarter-density grids take no key 'seed'"),
        ({"m": 2, "d_values": [2], "epsilon": 0.1}, "quarter-density grids take no key 'epsilon'"),
        ({"experiment": "local-density", "m": 2, "d_values": [2], "epsilon": 0.1},
         "local-density grids take no key 'epsilon'"),
        ({"experiment": "host-stats", "m": 4, "m_values": [2], "d_values": [2], "seeds": [0]},
         "host-stats grids take no key 'm_values'"),
    ])
    def test_bad_grid_is_usage_error_before_any_row(self, tmp_path, capsys, spec, message):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(spec))
        assert main(["report", "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_refused_sizes_are_infeasible_rows(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"d_values": [-1, 30, 10**21], "m": 2, "seeds": [0]}))
        assert main(["report", "--grid", str(grid)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:4]))
        assert [row[3].split(":")[0] for row in rows] == ["infeasible"] * 3

    def test_budget_on_a_quarter_density_grid_is_usage_error(self, tmp_path, capsys):
        # the quarter constructor has no rounds; the flag used to be ignored.
        # The grid is checked whole before any row runs, so no CSV is printed
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "quarter-density", "m": 2, "d_values": [2]}))
        assert main(["report", "--grid", str(grid), "--budget", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --budget" in captured.err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_budget_is_usage_error(self, tmp_path, capsys, value):
        # 0 used to mean the default of 500 rounds
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": "local-density", "m": 2, "d_values": [2]}))
        with pytest.raises(SystemExit) as exc:
            main(["report", "--grid", str(grid), "--budget", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "must be at least 1" in err


class TestTileCommands:
    def test_sample_and_verify(self, p3_file, tmp_path, capsys):
        assert main(["tile-sample", "--pattern", p3_file, "--d", "6",
                     "--levels", "1,2,3,4,5,6", "--w", "4",
                     "--n-samples", "2000", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_samples"] == 2000
        assert len(out["per_slot_split_levels"]) == 2

        out_dir = tmp_path / "tv"
        rc = main(["tile-verify", "--pattern", p3_file, "--d", "6",
                   "--levels", "1,2,3,4,5,6", "--w", "4",
                   "--epsilon", "0.9", "--out-dir", str(out_dir)])
        assert rc in (0, 1)
        assert (out_dir / "levels.csv").exists()

    def test_sample_past_the_memory_cap_is_usage_error(self, p3_file, monkeypatch, capsys):
        # --n-samples 1000000000 asked numpy for 7.45 GiB and exited 1; with
        # the cap lowered, 101 chains of 3 vertices (5,252 bytes) stand in for it
        monkeypatch.setattr(tiling, "_MAX_BUILD_BYTES", 5200)
        assert main(["tile-sample", "--pattern", p3_file, "--d", "6", "--levels", "1,2,3,4,5,6",
                     "--w", "4", "--n-samples", "101"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 101 chains of 3 vertices need 5252 bytes")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_sample_count_below_one_is_usage_error(self, p3_file, capsys, value):
        # 0 printed empty split-level counts and exited 0; -1 exited 2 with
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(SystemExit) as exc:
            main(["tile-sample", "--pattern", p3_file, "--d", "6", "--levels", "1,2,3,4,5,6",
                  "--w", "4", "--n-samples", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --n-samples: must be at least 1, got {value}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "inf", "must be in (0, 1)"),
        ("--epsilon", "1.0", "must be in (0, 1)"),
        ("--epsilon", "1.5", "must be in (0, 1)"),
        ("--epsilon", "0", "must be in (0, 1)"),
        ("--epsilon", "nan", "must be in (0, 1)"),
        ("--budget", "0", "must be at least 1"),
        ("--budget", "-3", "must be at least 1"),
    ])
    def test_verify_bad_epsilon_or_budget_is_usage_error(self, p3_file, capsys, flag, value, message):
        args = {"--epsilon": "0.5", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["tile-verify", "--pattern", p3_file, "--d", "6", "--levels", "1,2,3,4,5,6",
                  "--w", "4", *(part for item in args.items() for part in item)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_verify_budget_counts_classes(self, p3_file, capsys):
        # d = 6, w = 4: positions 1..6 hold 8, 16, 16, 16, 8 and 1 classes of y
        argv = ["tile-verify", "--pattern", p3_file, "--d", "6", "--levels", "1,2,3,4,5,6",
                "--w", "4", "--epsilon", "0.5", "--budget"]
        assert main([*argv, "65"]) == 0
        capsys.readouterr()
        assert main([*argv, "64"]) == 2
        assert "error: 65 y-classes exceed budget 64" in capsys.readouterr().err

    def test_sample_split_levels_match_per_pair_count(self, p3_file, capsys):
        assert main(["tile-sample", "--pattern", p3_file, "--d", "7",
                     "--levels", "1,2,3,4,5,6,7", "--w", "4",
                     "--n-samples", "3000", "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        verts = tiling.sample_many(tiling.TilingConfig(7, tuple(range(1, 8)), 4, 3), 3000, 2)
        for t, slot in enumerate(out["per_slot_split_levels"]):
            expected = Counter(delta_int(int(a), int(b), 7) for a, b in verts[:, t:t + 2])
            assert slot == {str(k): v for k, v in sorted(expected.items())}

    def test_sample_split_levels_counted_over_slabs(self, p3_file, capsys, monkeypatch):
        argv = ["tile-sample", "--pattern", p3_file, "--d", "7", "--levels", "1,2,3,4,5,6,7",
                "--w", "4", "--n-samples", "3001", "--seed", "2"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(tiling, "_SLAB_BYTES", 100)  # 4 chains of 3 vertices a slab
        assert main(argv) == 0
        assert capsys.readouterr().out == whole

    def test_sample_writes_the_pinned_chains(self, p3_file, tmp_path):
        # the first 10000 of 12000 chains, as tile-sample wrote them when it
        # built the rows on every run, out-dir or not
        assert main(["tile-sample", "--pattern", p3_file, "--d", "7",
                     "--levels", "1,2,3,4,5,6,7", "--w", "4", "--n-samples", "12000",
                     "--seed", "2", "--out-dir", str(tmp_path)]) == 0
        data = (tmp_path / "chains.csv").read_bytes()
        assert data.startswith(b"v1,v2,v3\r\n5,36,49\r\n") and data.count(b"\n") == 10001
        assert hashlib.sha256(data).hexdigest() == (
            "73feaf0c143db44730de0e43ec5cfd0677aeb737bafc49dea8f65aec2a5d058a")

    def test_sample_split_levels_at_d_62(self, p3_file, capsys):
        # pairs that split at a low level xor to above 2^53, beyond the
        # integers a double holds
        levels = (1, 2, 3, 30, 58, 60, 61, 62)
        assert main(["tile-sample", "--pattern", p3_file, "--d", "62",
                     "--levels", ",".join(map(str, levels)), "--w", "4",
                     "--n-samples", "3000", "--seed", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        verts = tiling.sample_many(tiling.TilingConfig(62, levels, 4, 3), 3000, 4)
        for t, slot in enumerate(out["per_slot_split_levels"]):
            expected = Counter(delta_int(int(a), int(b), 62) for a, b in verts[:, t:t + 2])
            assert slot == {str(k): v for k, v in sorted(expected.items())}
        assert "1" in out["per_slot_split_levels"][0]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_unknown_flag_exits_2(self, p3_file):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--pattern", p3_file, "--bogus"])
        assert exc.value.code == 2


class TestOptions:
    @pytest.mark.parametrize("argv, flag", [
        (argv, flag)
        for argv, flags in [
            (["gen-host", "--d", "2", "--m", "2", "--out", "h.bg"], ["--budget"]),
            (["classify", "--pattern", "p.og"], ["--seed", "--budget"]),
            (["analyze-richness", "--host", "h.rg", "--alpha", "0.5"], ["--seed", "--budget"]),
            # --preset is whether --epsilon is given, and --trace is --out-dir's trace.json
            (["embed-hk", "--host", "h.cg", "--k", "2"],
             ["--seed", "--budget", "--preset", "--trace"]),
            (["appendix-check", "--lemma", "a3", "--params", "{}"], ["--seed", "--budget"]),
            (["tile-sample", "--pattern", "p.og", "--d", "3", "--levels", "1,2,3", "--w", "1"],
             ["--budget"]),
            (["tile-verify", "--pattern", "p.og", "--d", "3", "--levels", "1,2,3", "--w", "1",
              "--epsilon", "0.5"], ["--seed"]),
            (["report", "--grid", "g.json"], ["--seed"]),  # a grid's seeds are its "seeds"
        ]
        for flag in flags
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_flag_a_command_does_not_read_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    #: every subcommand's flags: flag -> (type, default, choices, required); a
    #: new option, or a new default or range, shows up here as a reviewed diff
    OPTIONS = {
        "gen-host": {
            "--d": ("int", None, None, True), "--m": ("int", None, None, True),
            "--out": (None, None, None, True), "--seed": ("_seed", 0, None, False),
            "--out-dir": (None, None, None, False)},
        "classify": {"--pattern": (None, None, None, True), "--out-dir": (None, None, None, False)},
        "solve": {
            "--pattern": (None, None, None, True), "--host": (None, None, None, True),
            "--mode": (None, "exact", ("exact", "local"), False),
            "--seed": ("_seed", None, None, False), "--budget": ("_positive_int", None, None, False),
            "--out-dir": (None, None, None, False)},
        "analyze-richness": {
            "--host": (None, None, None, True), "--alpha": ("_unit_fraction", None, None, True),
            "--out-dir": (None, None, None, False)},
        "embed-hk": {
            "--host": (None, None, None, True), "--k": ("int", None, None, True),
            "--epsilon": ("_positive_unit_fraction", None, None, False),
            "--out-dir": (None, None, None, False)},
        "tile-sample": {
            "--pattern": (None, None, None, True), "--d": ("int", None, None, True),
            "--levels": (None, None, None, True), "--w": ("int", None, None, True),
            "--n-samples": ("_positive_int", 10000, None, False), "--seed": ("_seed", 0, None, False),
            "--out-dir": (None, None, None, False)},
        "tile-verify": {
            "--pattern": (None, None, None, True), "--d": ("int", None, None, True),
            "--levels": (None, None, None, True), "--w": ("int", None, None, True),
            "--epsilon": ("_open_unit_fraction", None, None, True),
            "--budget": ("_positive_int", None, None, False), "--out-dir": (None, None, None, False)},
        "appendix-check": {
            "--lemma": (None, None, ("a1", "a2", "a3"), True), "--params": (None, None, None, True),
            "--out-dir": (None, None, None, False)},
        "report": {
            "--grid": (None, None, None, True), "--budget": ("_positive_int", None, None, False),
            "--out-dir": (None, None, None, False)},
    }
    #: each report experiment's grid keys
    GRID_KEYS = {
        "quarter-density": "experiment, d_values, m, seeds",
        "local-density": "experiment, d_values, m, seeds",
        "host-stats": "experiment, d_values, m, seeds, epsilon",
    }

    def test_every_flag_is_pinned(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            command: {action.option_strings[0]: (getattr(action.type, "__name__", None),
                                                 action.default, action.choices, action.required)
                      for action in sub._actions if not isinstance(action, argparse._HelpAction)}
            for command, sub in subparsers.choices.items()}
        assert got == self.OPTIONS
        assert sum(map(len, got.values())) == 40
        # one spelling each: no flag has a second option string
        assert all(len(action.option_strings) == 1 for sub in subparsers.choices.values()
                   for action in sub._actions if not isinstance(action, argparse._HelpAction))

    @pytest.mark.parametrize("experiment", list(GRID_KEYS))
    def test_every_grid_key_is_pinned(self, experiment, tmp_path, capsys):
        # a key the grid does not take is refused with the list of those it does
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"experiment": experiment, "bogus": 1}))
        assert main(["report", "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {experiment} grids take no key 'bogus'; "
                       f"their keys are {self.GRID_KEYS[experiment]}\n")


class TestParserReuse:
    """``main`` parses with one parser per process; no call may see another's flags."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_seed_does_not_carry_over(self, tmp_path, capsys):
        path = str(tmp_path / "h.rg")
        assert main(["gen-host", "--d", "2", "--m", "2", "--out", path, "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        assert main(["gen-host", "--d", "2", "--m", "2", "--out", path]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0
        assert read_blocked(path) == generate_host(2, 2, 0)

    def test_budget_does_not_carry_over(self, tmp_path, capsys):
        # a quarter-density grid is a usage error with any --budget, so it
        # fails if the local-density call's budget were still set
        grid = tmp_path / "grid.json"
        argv = ["report", "--grid", str(grid)]
        grid.write_text(json.dumps({"experiment": "local-density", "m": 2, "d_values": [2]}))
        assert main([*argv, "--budget", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "ok"
        grid.write_text(json.dumps({"experiment": "quarter-density", "m": 2, "d_values": [2]}))
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == "ok"

    def test_usage_error_still_exits_2(self, p3_file, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["classify", "--pattern", p3_file, "--seed", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert main(["classify", "--pattern", p3_file]) == 0
        assert json.loads(capsys.readouterr().out)["has_monotone_p3"] is True


def _assert_records_as_objects(value, js):
    """Every record in ``value``, nested ones included, came out of ``_jsonify``
    as an object keyed by its field names, not as an array."""
    if hasattr(value, "_fields"):
        assert type(js) is dict and list(js) == list(value._fields), (type(value).__name__, js)
        for name, field in zip(value._fields, value):
            _assert_records_as_objects(field, js[name])
    elif isinstance(value, (list, tuple)):
        assert type(js) is list and len(js) == len(value)
        for item, item_js in zip(value, js):
            _assert_records_as_objects(item, item_js)


class TestRecordsAsJson:
    """Result records are NamedTuples; the JSON they give is an object per record."""

    @staticmethod
    def one_of_each():
        host_report = hosts.verify_host(generate_host(2, 3, 0), 0.5, 4, 0)
        cfg = tiling.TilingConfig(6, (1, 2, 3, 4, 5, 6), 4, 3)
        guarantee = tiling.tiling_guarantee_report(monotone_p3(), cfg, 0.5)
        g = complete_hypercube(5)
        extraction = richness.extract_rich_interval(g, richness.Thresholds.desk())
        assert host_report.level_checks and host_report.pair_checks and guarantee.per_level
        return [
            density.rho_exhaustive(monotone_p3(), complete_ordered(4)),
            host_report, host_report.level_checks[0], host_report.pair_checks[0],
            lemma_checks.check_binomial_fraction(Fraction(1, 2), Fraction(1, 5), 2,
                                                 Fraction(1, 8), 100),
            cfg, guarantee, guarantee.per_level[0],
            richness.Thresholds.desk(), richness.StageFailure("y1", "|Y1| = 0"),
            extraction, extraction.trace,
        ]

    def test_every_record_type_is_covered(self):
        defined = {
            cls for module in (density, hosts, lemma_checks, richness, tiling)
            for name, cls in vars(module).items()
            if isinstance(cls, type) and issubclass(cls, tuple) and not name.startswith("_")
            and cls.__module__ == module.__name__
        }
        assert {type(rec) for rec in self.one_of_each()} == defined and len(defined) == 12

    def test_each_record_is_an_object_of_its_fields(self):
        # nested records too: HostReport's checks, GuaranteeReport.per_level
        # and ExtractionResult.trace
        for rec in self.one_of_each():
            _assert_records_as_objects(rec, _jsonify(rec))
            assert not hasattr(rec, "__dict__")  # immutable: no attributes beside the fields
