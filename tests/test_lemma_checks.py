import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import lemma_checks
from relturan.cli import _jsonify
from relturan.hosts import philox_rng
from relturan.core import BudgetError
from relturan.lemma_checks import (
    _window_lengths,
    check_binomial_average,
    check_binomial_fraction,
    check_binomial_identity,
    check_locally_balanced,
    vandermonde_identity_holds,
)


def premise_by_every_window(f, alpha, eta) -> bool:
    """Oracle for the A3 premise: |mean_J f - alpha| <= eta on every window of
    length >= max(1, floor(eta n)), each window's mean taken in Fractions."""
    n = len(f)
    min_len = max(1, math.floor(eta * n))
    prefix = [Fraction(0)]
    for v in f:
        prefix.append(prefix[-1] + v)
    return all(abs((prefix[hi] - prefix[lo - 1]) / (hi - lo + 1) - alpha) <= eta
               for lo in range(1, n + 1) for hi in range(lo + min_len - 1, n + 1))


def string_violates(bits, eps: float) -> bool:
    """Oracle for the A2 check: does some window of length >= ceil(ln^2 n) deviate by eps |J|?"""
    n = len(bits)
    m, hi = _window_lengths(n)
    prefix = np.concatenate([[0], np.cumsum(np.asarray(bits, dtype=np.int64))])
    for length in range(m, hi + 1):
        sums = prefix[length:] - prefix[:-length]
        if np.any(np.abs(sums - length / 2) >= eps * length):
            return True
    return False


def _float_window_counts(bits: np.ndarray, eps: float) -> tuple[int, int]:
    """Violating and total windows over the checked lengths, by the float test."""
    n = bits.shape[1]
    m, hi = _window_lengths(n)
    prefix = np.zeros((bits.shape[0], n + 1), dtype=np.int64)
    np.cumsum(bits, axis=1, out=prefix[:, 1:])
    bad = cells = 0
    for length in range(m, hi + 1):
        viol = np.abs(prefix[:, length:] - prefix[:, :-length] - length / 2) >= eps * length
        bad += int(viol.sum())
        cells += viol.size
    return bad, cells


def _drawn_bits(n: int, n_samples: int, seed: int) -> np.ndarray:
    """The strings check_locally_balanced draws, by its documented chunked stream."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    chunk = max(1, (1 << 22) // n)
    return np.concatenate([
        rng.integers(0, 2, size=(min(chunk, n_samples - start), n), dtype=np.int64)
        for start in range(0, n_samples, chunk)
    ])


def _all_strings(n: int) -> np.ndarray:
    vals = np.arange(1 << n, dtype=np.int64)
    return (vals[:, None] >> np.arange(n - 1, -1, -1)) & 1


class TestBinomialFraction:
    def test_hand_computed_failure(self):
        # C(6, 2) = 15 vs (1/4 - 1/16) C(16, 2) = 22.5
        rep = check_binomial_fraction(Fraction(1, 2), Fraction(1, 16), 2, Fraction(1, 8), 16)
        assert rep.lhs == 15
        assert rep.rhs == Fraction(45, 2)
        assert not rep.passed

    def test_hand_computed_success(self):
        # C(37, 2) = 666 vs (1/4 - 1/5) C(100, 2) = 247.5
        rep = check_binomial_fraction(Fraction(1, 2), Fraction(1, 5), 2, Fraction(1, 8), 100)
        assert rep.lhs == 666
        assert rep.rhs == Fraction(495, 2)
        assert rep.passed

    def test_margin_is_exact_rational(self):
        rep = check_binomial_fraction(Fraction(1, 2), Fraction(1, 5), 2, Fraction(1, 8), 100)
        assert isinstance(rep.margin, Fraction)
        assert rep.margin == rep.lhs - rep.rhs

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            check_binomial_fraction(Fraction(1, 2), Fraction(1, 10), 3, Fraction(3, 4), 50)


class TestLocallyBalanced:
    def test_all_ones_violates(self):
        assert string_violates([1] * 64, eps=0.1)

    def test_alternating_is_balanced(self):
        bits = [i % 2 for i in range(64)]
        assert not string_violates(bits, eps=0.1)

    def test_reduced_range_matches_full_scan(self):
        # oracle: check every window length >= m, not only [m, 2m)
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
        n, eps = 48, 0.18
        m, _ = _window_lengths(n)
        for _ in range(200):
            bits = rng.integers(0, 2, size=n)
            prefix = np.concatenate([[0], np.cumsum(bits)])
            full = any(
                abs(prefix[lo + length] - prefix[lo] - length / 2) >= eps * length
                for length in range(m, n + 1)
                for lo in range(n - length + 1)
            )
            assert string_violates(bits, eps) == full

    def test_exhaustive_matches_direct_count(self):
        n, eps = 10, 0.3
        rep = check_locally_balanced(n, eps, n_samples=0, seed=0, exhaustive=True)
        direct = sum(
            string_violates([(v >> (n - 1 - i)) & 1 for i in range(n)], eps)
            for v in range(1 << n)
        )
        assert rep.extra["violating"] == direct
        assert rep.samples == 1 << n

    @pytest.mark.parametrize("n, eps, n_samples, seed", [
        (64, 0.25, 400, 3),  # eps L = L/2 - s for L divisible by 4: tie cases
        (64, 0.125, 400, 4),  # ties at L divisible by 8
        (96, 0.5, 300, 5),  # only the all-0 and all-1 windows violate
        (128, 0.15, 300, 7),
        (512, 0.3, 20, 9),  # one violating window, of length 45 in the lengths 39..46
        (1024, 0.1, 60, 1),  # most strings violate
        (1024, 0.3, 60, 2**64 - 1),
        (1 << 15, 0.25, 3, 8),  # few long strings
        (1 << 17, 0.1, 2, 6),  # hi = 279: uint16 residues, blocks of one row
    ])
    def test_monte_carlo_matches_float_window_scan(self, n, eps, n_samples, seed):
        rep = check_locally_balanced(n, eps, n_samples, seed)
        bits = _drawn_bits(n, n_samples, seed)
        assert rep.extra["violating"] == sum(string_violates(row, eps) for row in bits)
        bad_cells, cells = _float_window_counts(bits, eps)
        assert rep.extra["window_fraction"] == bad_cells / cells

    def test_exhaustive_tie_cases_match_float_window_scan(self):
        n, eps = 12, 0.25
        rep = check_locally_balanced(n, eps, n_samples=0, seed=0, exhaustive=True)
        bad_cells, cells = _float_window_counts(_all_strings(n), eps)
        assert rep.extra["window_fraction"] == bad_cells / cells

    def test_extreme_windows_on_uint16_residues(self, monkeypatch):
        # hi = 279 >= 256: a uint8 residue would alias the near-all-0 and
        # near-all-1 windows, which uniform strings of this length never hold
        n, eps = 1 << 17, 0.45
        bits = np.ones((2, n), dtype=np.int64)
        bits[1, :n // 2] = 0

        # raw words whose 32-bit halves, low first, carry these bits on top
        halves = bits.astype(np.uint64).ravel() << 31
        words = halves[0::2] | halves[1::2] << 32
        drawn = 0  # a row is a chunk of its own: hand the words out as a stream

        class Fixed:
            class bit_generator:
                @staticmethod
                def random_raw(count):
                    nonlocal drawn
                    drawn += count
                    return words[drawn - count:drawn]

        monkeypatch.setattr(lemma_checks, "philox_rng", lambda seed: Fixed())
        rep = check_locally_balanced(n, eps, 2, seed=0)
        assert rep.extra["violating"] == 2
        bad_cells, cells = _float_window_counts(bits, eps)
        assert rep.extra["window_fraction"] == bad_cells / cells

    @pytest.mark.parametrize("counts", [[27, 45, 1], [466_033 * 9, 27], [1, 1, 0, 6], [8, 8]])
    def test_raw_bits_continue_the_integers_stream(self, counts):
        ref, raw = philox_rng(5), philox_rng(5)
        carry = np.empty(0, dtype=np.uint8)
        for count in counts:
            bits, carry = lemma_checks._uniform_bits(raw, count, carry)
            assert np.array_equal(bits, ref.integers(0, 2, size=count, dtype=np.int64))

    def test_odd_chunk_boundary_keeps_the_integers_stream(self):
        # n = 11: a chunk is 21,845 rows, so its 240,295 bits end mid-word
        # and the next chunk starts with the high half the last word left
        n, eps, n_samples, seed = 11, 0.3, 43_700, 11
        rep = check_locally_balanced(n, eps, n_samples, seed)
        bits = _drawn_bits(n, n_samples, seed)
        m, hi = _window_lengths(n)
        prefix = np.zeros((n_samples, n + 1), dtype=np.int64)
        np.cumsum(bits, axis=1, out=prefix[:, 1:])
        bad = np.zeros(n_samples, dtype=bool)
        for length in range(m, hi + 1):
            sums = prefix[:, length:] - prefix[:, :-length]
            bad |= (np.abs(sums - length / 2) >= eps * length).any(axis=1)
        assert rep.extra["violating"] == int(np.count_nonzero(bad))
        bad_cells, cells = _float_window_counts(bits, eps)
        assert rep.extra["window_fraction"] == bad_cells / cells

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 3000),
        eps=st.sampled_from([0.1, 0.125, 0.25, 1 / 3])
        | st.floats(0, 0.7, exclude_min=True, allow_subnormal=False),
        n_samples=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        exhaustive=st.booleans(),
    )
    def test_residue_scan_matches_float_oracles(self, n, eps, n_samples, seed, exhaustive):
        # float-tie eps values put sums exactly on |s - L/2| = eps L; eps >= 0.5
        # leaves only the all-0 and all-1 windows (or none) violating
        if exhaustive:
            n = n % 9 + 4  # 2^n strings: keep n <= 12
        rep = check_locally_balanced(n, eps, n_samples, seed, exhaustive=exhaustive)
        bits = _all_strings(n) if exhaustive else _drawn_bits(n, n_samples, seed)
        assert rep.samples == len(bits)
        assert rep.extra["violating"] == sum(string_violates(row, eps) for row in bits)
        bad_cells, cells = _float_window_counts(bits, eps)
        assert type(rep.extra["violating"]) is int
        assert type(rep.extra["window_fraction"]) is float
        assert rep.extra["window_fraction"] == bad_cells / cells

    @pytest.mark.parametrize("n_samples, seed", [(0, 1), (-3, 1), (10, -1), (10, 2**64)])
    def test_rejects_bad_samples_and_seeds(self, n_samples, seed):
        with pytest.raises(ValueError):
            check_locally_balanced(64, 0.3, n_samples, seed)

    def test_rejects_n_below_4(self):
        with pytest.raises(ValueError, match="^need n >= 4 and eps > 0$"):
            check_locally_balanced(3, 0.3, 10, 1)

    def test_monte_carlo_report(self):
        rep = check_locally_balanced(256, eps=0.2, n_samples=500, seed=1)
        assert rep.samples == 500
        assert 0 <= rep.extra["ci_low"] <= rep.extra["ci_high"] <= 1

    def test_deterministic(self):
        a = check_locally_balanced(128, 0.15, 300, seed=7)
        b = check_locally_balanced(128, 0.15, 300, seed=7)
        assert a.lhs == b.lhs

    def test_exhaustive_cap(self):
        with pytest.raises(BudgetError, match="^exhaustive mode supports n <= 22$"):
            check_locally_balanced(23, 0.1, 0, 0, exhaustive=True)


class TestBinomialAverage:
    @given(st.integers(5, 40), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=50)
    def test_vandermonde_identity(self, n, x, y):
        if x + y + 1 <= n:
            assert vandermonde_identity_holds(n, x, y)

    def test_constant_table_passes(self):
        n = 40
        f = [Fraction(1, 2)] * n
        rep = check_binomial_average(f, n, x=1, y=1, alpha=Fraction(1, 2),
                                     eps=Fraction(1, 4), eta=Fraction(1, 10))
        assert rep.extra["premise_ok"]
        assert rep.passed
        # lhs truncates the range, so it is below alpha C(n, 3) but above
        # the (1 - eps)-discounted target
        assert rep.lhs <= Fraction(1, 2) * math.comb(n, 3)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_premise_matches_every_window(self, data):
        # the scan reads lengths L to 2L - 1 alone; the oracle reads every window of length >= L
        n = data.draw(st.integers(1, 40))
        fraction = st.integers(1, 10).flatmap(lambda den: st.integers(0, den).map(lambda k: Fraction(k, den)))
        f = data.draw(st.lists(fraction, min_size=n, max_size=n))
        alpha, eta = data.draw(fraction), data.draw(fraction)
        rep = check_binomial_average(f, n, 0, 0, alpha, Fraction(1, 2), eta)
        assert rep.extra["premise_ok"] == premise_by_every_window(f, alpha, eta)

    def test_premise_reads_lengths_past_the_least(self):
        # L = 2: every window of length 2 sums to exactly 2 alpha, and every one of length 3 is off by 1/2
        f = [Fraction(1), Fraction(0)] * 10
        rep = check_binomial_average(f, 20, 0, 0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
        assert not rep.extra["premise_ok"] and not premise_by_every_window(f, Fraction(1, 2), Fraction(1, 10))

    def test_premise_violation_detected(self):
        n = 30
        f = [Fraction(1)] * 15 + [Fraction(0)] * 15
        rep = check_binomial_average(f, n, 0, 0, Fraction(1, 2), Fraction(1, 4),
                                     Fraction(1, 10))
        assert not rep.extra["premise_ok"]

    def test_zero_table_fails(self):
        n = 20
        rep = check_binomial_average([Fraction(0)] * n, n, 0, 0, Fraction(1, 2),
                                     Fraction(1, 2), Fraction(1, 5))
        assert not rep.passed

    @pytest.mark.parametrize("n, x, y, message", [
        (0, 0, 0, "need n >= 1, got 0"),
        (3, -1, 0, "need x >= 0, got -1"),
        (3, 0, -1, "need y >= 0, got -1"),
        (3, 1, 2, "need x \\+ y \\+ 1 <= n, got x \\+ y \\+ 1 = 4 > n = 3"),
    ])
    def test_rejects_parameters_with_nothing_to_check(self, n, x, y, message):
        # both sides were 0, or math.comb refused a negative k
        with pytest.raises(ValueError, match=message):
            check_binomial_average([Fraction(1, 2)] * n, n, x, y, Fraction(1, 2),
                                   Fraction(1, 4), Fraction(1, 10))

    def test_rejects_a_table_of_another_length(self):
        with pytest.raises(ValueError, match="^f must tabulate exactly n values$"):
            check_binomial_average([Fraction(1, 2)] * 4, 5, 0, 0, Fraction(1, 2),
                                   Fraction(1, 4), Fraction(1, 10))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            check_binomial_average([Fraction(2)] * 5, 5, 0, 0, 1, Fraction(1, 2),
                                   Fraction(1, 5))

    def test_report_serializes(self):
        rep = check_binomial_fraction(Fraction(1, 2), Fraction(1, 5), 2, Fraction(1, 8), 100)
        js = _jsonify(rep)
        assert js["lemma"] == "binomial-fraction"
        assert js["lhs"] == {"num": "666", "den": "1", "float": 666.0}


class TestInputBounds:
    """Each check admits its bound and refuses one step past it, before any work."""

    def test_power_digits(self):
        # 3^209,590 has 100,000 digits, 3^209,591 one more; C(k, k) = 1
        k = 209_590
        assert check_binomial_fraction("1/3", Fraction(1, 2), k, "1/4", k).extra["floor_arg"] < k
        with pytest.raises(BudgetError, match="alpha\\^209591 has more than 100000 digits"):
            check_binomial_fraction("1/3", Fraction(1, 2), k + 1, "1/4", k + 1)

    def test_binomial_digits(self):
        # the bound (e n / j)^j on C(n, j) at n = 10^50 is 99,963 digits at
        # j = 2122, where C(n, j) has 99,961, and 100,009 at j = 2123
        n = 10**50
        assert not check_binomial_fraction(1, Fraction(1, 2), 2122, "1/2", n).passed
        for k in (2123, n - 2123):
            with pytest.raises(BudgetError, match=f"C\\({n}, {k}\\) has more than 100000 digits"):
                check_binomial_fraction(1, Fraction(1, 2), k, "1/2", n)

    def test_window_sums(self, monkeypatch):
        # a 64-bit string has 47 + 46 + ... + 30 = 693 windows of lengths 18..35
        monkeypatch.setattr(lemma_checks, "_MAX_WINDOW_SUMS", 693 * 10)
        assert check_locally_balanced(64, 0.3, 10, seed=0).samples == 10
        with pytest.raises(BudgetError, match="11 x 693 window sums exceed 6930"):
            check_locally_balanced(64, 0.3, 11, seed=0)

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_identity_without_an_n_is_refused(self, n_max):
        with pytest.raises(ValueError, match=f"need n_max >= 1, got {n_max}"):
            check_binomial_identity(n_max)

    def test_identity_n_max(self, monkeypatch):
        monkeypatch.setattr(lemma_checks, "_MAX_IDENTITY_N", 5)
        assert check_binomial_identity(5).passed
        with pytest.raises(BudgetError, match="n_max 6 exceeds 5"):
            check_binomial_identity(6)

    def test_premise_windows(self, monkeypatch):
        # 10 values: lengths 2 and 3 at eta = 0.2, 9 + 8 = 17 windows; 3 to 5
        # at eta = 0.3, 8 + 7 + 6 = 21; length 1 alone at eta = 0.1, 10
        monkeypatch.setattr(lemma_checks, "_MAX_PREMISE_WINDOWS", 17)
        for eta in (Fraction(1, 10), Fraction(2, 10)):
            assert check_binomial_average([0.5] * 10, 10, 0, 0, 0.5, 0.5, eta).extra["premise_ok"]
        with pytest.raises(BudgetError, match="^21 premise windows exceed 17$"):
            check_binomial_average([0.5] * 10, 10, 0, 0, 0.5, 0.5, Fraction(3, 10))

    def test_sum_terms(self, monkeypatch):
        # t runs from max(1, ceil(eta n)) to floor((1 - eta) n): 1 to 9 at eta = 1/10, 1 to 10 at 0
        monkeypatch.setattr(lemma_checks, "_MAX_SUM_TERMS", 9)
        assert check_binomial_average([0.5] * 10, 10, 0, 0, 0.5, 0.5, Fraction(1, 10)).passed
        with pytest.raises(BudgetError, match="^10 terms of the sum exceed 9$"):
            check_binomial_average([0.5] * 10, 10, 0, 0, 0.5, 0.5, 0)
