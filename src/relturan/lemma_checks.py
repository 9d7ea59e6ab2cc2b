"""Concrete numerical verification of the three auxiliary inequalities.

Each check evaluates one inequality at explicit parameter values and
returns a report, a NamedTuple record, with both sides and the margin.
Binomial arithmetic is exact (big integers / rationals); only the
balanced-strings check is statistical, since its statement is a
proportion over 2^n strings.  Its scan holds window sums as exact
small-integer residues: a filter on the first length of each group of
eight flags the strings that may violate, and only those are scanned at
every length.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import MAX_DIGITS, BudgetError
from .hosts import philox_rng

Number = Union[int, float, Fraction]

#: window lengths per group of the balanced-strings filter
_GROUP = 8
#: each check refuses, with BudgetError before it starts, an input past its
#: bound (timed on a 2-vCPU VM). a1: C(n, k) or alpha^k past ``MAX_DIGITS``
#: decimal digits, C(n, k) sized by the bound (e n / j)^j, j = min(k, n - k),
#: which overstates it by 0.001% at n = 10^50 and 6% at n = 400,000.
#: a2: more window sums than this, strings times windows a string; CI's 200
#: strings of 2^16 bits are 1.6e9, in 0.6 s at most
_MAX_WINDOW_SUMS = 1 << 31
#: a3's identity: an n_max past this; it costs O(n_max^4), 2.6-2.9 s at 100
_MAX_IDENTITY_N = 100
#: a3's inequality: more premise windows than this, at about 5 us each
_MAX_PREMISE_WINDOWS = 1 << 18


class LemmaCheckReport(NamedTuple):
    lemma: str
    params: dict
    lhs: Number
    rhs: Number
    margin: Number  # lhs - rhs; the inequality asserts margin >= 0
    passed: bool
    extra: dict  # check-specific detail; each report has its own dict
    samples: Optional[int] = None


def check_binomial_fraction(
    alpha: Number, eps: Number, k: int, eta: Number, n: int
) -> LemmaCheckReport:
    """C(floor((alpha - eta) n), k) >= (alpha^k - eps) C(n, k), exactly."""
    alpha, eps, eta = Fraction(alpha), Fraction(eps), Fraction(eta)
    if not (0 < alpha <= 1 and eps > 0 and k >= 1 and 0 < eta < alpha and n >= k):
        raise ValueError("parameter constraints violated")
    # C(n, k) = C(n, j) lies between (n / j)^j and (e n / j)^j, and n / j >= 2
    j = min(k, n - k)
    if j and (j > 4 * MAX_DIGITS or j * (math.log10(n) - math.log10(j / math.e)) > MAX_DIGITS):
        raise BudgetError(f"C({n}, {k}) has more than {MAX_DIGITS} digits")
    if alpha.denominator > 1 and k > MAX_DIGITS / math.log10(alpha.denominator):
        raise BudgetError(f"alpha^{k} has more than {MAX_DIGITS} digits")
    m = math.floor((alpha - eta) * n)
    lhs = Fraction(math.comb(m, k))
    rhs = (alpha**k - eps) * math.comb(n, k)
    return LemmaCheckReport(
        lemma="binomial-fraction",
        params={"alpha": alpha, "eps": eps, "k": k, "eta": eta, "n": n},
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        passed=lhs >= rhs,
        extra={"floor_arg": m},
    )


def _window_lengths(n: int) -> tuple[int, int]:
    """Minimal window m = ceil(ln^2 n) and the reduced check range [m, 2m).

    Checking only lengths in [m, 2m) is exact: any longer window splits
    into consecutive chunks with lengths in that range, and the absolute
    deviations add, so a violation at some length >= m forces one in the
    reduced range.
    """
    m = math.ceil(math.log(n) ** 2)
    return m, min(2 * m - 1, n)


def _uniform_bits(
    rng: np.random.Generator, count: int, carry: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` bits of ``rng.integers(0, 2, dtype=np.int64)``, as uint8.

    That draw takes each bit as the top bit of one 32-bit half of a raw
    64-bit word, low half first, and keeps a word's unused high half for the
    next draw.  Here ``carry`` holds the bit of that pending half (no entry
    or one), and the bits come straight from the raw words; the new pending
    bit is returned beside them.
    """
    words = rng.bit_generator.random_raw((count - len(carry) + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")  # low, high, low, ...
    bits = np.empty(len(carry) + len(halves), dtype=np.uint8)
    bits[:len(carry)] = carry
    np.right_shift(halves, 31, out=bits[len(carry):], casting="unsafe")
    return bits[:count], bits[count:]


def check_locally_balanced(
    n: int,
    eps: float,
    n_samples: int,
    seed: int,
    exhaustive: bool = False,
) -> LemmaCheckReport:
    """Estimate the proportion of strings with an unbalanced long window.

    Monte Carlo over uniform strings (the statement itself is a proportion
    over 2^n strings, so sampling matches it); exhaustive mode enumerates
    all strings for n <= 22.  The report carries the violating fraction
    with a normal-approximation 95% confidence interval.

    Two statistics are reported.  The pass flag follows the statement's
    string-level proportion (strings with any unbalanced long window).  At
    desk-scale n that proportion is near 1 for small eps, because the
    per-window tail bound 2 exp(-2 eps^2 ln^2 n / 3) only becomes small at
    astronomically large n; ``extra["window_fraction"]`` therefore also
    gives the per-window violation rate over the checked lengths, the
    quantity the tail bound actually controls.
    """
    if n < 4 or eps <= 0:
        raise ValueError("need n >= 4 and eps > 0")
    rng = philox_rng(seed)  # checks the seed even where exhaustive mode reads none
    if not exhaustive and n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    if exhaustive and n > 22:
        raise BudgetError("exhaustive mode supports n <= 22")
    samples = 1 << n if exhaustive else n_samples
    m, hi = _window_lengths(n)
    cells_per_row = (hi - m + 1) * (2 * n + 2 - m - hi) // 2  # sum of n + 1 - L over [m, hi]
    if samples * cells_per_row > _MAX_WINDOW_SUMS:
        raise BudgetError(f"{samples} x {cells_per_row} window sums exceed {_MAX_WINDOW_SUMS}")
    # A window of length L with sum s violates iff |s - L/2| >= eps L.  The
    # float test is evaluated once per possible sum; as |s - L/2| is exact and
    # grows away from L/2, the violating sums are the below[L] smallest and
    # those >= high[L].  The scan keeps each sum s as its residue s - below[L]
    # mod 2^k, with 2^k > hi: one-to-one on [0, L], it sends the below[L]
    # smallest sums to the top, so s violates iff its residue >= threshold[L].
    below, high, threshold = {}, {}, {}
    for length in range(m, hi + 1):
        viol = np.abs(np.arange(length + 1) - length / 2) >= eps * length
        below[length] = int(np.count_nonzero(viol[:length // 2 + 1]))
        high[length] = length + 1 - int(np.count_nonzero(viol[(length + 1) // 2:]))
        threshold[length] = high[length] - below[length]
    # The lengths come in groups of _GROUP from a first length L1.  A window
    # of length L holds the window of length L1 at the same start, so its sum
    # lies in [s1, s1 + L - L1] for that window's sum s1: some window of the
    # group violates only if s1 < cut, the group's largest below[L], or
    # s1 >= top, its least high[L] - (L - L1).  As a residue s1 - cut mod 2^k
    # that is one compare against top - cut, as above (every s1, if top <= cut,
    # as a residue is never negative)
    groups = []
    for first in range(m, hi + 1, _GROUP):
        lengths = range(first, min(first + _GROUP, hi + 1))
        cut = max(below[length] for length in lengths)
        top = min(high[length] - (length - first) for length in lengths)
        groups.append((first, cut, max(top - cut, 0)))
    dtype = np.uint8 if hi < 256 else np.uint16
    modulus = int(np.iinfo(dtype).max) + 1
    # rows whose residues stay in cache: the strings are enumerated, or drawn
    # at n / 2 raw words a row, this many at a time, about 1 MiB in all
    block = max(1, (1 << 18) // (n + 1))

    def scan(rows: np.ndarray, resid: np.ndarray, offset: int) -> tuple[int, int]:
        """Violating rows and windows over every checked length, one add a length.

        ``resid`` holds the length-m window sums less ``offset`` mod 2^k and
        is scanned in place, each length's sums from the last one's.
        """
        bad = np.zeros(rows.shape[0], dtype=bool)
        bad_cells = 0
        for length in range(m, hi + 1):
            sums = resid[:, :n + 1 - length]
            if length > m:
                sums += rows[:, length - 1:]
            if below[length] != offset:
                sums -= (below[length] - offset) % modulus
                offset = below[length]
            hit = sums.max(axis=1) >= threshold[length]
            if hit.any():
                bad |= hit
                bad_cells += int(np.count_nonzero(sums >= threshold[length]))
        return int(np.count_nonzero(bad)), bad_cells

    violating = bad_cells = 0
    carry = np.empty(0, dtype=np.uint8)
    for start in range(0, samples, block):
        count = min(block, samples - start)
        if exhaustive:  # every string in integer order, most significant bit first
            vals = np.arange(start, start + count, dtype=np.int64)
            rows = ((vals[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(dtype)
        else:
            bits, carry = _uniform_bits(rng, count * n, carry)
            rows = bits.reshape(count, n).astype(dtype)
        prefix = np.zeros((count, n + 1), dtype=dtype)
        np.cumsum(rows, axis=1, dtype=dtype, out=prefix[:, 1:])  # exact mod 2^k
        resid = prefix[:, m:] - prefix[:, :-m]
        # flag the rows some group may find violating, until all are
        # flagged; only those are scanned, the first group's residues
        # (in resid) going on to the scan
        flagged = np.zeros(count, dtype=bool)
        for first, cut, above in groups:
            sums = resid if first == m else prefix[:, first:] - prefix[:, :-first]
            sums -= cut
            flagged |= sums.max(axis=1) >= above
            if flagged.all():
                break
        if not flagged.all():
            keep = np.flatnonzero(flagged)
            if not len(keep):
                continue
            rows, resid = rows[keep], resid[keep]
        v, cells = scan(rows, resid, groups[0][1])
        violating, bad_cells = violating + v, bad_cells + cells
    frac = violating / samples
    half = 0.0 if exhaustive else 1.96 * math.sqrt(max(frac * (1 - frac), 1e-12) / samples)
    ci = (max(0.0, frac - half), min(1.0, frac + half))

    return LemmaCheckReport(
        lemma="locally-balanced",
        params={"n": n, "eps": eps, "min_window": m},
        lhs=frac,
        rhs=eps,
        margin=eps - frac,  # the claim bounds the violating fraction by eps
        passed=frac < eps,
        samples=samples,
        extra={
            "ci_low": ci[0],
            "ci_high": ci[1],
            "violating": violating,
            "window_fraction": bad_cells / (samples * cells_per_row),
        },
    )


def vandermonde_identity_holds(n: int, x: int, y: int) -> bool:
    """Full-range identity: sum_t C(t-1, x) C(n-t, y) == C(n, x+y+1)."""
    lhs = sum(math.comb(t - 1, x) * math.comb(n - t, y) for t in range(1, n + 1))
    return lhs == math.comb(n, x + y + 1)


def check_binomial_identity(n_max: int = 60) -> LemmaCheckReport:
    """The full-range identity for every n <= n_max and x + y + 1 <= n."""
    if n_max < 1:  # no (n, x, y) to check
        raise ValueError(f"need n_max >= 1, got {n_max}")
    if n_max > _MAX_IDENTITY_N:
        raise BudgetError(f"n_max {n_max} exceeds {_MAX_IDENTITY_N}")
    ok = all(
        vandermonde_identity_holds(n, x, y)
        for n in range(1, n_max + 1)
        for x in range(n)
        for y in range(n - x)
    )
    return LemmaCheckReport(
        lemma="binomial-average-identity",
        params={"n_max": n_max},
        lhs=int(ok),
        rhs=1,
        margin=int(ok) - 1,
        passed=ok,
        extra={},
    )


def check_binomial_average(
    f: Sequence[Number],
    n: int,
    x: int,
    y: int,
    alpha: Number,
    eps: Number,
    eta: Number,
) -> LemmaCheckReport:
    """sum_t f(t) C(t-1, x) C(n-t, y) >= (1-eps) alpha C(n, x+y+1), exactly.

    f is a table indexed 1..n with values in [0, 1].  The window premise
    (|mean_J f - alpha| <= eta on every window of length >= floor(eta n))
    is verified first; a premise failure is flagged but the inequality is
    still evaluated.  It needs n >= 1 and x, y >= 0 with x + y + 1 <= n:
    past that, C(n, x + y + 1) and every term are 0, and nothing is checked.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for name, value in (("x", x), ("y", y)):
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {value}")
    if x + y + 1 > n:
        raise ValueError(f"need x + y + 1 <= n, got x + y + 1 = {x + y + 1} > n = {n}")
    if len(f) != n:
        raise ValueError("f must tabulate exactly n values")
    alpha, eps, eta = Fraction(alpha), Fraction(eps), Fraction(eta)
    min_len = max(1, math.floor(eta * n))
    starts = max(0, n - min_len + 1)  # of the shortest windows; one fewer of each longer length
    if starts * (starts + 1) // 2 > _MAX_PREMISE_WINDOWS:
        raise BudgetError(f"{starts * (starts + 1) // 2} premise windows exceed "
                          f"{_MAX_PREMISE_WINDOWS}")
    table = [Fraction(v) for v in f]
    if any(not 0 <= v <= 1 for v in table):
        raise ValueError("f values must lie in [0, 1]")

    prefix = [Fraction(0)]
    for v in table:
        prefix.append(prefix[-1] + v)
    premise_ok = True
    for lo in range(1, n + 1):
        if not premise_ok:
            break
        for hi in range(lo + min_len - 1, n + 1):
            size = hi - lo + 1
            mean = (prefix[hi] - prefix[lo - 1]) / size
            if abs(mean - alpha) > eta:
                premise_ok = False
                break

    t_lo = math.ceil(eta * n)
    t_hi = math.floor((1 - eta) * n)
    lhs = sum(
        table[t - 1] * math.comb(t - 1, x) * math.comb(n - t, y)
        for t in range(max(1, t_lo), t_hi + 1)
    )
    rhs = (1 - eps) * alpha * math.comb(n, x + y + 1)
    return LemmaCheckReport(
        lemma="binomial-average",
        params={"n": n, "x": x, "y": y, "alpha": alpha, "eps": eps, "eta": eta},
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        passed=lhs >= rhs,
        extra={"premise_ok": premise_ok, "t_lo": t_lo, "t_hi": t_hi},
    )
