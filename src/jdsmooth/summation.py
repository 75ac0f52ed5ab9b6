"""Exact summation of float rows in numpy, equal bit for bit to ``math.fsum``.

Kernel weights at small bandwidths span hundreds of binades, so a local
moment cannot be added up in floating point in a fixed order without
losing digits.  ``math.fsum`` returns the correctly rounded exact sum but
walks a Python list one term at a time.  This module returns the same
double from a few numpy passes over the terms, in two stages: a cheap
filter that certifies most rounded sums, and an exact engine for the rows
it cannot certify (the filter-then-exact pattern of Shewchuk, 1997,
"Adaptive precision floating-point arithmetic and fast robust geometric
predicates", Discrete Comput. Geom. 18).

Stage 1, certified extraction (``exact_block_sums``).  For each block of
m <= CHUNK columns of a row take sigma = 2^(E + M), where 2^E > max |x|
with E floored at -900 (so that sigma and the bound below stay normal)
and 2^M >= m + 2.  Each term splits into q = (x + sigma) - sigma and
x - q, the error-free extraction of Rump, Ogita & Oishi (2008, "Accurate
floating-point summation part I", SIAM J. Sci. Comput. 31(1), Lemma 3.3):
every q is a multiple of 2^-53 sigma and all of them add up below sigma,
so their numpy sum is exact in any order, and every x - q is exact and
at most 2^-53 sigma.  The numpy sum of the m low parts is then off by at
most gamma_(m-1) m 2^-53 sigma (Higham, 2002, *Accuracy and Stability of
Numerical Algorithms*, ch. 4, for any order of the additions), which
(m - 1) m 2^-105 sigma bounds.  An all-zero block contributes bound 0.
Block partials are folded as they arrive by a second error-free
transformation, TwoSum (Knuth, *TAOCP* vol. 2, 4.2.2), which carries the
high sums exactly; the low sums add up with their rounding errors added
to the bound, so memory stays bounded by CHUNK columns.  At the end the row's exact high sum t and
approximate low sum give r = fl(t + low) and its exact TwoSum residual e;
r is certified when it is finite and nonzero and fl(|e| + B) is below
half the smaller gap beside r.  That half-gap is a power of two, so the
floating-point comparison implies the exact one, and the exact sum lies
strictly nearer r than any other double: r is its correct rounding.  The
other certified case is e = B = 0, where r is the exact sum.  A row with
a non-finite term or a term of 2^500 or more, a sum near a rounding tie
and a sum at the subnormal scale are refused.

Stage 2, binning (``ExactSums``), takes the refused rows alone:

1. a block whose smallest and largest terms both lie strictly between
   -2^500 and 2^500 is in range; only a block that fails (a NaN fails
   both comparisons) is checked term by term;
2. each term is split into ``hi``, the term with its low 27 fraction bits
   cleared (its top 26 significant bits), and ``lo = term - hi``, which is
   exact, has the term's sign and at most 27 significant bits;
3. both halves are added into the bin of the term's own window, a window
   being w = 27 - bit_length(n) consecutive exponent fields for rows of n
   terms (nbins windows reach field 1522, that of the largest term below
   2^500), ``hi`` and ``lo`` halves into separate bins.  A subnormal has
   the quantum 2^-1074 of exponent field 1, so take a window's lowest
   field E as 1 when it is 0.  In the window whose lowest field is E,
   ``hi`` halves are multiples of 2^(E - 1048) below 2^(w + 25) such
   quanta, and ``lo`` halves multiples of 2^(E - 1075) below 2^(w + 26).
   n halves of either kind therefore sum below 2^53 quanta: every partial
   sum is exact, in whatever order ``np.bincount`` adds;
4. each row keeps c copies of its bins, and column j adds into copy
   j % c, so that runs of equal windows along a row do not make each
   ``np.bincount`` add wait on the one before; c is n // nbins, between 1
   and _COPIES, so that short rows keep few bins.  ``totals`` folds the
   copies with a numpy sum, exact for the same reason (all copies of one
   bin together hold at most n halves), and ``math.fsum`` over a row's
   nonzero bins, from the top window down, rounds its exact total once.

A row with a non-finite term or a term of magnitude 2^500 or more goes on
to ``math.fsum`` itself, which alone settles the NaN, the infinity or the
order-dependent overflow it returns or raises.  An exact zero sum comes
back as +0.0, as ``math.fsum`` returns it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# columns summed per pass: bounds the work arrays of ``exact_row_sums`` and
# of callers that build their terms one block at a time
CHUNK = 1024

_LIMIT = 2.0**500
# exponent field of the largest term below _LIMIT, the top of the bins
_TOP_FIELD = 1023 + 499
# an int64 mask that clears a double's low 27 fraction bits
_HIGH_BITS = -(1 << 27)
# most terms a row may have with windows at least one binade wide
_MAX_TERMS = 2**26 - 1
# most interleaved copies of a row's bins
_COPIES = 4
# floor of the certified stage's exponent E, 2^E > max |x|
_MIN_EXPONENT = -900
# unit roundoff, and a factor above (1 + 2^-53)^4 by which a bound summed in
# round-to-nearest (three additions and this product) is lifted over its
# exact value
_U = 2.0**-53
_LIFT = 1.0 + 2.0**-49


class ExactSums:
    """Running exact sums of ``rows`` rows of at most ``terms`` terms each.

    ``add`` takes the terms a block of columns at a time, as an array of
    shape (rows, m); ``totals`` then gives each row's sum as ``math.fsum``
    over all its terms returns it, or None for a row that had a term only
    ``math.fsum`` over the whole row can settle (see the module docstring).
    Memory stays at a few thousand bins per row, however many terms arrive.
    """

    def __init__(self, rows: int, terms: int):
        self._rows = rows
        self._room = terms
        self._width = max(27 - int(terms).bit_length(), 1)
        nbins = _TOP_FIELD // self._width + 1
        self._copies = min(max(terms // nbins, 1), _COPIES)
        # bins[copy, row, window, half], half 0 for hi and 1 for lo
        self._bins = np.zeros((self._copies, rows, nbins, 2))
        self._offsets = (np.arange(rows) * nbins)[:, None]
        # column j's copy offset, built at the first add
        self._copy_offsets = np.zeros(0, dtype=np.int64)
        self._unsettled = np.full(rows, terms > _MAX_TERMS)

    def add(self, block: np.ndarray, work: np.ndarray | None = None) -> None:
        """Add a block of columns.  ``work``, if given, is a float array of
        at least 3 block.size entries that ``add`` may overwrite, so a caller
        adding many blocks can keep one work array instead of three fresh
        temporaries per block."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self._rows:
            raise ValueError(f"expected a block of {self._rows} rows")
        m = block.shape[1]
        if m > self._room:
            raise ValueError("more terms than the sums were sized for")
        if block.size == 0:
            return
        self._room -= m
        size = block.size
        if work is None:
            work = np.empty(3 * size)
        hi, lo, index = work[: 3 * size].reshape((3,) + block.shape)
        if not (-_LIMIT < block.min() and block.max() < _LIMIT):
            ok = np.less(np.abs(block, out=hi), _LIMIT)
            self._unsettled |= ~ok.all(axis=1)
            block = np.where(ok, block, 0.0)
        bits = block.view(np.int64)
        np.bitwise_and(bits, _HIGH_BITS, out=hi.view(np.int64))
        np.subtract(block, hi, out=lo)
        index = index.view(np.int64)
        np.right_shift(bits, 52, out=index)
        index &= 0x7FF
        index //= self._width
        if self._copy_offsets.size < m:
            stride = self._bins[0].size // 2
            self._copy_offsets = np.arange(m) % self._copies * stride
        index += self._copy_offsets[:m]
        index += self._offsets
        index = index.ravel()
        for half, bins in zip((hi, lo), self._bins.reshape(-1, 2).T):
            bins += np.bincount(index, weights=half.ravel(), minlength=bins.size)

    def totals(self) -> list[float | None]:
        # each row's bins from the top window down: math.fsum keeps fewer
        # partials when its terms come in falling magnitude
        rows = self._bins.sum(axis=0).reshape(self._rows, -1)[:, ::-1]
        nonzero = rows != 0.0
        bins = iter(rows[nonzero].tolist())
        sums = [
            math.fsum(itertools.islice(bins, count))
            for count in np.count_nonzero(nonzero, axis=1).tolist()
        ]
        return [
            None if unsettled else total
            for total, unsettled in zip(sums, self._unsettled.tolist())
        ]


def _two_sum(a, b):
    """s = fl(a + b) and the exact residual a + b - s (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _certified(rows: int, blocks, work: np.ndarray) -> tuple[list, np.ndarray]:
    """The certified stage (see the module docstring): each row's rounded
    total, and a mask of the rows whose total it could not certify."""
    high = np.zeros(rows)  # exact
    low = np.zeros(rows)
    bound = np.zeros(rows)  # on |low - exact low sum|
    refused = np.zeros(rows, dtype=bool)
    for block in blocks:
        m = block.shape[1]
        if m == 0:
            continue
        top = np.maximum(block.max(axis=1), -block.min(axis=1))
        out = ~(top < _LIMIT)
        if out.any():
            refused |= out
            top[out] = 0.0
            block = np.where(out[:, None], 0.0, block)
        exponent = np.maximum(np.frexp(top)[1], _MIN_EXPONENT)
        sigma = np.ldexp(1.0, exponent + (m + 1).bit_length())
        hi, lo = work[: 2 * block.size].reshape((2,) + block.shape)
        np.add(block, sigma[:, None], out=hi)
        hi -= sigma[:, None]
        np.subtract(block, hi, out=lo)
        high, e = _two_sum(high, hi.sum(axis=1))
        part = lo.sum(axis=1) + e
        low += part
        # each addition errs by at most 2^-53 times its rounded result
        bound += np.where(top > 0.0, ((m - 1) * m * 2.0**-105) * sigma, 0.0)
        bound += _U * np.abs(part) + _U * np.abs(low)
        bound *= _LIFT
    total, e = _two_sum(high, low)
    magnitude = np.abs(total)
    half_gap = (magnitude - np.nextafter(magnitude, 0.0)) * 0.5
    certified = (np.abs(e) + bound < half_gap) | ((e == 0.0) & (bound == 0.0))
    # + 0.0: an exact zero sum is +0.0, as math.fsum returns it
    return (total + 0.0).tolist(), refused | ~certified


def exact_block_sums(
    rows: int, terms: int, blocks, work: np.ndarray | None = None
) -> list[float | None]:
    """Each row's ``math.fsum`` over the columns of the blocks ``blocks()``
    yields, as ``ExactSums.totals`` gives it.

    ``blocks`` is a function returning an iterable of arrays of shape
    (rows, m), at most CHUNK columns each and ``terms`` in all.  It is
    called once for the certified stage and, only if that refuses a row,
    once more, and the refused rows alone go through ``ExactSums``.
    ``work``, if given, is a float array of at least 3 rows min(terms,
    CHUNK) entries that may be overwritten.
    """
    if work is None:
        work = np.empty(3 * rows * min(terms, CHUNK))
    totals, refused = _certified(rows, blocks(), work)
    if refused.any():
        redo = np.flatnonzero(refused)
        sums = ExactSums(redo.size, terms)
        for block in blocks():
            sums.add(block[redo], work)
        for i, total in zip(redo.tolist(), sums.totals()):
            totals[i] = total
    return totals


def exact_row_sums(block) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, bit for bit."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("exact_row_sums needs a 2-D array")
    rows, n = block.shape
    totals = exact_block_sums(
        rows, n, lambda: (block[:, s : s + CHUNK] for s in range(0, n, CHUNK))
    )
    return [
        math.fsum(row.tolist()) if total is None else total
        for row, total in zip(block, totals)
    ]


def exact_sum(values) -> float:
    """``math.fsum`` of a 1-D array, bit for bit."""
    return exact_row_sums(np.reshape(np.asarray(values, dtype=float), (1, -1)))[0]
