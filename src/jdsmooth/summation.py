"""Exact summation of float rows in numpy, equal bit for bit to ``math.fsum``.

Kernel weights at small bandwidths span hundreds of binades, so a local
moment cannot be added up in floating point in a fixed order without
losing digits.  ``math.fsum`` returns the correctly rounded exact sum but
walks a Python list one term at a time.  This module returns the same
double from a few numpy passes over the terms, by the error-free splitting
and bucketed summation of Higham (2002, *Accuracy and Stability of
Numerical Algorithms*, ch. 4) and Rump, Ogita & Oishi (2008, "Accurate
floating-point summation", SIAM J. Sci. Comput.):

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

A row with a non-finite term or a term of magnitude 2^500 or more goes to
``math.fsum`` itself, which alone settles the NaN, the infinity or the
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


def exact_row_sums(block) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, bit for bit."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("exact_row_sums needs a 2-D array")
    sums = ExactSums(*block.shape)
    for start in range(0, block.shape[1], CHUNK):
        sums.add(block[:, start : start + CHUNK])
    return [
        math.fsum(row.tolist()) if total is None else total
        for row, total in zip(block, sums.totals())
    ]


def exact_sum(values) -> float:
    """``math.fsum`` of a 1-D array, bit for bit."""
    return exact_row_sums(np.reshape(np.asarray(values, dtype=float), (1, -1)))[0]
