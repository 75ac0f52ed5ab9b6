"""Exact summation of float rows in numpy, equal bit for bit to ``math.fsum``.

Kernel weights at small bandwidths span hundreds of binades, so a local
moment cannot be added up in floating point in a fixed order without
losing digits.  ``math.fsum`` returns the correctly rounded exact sum but
walks a Python list one term at a time.  This module returns the same
double from a few numpy passes over the terms, by the error-free splitting
and bucketed summation of Higham (2002, *Accuracy and Stability of
Numerical Algorithms*, ch. 4) and Rump, Ogita & Oishi (2008, "Accurate
floating-point summation", SIAM J. Sci. Comput.):

1. every term is scaled by 2^400, which is exact for terms below 2^500 and
   lifts subnormal terms into the normal range;
2. each scaled term is split into two halves of at most 26 significant
   bits (Veltkamp/Dekker split), whose sum is the term exactly;
3. each half is added into the bin of its binary exponent, a bin being a
   window of w = 27 - ceil(log2(n + 1)) binades for rows of n terms.  A
   half whose leading bit is 2^e is a multiple of 2^(e - 25), so every
   half in a window is a multiple of the quantum 2^(e - 25) of the
   window's lowest exponent e and below 2^(w + 25) quanta.  The two halves
   of one term lie at least 26 binades apart and never share a window, so
   a bin sums at most n halves, below 2^52 quanta: every partial sum is
   exact, in whatever order ``np.bincount`` adds, with one binade to spare;
4. ``math.fsum`` over the few hundred nonzero bin sums rounds the exact
   total once.  Scaling it back by 2^-400 is exact: a normal total scales
   with its rounding, and a subnormal total is a multiple of 2^-1074 that
   needed no rounding at all.

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

_SCALE = 2.0**400
_UNSCALE = 2.0**-400
_LIMIT = 2.0**500
# Veltkamp's constant 2^27 + 1 splits a double into two 26-bit halves
_SPLIT = 2.0**27 + 1.0
# most terms a row may have with windows at least one binade wide
_MAX_TERMS = 2**26 - 1


class ExactSums:
    """Running exact sums of ``rows`` rows of at most ``terms`` terms each.

    ``add`` takes the terms a block of columns at a time, as an array of
    shape (rows, m); ``totals`` then gives each row's sum as ``math.fsum``
    over all its terms returns it, or None for a row that had a term only
    ``math.fsum`` over the whole row can settle (see the module docstring).
    Memory stays at a few hundred bins per row, however many terms arrive.
    """

    def __init__(self, rows: int, terms: int):
        self._rows = rows
        self._room = terms
        self._width = max(27 - int(terms).bit_length(), 1)
        nbins = 2047 // self._width + 1
        self._offsets = (np.arange(rows) * nbins)[:, None]
        self._bins = np.zeros(rows * nbins)
        self._unsettled = np.full(rows, terms > _MAX_TERMS)

    def add(self, block: np.ndarray, work: np.ndarray | None = None) -> None:
        """Add a block of columns.  ``work``, if given, is a float array of
        at least 4 block.size entries that ``add`` may overwrite, so a caller
        adding many blocks can keep one work array instead of four fresh
        temporaries per block."""
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self._rows:
            raise ValueError(f"expected a block of {self._rows} rows")
        if block.shape[1] > self._room:
            raise ValueError("more terms than the sums were sized for")
        self._room -= block.shape[1]
        size = block.size
        if work is None:
            work = np.empty(4 * size)
        halves = work[: 2 * size].reshape((2,) + block.shape)
        hi, lo = halves
        ok = np.less(np.abs(block, out=hi), _LIMIT)
        if not ok.all():
            self._unsettled |= ~ok.all(axis=1)
            block = np.where(ok, block, 0.0)
        # the index half of the work array holds the scaled terms until the
        # split no longer needs them
        scaled = work[2 * size : 3 * size].reshape(block.shape)
        np.multiply(block, _SCALE, out=scaled)
        np.multiply(scaled, _SPLIT, out=hi)
        np.subtract(hi, scaled, out=lo)
        np.subtract(hi, lo, out=hi)
        np.subtract(scaled, hi, out=lo)
        index = work[2 * size : 4 * size].view(np.int64).reshape(halves.shape)
        np.right_shift(halves.view(np.int64), 52, out=index)
        index &= 0x7FF
        index //= self._width
        index += self._offsets
        self._bins += np.bincount(
            index.ravel(), weights=halves.ravel(), minlength=self._bins.size
        )

    def totals(self) -> list[float | None]:
        rows = self._bins.reshape(self._rows, -1)
        nonzero = rows != 0.0
        bins = iter(rows[nonzero].tolist())
        sums = [
            math.fsum(itertools.islice(bins, count)) * _UNSCALE
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
