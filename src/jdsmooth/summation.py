"""Exact summation of float rows in numpy, equal bit for bit to ``math.fsum``.

Kernel weights at small bandwidths span hundreds of binades, so a local
moment cannot be added up in floating point in a fixed order without
losing digits.  ``math.fsum`` returns the correctly rounded exact sum but
walks a Python list one term at a time.  This module returns the same
double from a few numpy passes over the terms: a cheap filter certifies
most rounded sums, and ``math.fsum`` itself takes the rows it cannot
certify (the filter-then-exact pattern of Shewchuk, 1997, "Adaptive
precision floating-point arithmetic and fast robust geometric
predicates", Discrete Comput. Geom. 18).

The filter is certified extraction (``_certified``).  For each block of
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
The first block's high sum, low sum and bound start the row's, the bound
with the u |low| term that a fold adds (u = 2^-53); later block partials
are folded in as they arrive by a second error-free transformation,
TwoSum (Knuth, *TAOCP* vol. 2, 4.2.2), which carries the high sums
exactly; the low sums add up with their rounding errors added to the
bound, so memory stays bounded by CHUNK columns.  At the end the row's
exact high sum t and approximate low sum give r = fl(t + low) and its
exact TwoSum residual e; r is certified when it is finite and nonzero
and fl(|e| + B) is below half the smaller gap beside r.  That half-gap
is a power of two, so the floating-point comparison implies the exact
one, and the exact sum lies strictly nearer r than any other double: r
is its correct rounding.  The other certified case is e = B = 0, where r
is the exact sum.  A row with a non-finite term or a term of 2^500 or
more, a sum near a rounding tie and a sum at the subnormal scale are
refused.

The argument holds for any block width m: at CHUNK = 8192 columns, M is
at most 14, sigma at most 2^514 and the bound stays normal.  Blocks are
that wide because the stage's cost is mostly fixed, a few dozen numpy
calls on short per-row arrays for each call and each block, against a
few nanoseconds per term: a kernel-moment row of a series of up to 8192
terms, such as every fit of a 5000-step path, goes through in one block
instead of five of 1024.  The price is scratch of two doubles per term
of a block, 128 KB per row of 8192 columns.

The refused rows are gathered from a second pass over the blocks into one
array of their full width, and each goes through ``math.fsum`` as a list,
one row at a time; ``math.fsum`` alone settles the NaN, the infinity or
the order-dependent overflow such a row returns or raises.  Typical
kernel moments are refused once in tens of thousands of rows or never,
and those rows alone pay the trade-off: ``math.fsum``'s Python speed,
about 100 ns per term, and memory of 8 bytes per term for each refused
row plus one row's list (12 MB for 11 refused rows of 10^5 terms).
"""

from __future__ import annotations

import math

import numpy as np

# columns summed per pass: bounds the blocks callers build and the certified
# stage's scratch, two doubles per term of a block (see the module docstring)
CHUNK = 8192

_LIMIT = 2.0**500
# floor of the certified stage's exponent E, 2^E > max |x|
_MIN_EXPONENT = -900
# unit roundoff, and a factor above (1 + 2^-53)^4 by which a bound summed in
# round-to-nearest (three additions and this product) is lifted over its
# exact value
_U = 2.0**-53
_LIFT = 1.0 + 2.0**-49


def _two_sum(a, b):
    """s = fl(a + b) and the exact residual a + b - s (Knuth's TwoSum)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _certified(rows: int, blocks, work: np.ndarray) -> tuple[list, np.ndarray]:
    """The certified stage (see the module docstring): each row's rounded
    total, and a mask of the rows whose total it could not certify."""
    high = None  # exact
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
        higham = np.where(top > 0.0, ((m - 1) * m * 2.0**-105) * sigma, 0.0)
        if high is None:
            high, low = hi.sum(axis=1), lo.sum(axis=1)
            bound = higham + _U * np.abs(low)  # on |low - exact low sum|
        else:
            high, e = _two_sum(high, hi.sum(axis=1))
            part = lo.sum(axis=1) + e
            low += part
            # each addition errs by at most 2^-53 times its rounded result
            bound += higham
            bound += _U * np.abs(part) + _U * np.abs(low)
        bound *= _LIFT
    if high is None:
        high = low = bound = np.zeros(rows)
    total, e = _two_sum(high, low)
    magnitude = np.abs(total)
    half_gap = (magnitude - np.nextafter(magnitude, 0.0)) * 0.5
    certified = (np.abs(e) + bound < half_gap) | ((e == 0.0) & (bound == 0.0))
    # + 0.0: an exact zero sum is +0.0, as math.fsum returns it
    return (total + 0.0).tolist(), refused | ~certified


def exact_block_sums(rows: int, terms: int, blocks) -> list[float]:
    """Each row's ``math.fsum`` over the columns of the blocks ``blocks()``
    yields.

    ``blocks`` is a function returning an iterable of arrays of shape
    (rows, m), at most CHUNK columns each and ``terms`` in all.  It is
    called once for the certified stage, whose scratch of 2 rows
    min(terms, CHUNK) doubles is allocated here (0.4 MB for the 5 rows of
    one line fit at 5000 terms), and, only if that refuses a row, once
    more to gather the refused rows for ``math.fsum``.
    """
    totals, refused = _certified(rows, blocks(), np.empty(2 * rows * min(terms, CHUNK)))
    if refused.any():
        redo = np.flatnonzero(refused)
        gathered = np.empty((redo.size, terms))
        start = 0
        for block in blocks():
            gathered[:, start : start + block.shape[1]] = block[redo]
            start += block.shape[1]
        for i, row in zip(redo.tolist(), gathered):
            totals[i] = math.fsum(row.tolist())
    return totals


def exact_row_sums(block) -> list[float]:
    """``math.fsum`` of each row of a 2-D array, bit for bit."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2:
        raise ValueError("exact_row_sums needs a 2-D array")
    rows, n = block.shape
    return exact_block_sums(
        rows, n, lambda: (block[:, s : s + CHUNK] for s in range(0, n, CHUNK))
    )


def exact_sum(values) -> float:
    """``math.fsum`` of a 1-D array, bit for bit."""
    return exact_row_sums(np.reshape(np.asarray(values, dtype=float), (1, -1)))[0]
