"""The exact summation engine against its oracle, ``math.fsum``.

Every sum must equal the double ``math.fsum`` returns for the same terms,
zero signs included (compared with ``math.copysign``), and a row that
makes ``math.fsum`` return NaN or infinity or raise must do the same
through the engine.
"""

import itertools
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdsmooth import summation
from jdsmooth.kernels import KernelFamily, KernelPlan
from jdsmooth.locallinear import _power_sums
from jdsmooth.summation import CHUNK, exact_block_sums, exact_row_sums, exact_sum


# the block width the block-boundary tests were drawn at: their rows of a
# few thousand terms span several blocks of it, and each has a
# counterpart at CHUNK's own width
NARROW = 1024


@pytest.fixture
def narrow_blocks(monkeypatch):
    monkeypatch.setattr(summation, "CHUNK", NARROW)


def fsum_outcome(terms):
    """What math.fsum gives for these terms: a value or an exception class."""
    try:
        return math.fsum(list(terms))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def engine_outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
            got, want,
        )


def assert_rows_match(block):
    block = np.asarray(block, dtype=float)
    got = exact_row_sums(block)
    assert len(got) == block.shape[0]
    for row, total in zip(block, got):
        assert_same(total, fsum_outcome(row.tolist()))


def assert_rows_match_in_widths(block, widths):
    """The rows of a block, added through ``exact_block_sums`` in blocks of
    the given widths, over and over."""
    block = np.asarray(block, dtype=float)
    blocks, start = [], 0
    for width in itertools.cycle(widths):
        if start >= block.shape[1]:
            break
        blocks.append(block[:, start : start + width])
        start += width
    for row, total in zip(block, exact_block_sums(*block.shape, lambda: blocks)):
        assert_same(total, fsum_outcome(row.tolist()))


def certified(block, width=CHUNK):
    """The certified stage's totals of a block's rows, fed ``width`` columns
    at a time, and the mask of the rows it refused."""
    block = np.asarray(block, dtype=float)
    blocks = [block[:, s : s + width] for s in range(0, block.shape[1], width)]
    return summation._certified(block.shape[0], blocks, np.empty(2 * block.size))


def assert_certified_totals_match(block, width=CHUNK):
    totals, refused = certified(block, width)
    for row, total, no in zip(np.asarray(block), totals, refused.tolist()):
        if not no:
            assert_same(total, fsum_outcome(row.tolist()))
    return refused


# any finite double of magnitude up to 1e2, subnormals and signed zeros
# included, and values spread evenly over every binade from 2^-1074 to 2^7
TERMS = st.one_of(
    st.floats(min_value=-1e2, max_value=1e2),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 7)),
)

# terms a block's selector bytes pick outright: signed zeros, the smallest
# subnormals, the ends of the range and small integers
PICKED = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e2, -1e2, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
)


def decode_terms(selector, seed):
    """A block of terms from both ``TERMS`` families, one per selector byte.

    A selector below 24 picks from ``PICKED``; above that, an even one
    takes a value in [-100, 100) and an odd one ldexp(m, e) with m in
    [-1, 1) and e in [-1074, 7], both from a generator seeded with seed.
    """
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(-1e2, 1e2, selector.shape)
    m = rng.uniform(-1.0, 1.0, selector.shape)
    block = np.where(
        selector % 2 == 0, uniform, np.ldexp(m, rng.integers(-1074, 8, selector.shape))
    )
    picked = selector < 2 * PICKED.size
    block[picked] = PICKED[selector[picked] // 2]
    return block


@st.composite
def term_blocks(draw):
    """A (1-11, 0-200) block from one ``st.binary`` of selector bytes and a
    seed, decoded in numpy.  Drawing the terms one by one from ``TERMS`` is
    many times slower, and hypothesis's 8 KiB choice buffer stops such
    blocks near 600 terms."""
    rows, cols = draw(st.integers(1, 11)), draw(st.integers(0, 200))
    raw = draw(st.binary(min_size=rows * cols, max_size=rows * cols))
    selector = np.frombuffer(raw, np.uint8).reshape(rows, cols)
    return decode_terms(selector, draw(st.integers(0, 2**32 - 1)))


def test_decoded_terms_cover_both_families_and_the_picked_terms():
    selector = np.tile(np.arange(256, dtype=np.uint8), (40, 1))
    block = decode_terms(selector, 0)
    picked = selector < 2 * PICKED.size
    want = PICKED[selector[picked] // 2]
    assert np.array_equal(block[picked], want)
    assert np.array_equal(np.signbit(block[picked]), np.signbit(want))
    uniform = block[~picked & (selector % 2 == 0)]
    assert np.all(np.abs(uniform) <= 1e2) and uniform.min() < -90 and uniform.max() > 90
    binades = block[~picked & (selector % 2 == 1)]
    _, exponents = np.frexp(binades)
    assert exponents.min() < -1000 and exponents.max() == 7
    assert np.count_nonzero((binades != 0) & (np.abs(binades) < 2.0**-1022)) > 100


@settings(max_examples=200, deadline=None)
@given(term_blocks(), st.integers(1, 64))
def test_row_sums_equal_fsum(block, width):
    """Every row sum is math.fsum's, zero sign included, through
    ``exact_row_sums`` and through ``exact_block_sums`` fed ``width``
    columns at a time."""
    assert_rows_match(block)
    assert_rows_match_in_widths(block, (width,))


@settings(max_examples=100, deadline=None)
@given(term_blocks(), st.integers(1, 64))
def test_certified_totals_equal_fsum(block, width):
    """Every total the first stage accepts is math.fsum's, zero sign
    included, whether a row comes in one block or in many narrow ones."""
    assert_certified_totals_match(block)
    assert_certified_totals_match(block, width)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(TERMS, max_size=200),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.randoms(use_true_random=False),
)
def test_exact_cancellation_leaves_the_small_term(terms, tiny, random):
    row = terms + [-t for t in terms] + [tiny]
    random.shuffle(row)
    assert_same(exact_sum(np.array(row)), fsum_outcome(row))


@pytest.mark.parametrize(
    "row",
    [
        [],
        [0.0],
        [-0.0],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0],
        [5e-324],
        [-5e-324, 5e-324],
        [5e-324, 5e-324, -1e-323, -0.0],
        [2.2250738585072014e-308, -5e-324],
        [1e-320, 3e-321, -7e-322, 1e-310],
        [1e2, 1e-320, -1e2],
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-200],
        [1.0, -(2.0**-54), -(2.0**-300)],
        [2.0**499, 2.0**499, -(2.0**-1074)],
    ],
)
def test_hand_picked_rows(row):
    assert_same(exact_sum(np.array(row, dtype=float)), fsum_outcome(row))


@pytest.mark.parametrize("n", [NARROW - 1, NARROW, NARROW + 1, 5 * NARROW + 3])
@pytest.mark.parametrize("rows", [1, 11])
def test_row_sums_across_chunks(n, rows, narrow_blocks):
    check_row_sums_across_blocks(n, rows)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_row_sums_across_full_width_chunks(n):
    check_row_sums_across_blocks(n, 11)


def check_row_sums_across_blocks(n, rows):
    rng = np.random.default_rng(n + rows)
    block = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-320, 2, (rows, n))
    half = n // 2
    block[:, half : 2 * half] = -block[:, :half]
    assert_rows_match(block)
    # whole rows of equal terms fill one window with as many halves as it holds
    assert_rows_match(np.full((rows, n), 1.0 + 2.0**-52))
    assert_rows_match(np.full((rows, n), -(2.0**-1022) * (1.0 + 2.0**-52)))


def test_crowded_windows_keep_a_rounding_tie_exact():
    """Many equal terms and one term far below them, on a rounding tie.

    A row holds ``copies`` of a term with 26 significant bits, one term
    whose lowest bit lies 26 + ``gap`` binades below that term's leading
    bit, zeros up to 2^13 - 1 terms and a tiny positive term.  The first
    two make an exact sum that sits on a tie at 53 bits, and the tiny term
    breaks it upward.  A partial sum that held both and rounded would
    round the tie to even, downward, and lose the tiny term's push.  Three
    pairs (copies, gap) run over every placement in 18 consecutive
    binades.
    """
    n = 2**13 - 1
    rows = []
    for copies, gap in ((n - 2, 15), ((n - 3) // 2, 16), ((n - 5) // 4, 17)):
        for top in range(18):
            row = np.zeros(n)
            row[:copies] = (2.0**26 - 1.0) * 2.0 ** (top - 25)
            row[copies] = (2.0**25 + 1.0) * 2.0 ** (top - gap - 25)
            row[-1] = 2.0**-300
            rows.append(row)
    assert_rows_match(np.array(rows))


@pytest.mark.parametrize("n", [1, NARROW - 1, NARROW + 1, 3 * NARROW + 17])
def test_subnormal_rows_need_no_scaling(n, narrow_blocks):
    """Rows of subnormals alone, and of subnormals between small normals and
    their negatives: the cancelling normals (fields 1 to 63) leave the exact
    total at the subnormals' scale, where a partial sum that rounded would
    show in the result.  The rows are checked whole and one column at a
    time."""
    check_subnormal_rows(n)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1])
def test_subnormal_rows_across_full_width_chunks(n):
    check_subnormal_rows(n)


def check_subnormal_rows(n):
    rng = np.random.default_rng(n)
    subnormal = np.ldexp(rng.integers(1 - 2**52, 2**52, (4, n)).astype(float), -1074)
    normal = np.ldexp(rng.uniform(-2.0, 2.0, (2, n // 3)), rng.integers(-1022, -959, (2, n // 3)))
    mixed = np.concatenate([normal, subnormal[2:, : n - 2 * (n // 3)], -normal], axis=1)
    block = np.concatenate([subnormal[:2], mixed])
    assert_rows_match(block)
    assert_rows_match_in_widths(block, (1,))


def test_crowded_lo_window_keeps_a_rounding_tie_exact():
    """Many equal terms and one smaller term, just off a rounding tie.

    A row has n = 2^13 - 1 terms: n - 2 copies of a term a whose low 27
    fraction bits are all set, at exponent field F; one term b at field
    F - w, w = 14; and a tiny term of a quarter of b's last bit.  b puts
    the exact sum of the first n - 1 terms one of b's last bits below (or
    above) a rounding tie at 53 bits, and the tiny term moves it a quarter
    of that toward the tie, so an error of one last bit of b in the wrong
    direction crosses the tie instead of landing on it.  F runs over w + 1
    consecutive fields.  The rows are checked whole and one column at a
    time.
    """
    n = 2**13 - 1
    w = 27 - n.bit_length()
    copies, mant_a = n - 2, 2**53 - 1
    # integers in units of b's last bit
    sum_a = copies * mant_a * 2**w
    ulp = 2 ** ((sum_a + 2**52).bit_length() - 53)
    rows = []
    for field in range(600, 600 + w + 1):
        for side in (-1, 1):
            mant_b = 2**52 + (ulp // 2 + side - sum_a - 2**52) % ulp
            total = sum_a + mant_b
            assert total.bit_length() == (sum_a + 2**52).bit_length()
            assert (total - ulp // 2 - side) % ulp == 0
            row = np.full(n, math.ldexp(mant_a, field - 1075))
            row[-2] = math.ldexp(mant_b, field - w - 1075)
            row[-1] = -side * math.ldexp(1.0, field - w - 1077)
            rows.append(row)
    assert_rows_match(np.array(rows))
    assert_rows_match_in_widths(np.array(rows), (1,))


@pytest.mark.parametrize("widths", [(1,), (2,), (3,), (1, 3, 2), (5, CHUNK, 2, 1, 7)])
def test_narrow_and_uneven_blocks(widths):
    """Blocks 1 to 3 columns wide and widths that change from block to
    block: each block takes its own sigma in the certified stage, and the
    refused subnormal row is gathered across them for math.fsum."""
    rng = np.random.default_rng(len(widths) * 10 + widths[0])
    n = 2 * CHUNK + 5
    block = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-320, 2, (4, n))
    block[1, n // 2 : 2 * (n // 2)] = -block[1, : n // 2]
    block[2] = np.ldexp(rng.integers(1 - 2**52, 2**52, n).astype(float), -1074)
    block[3] = 1.0 + 2.0**-52
    assert_rows_match_in_widths(block, widths)


def test_empty_block_leaves_the_sums_unchanged():
    """Empty blocks among the blocks, in both passes: the row of ones is
    certified, the row of subnormals refused and gathered for math.fsum."""
    block = np.array([[1.0] * 3, [5e-324] * 3])
    blocks = [np.empty((2, 0)), block[:, :2], np.empty((2, 0)), block[:, 2:]]
    assert exact_block_sums(2, 3, lambda: blocks) == [3.0, 1.5e-323]


@pytest.mark.parametrize("family", [KernelFamily.GAMMA, KernelFamily.GAUSSIAN])
def test_power_sums_of_small_bandwidth_weights(family):
    """The cubic's 11 rows at h = 5e-4: weights from 1e-320 to 1e2 and zeros."""
    rng = np.random.default_rng(11)
    n = 3 * CHUNK + 17
    w = np.abs(0.1 + 0.1 * rng.standard_normal(n))
    d = w + 0.002 * rng.standard_normal(n)
    y = rng.standard_normal(n)
    x = 0.1
    k = KernelPlan(family, w).weights(5e-4, x)[0]
    assert np.any(k == 0.0) and 0.0 < np.min(k[k > 0]) < 1e-300 < 1 < np.max(k)
    t = (d - x) / np.max(np.abs(d - x))
    rows = [k]
    for _ in range(6):
        rows.append(rows[-1] * t)
    rows.append(k * y)
    for _ in range(3):
        rows.append(rows[-1] * t)
    block = np.array(rows)
    assert_rows_match(block)
    want = [math.fsum(row.tolist()) for row in block]
    design, rhs = _power_sums(k, t, y[None], 3)
    assert design + rhs == want


@pytest.mark.parametrize(
    "row",
    [
        [1.0, math.nan, 2.0],
        [math.inf, 1.0],
        [-math.inf, 1e-320],
        [math.inf, -math.inf],
        [math.nan, math.inf, -math.inf],
        [1e308, 1e308],
        [1e308, 1e308, math.nan],
        [1e308, -1e308, 1e308],
        [2.0**500, 1.0, -(2.0**500)],
        [1.0, 1e308, -1e308, 2.0**-1074],
    ],
)
def test_rows_left_to_fsum(row):
    want = fsum_outcome(row)
    assert_same(engine_outcome(exact_sum, np.array(row)), want)
    # the row's neighbours in a block are still summed exactly
    block = [row, [0.5] * len(row), [2.0**-1074] * len(row)]
    got = engine_outcome(exact_row_sums, np.array(block))
    if isinstance(want, type):
        assert got is want
    else:
        for total, terms in zip(got, block):
            assert_same(total, fsum_outcome(terms))


def test_power_sums_hand_non_finite_products_to_fsum():
    k = np.array([1.0, 0.5, 0.0, 2.0] * 600)
    t = np.array([1e200, -1.0, math.inf, 3.0] * 600)
    y = np.ones(k.size)
    with np.errstate(over="ignore", invalid="ignore"):
        design, rhs = _power_sums(k, t, y[None], 1)
        rows = [k, k * t, k * t * t, k * y, k * y * t]
    for got, row in zip(design + rhs, rows):
        assert_same(got, fsum_outcome(row.tolist()))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(TERMS, max_size=100),
    st.floats(min_value=1.0, max_value=2.0),
    st.integers(-1000, 500),
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.randoms(use_true_random=False),
)
def test_certified_totals_near_a_rounding_tie(
    terms, mantissa, exponent, side, tiny, random
):
    """A term a, half a last bit of a beside it (an exact tie), a tiny term
    that breaks the tie or not, and pairs that cancel: the stage accepts a
    total only where it is math.fsum's."""
    a = math.ldexp(mantissa, exponent)
    row = terms + [-t for t in terms] + [a, side * math.ulp(a) / 2, tiny]
    random.shuffle(row)
    assert_certified_totals_match([row])
    assert_certified_totals_match([row], 7)


def test_certified_stage_takes_typical_rows_and_zeros():
    """Power sums of small-bandwidth weights (from 1e-320 to 1e2, zeros
    among them), all-zero rows, signed zeros and empty rows: all certified,
    exact zeros as +0.0."""
    rng = np.random.default_rng(11)
    n = 3 * CHUNK + 17
    w = np.abs(0.1 + 0.1 * rng.standard_normal(n))
    k = KernelPlan(KernelFamily.GAUSSIAN, w).weights(5e-4, 0.1)[0]
    t = (w - 0.1) / np.max(np.abs(w - 0.1))
    block = np.array([k, k * t, k * t * t, np.zeros(n), np.full(n, -0.0)])
    assert not assert_certified_totals_match(block).any()
    assert not assert_certified_totals_match(block, 100).any()
    totals, refused = certified(np.empty((3, 0)))
    assert not refused.any() and [math.copysign(1.0, s) for s in totals] == [1.0] * 3


def _crowded_tie_blocks(monkeypatch):
    """The blocks the two ``test_crowded_*`` tests check, in that order."""
    blocks = []
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "assert_rows_match", blocks.append)
    monkeypatch.setattr(module, "assert_rows_match_in_widths", lambda block, widths: None)
    test_crowded_windows_keep_a_rounding_tie_exact()
    test_crowded_lo_window_keeps_a_rounding_tie_exact()
    monkeypatch.undo()
    return blocks


def test_crowded_tie_rows_are_refused_and_summed_exactly(monkeypatch):
    """The crowded-window rows sit on a tie that a term of 2^-300 breaks,
    far below the stage's bound: it refuses every one, and math.fsum sums
    them exactly through ``exact_row_sums`` and ``_power_sums``.
    The crowded-``lo`` rows sit 3/4 of a last bit of their small term off
    the tie, which the stage's bound resolves; whichever stage takes them,
    the totals are math.fsum's."""
    windows, lo_rows = _crowded_tie_blocks(monkeypatch)
    assert certified(windows)[1].all()
    for block in (windows, lo_rows):
        assert_certified_totals_match(block)
        assert_rows_match(block)
        want = [math.fsum(row.tolist()) for row in block]
        ones = np.ones(block.shape[1])
        # k = the row, t = y = 1: all five power-sum rows are the row itself
        for row, total in zip(block, want):
            design, rhs = _power_sums(row, ones, ones[None], 1)
            assert design + rhs == [total] * 5
        design, rhs = _power_sums(block, np.ones(block.shape), ones[None], 1)
        assert design + rhs == [want] * 5


def test_only_refused_rows_reach_fsum(monkeypatch):
    """A batch the stage certifies whole makes no ``math.fsum`` call; one
    tie row among certified rows sends that row alone."""
    made = []

    def fsum(terms):
        made.append(len(terms))
        return math.fsum(terms)

    windows, _ = _crowded_tie_blocks(monkeypatch)
    monkeypatch.setattr(summation, "math", types.SimpleNamespace(fsum=fsum))
    rng = np.random.default_rng(4)
    n = windows.shape[1]
    k = rng.uniform(0.0, 2.0, (3, n)) ** 20
    t = rng.standard_normal((3, n))
    y = rng.standard_normal((2, n))
    design, rhs = _power_sums(k, t, y, 1)
    assert made == []
    block = np.vstack([k, windows[:1], t])
    assert exact_row_sums(block) == [math.fsum(row.tolist()) for row in block]
    assert made == [n]
