"""Kernel families: closed-form values, PSD Gram matrices, invariances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from rkhsreg.kernels import (
    _TAYLOR_RHO,
    _TAYLOR_TERMS,
    APPLY_BLOCK_ENTRIES,
    FAMILIES,
    KernelSpec,
    _sq_dists,
    as_points,
    cross_gram,
    gram,
    kernel_apply,
    kernel_eval,
    taylor_transform,
)

# Frozen closed-form evaluations at unit separation.
EXP_HALF = 0.6065306597126334  # exp(-1/2)
EXP_ONE = 0.36787944117144233  # exp(-1)
EXP_TWO = 0.1353352832366127  # exp(-2)


def test_gaussian_closed_forms():
    spec = KernelSpec("gaussian", 1.0, 1)
    assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(EXP_HALF, abs=1e-15)
    spec_quarter = KernelSpec("gaussian", 0.25, 1)
    # squared distance 0.25, 2 h^2 = 0.125 -> exp(-2)
    assert kernel_eval(spec_quarter, 0.0, 0.5) == pytest.approx(EXP_TWO, abs=1e-15)


def test_laplace_closed_forms():
    spec = KernelSpec("laplace", 1.0, 1)
    assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(EXP_ONE, abs=1e-15)
    assert kernel_eval(KernelSpec("laplace", 0.5, 1), 0.0, 1.0) == pytest.approx(
        EXP_TWO, abs=1e-15
    )


def test_rational_quadratic_closed_forms():
    spec = KernelSpec("rational_quadratic", 1.0, 1)
    assert kernel_eval(spec, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    half = KernelSpec("rational_quadratic", np.sqrt(0.5), 1)
    assert kernel_eval(half, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_constant_family_is_one_everywhere():
    spec = KernelSpec("constant", dim=2)
    assert kernel_eval(spec, (0.0, 0.0), (3.0, -7.0)) == 1.0
    K = gram(spec, np.random.default_rng(0).normal(size=(6, 2)))
    assert np.array_equal(K, np.ones((6, 6)))


def test_unit_diagonal_and_exact_symmetry():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 3):
        for family in FAMILIES:
            pts = rng.uniform(-2, 2, size=(15, dim))
            K = gram(KernelSpec(family, 0.7, dim), pts)
            assert np.array_equal(np.diag(K), np.ones(15))
            assert np.array_equal(K, K.T)


def test_kernel_values_bounded():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        spec = KernelSpec(family, 0.5, 2)
        a = rng.normal(size=(40, 2))
        b = rng.normal(size=(40, 2))
        vals = cross_gram(spec, a, b)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)


def test_gram_psd_many_random_sets():
    # 200 random point sets across families and dimensions; the minimum
    # eigenvalue may only dip below zero by roundoff proportional to n.
    rng = np.random.default_rng(3)
    for trial in range(200):
        family = FAMILIES[trial % len(FAMILIES)]
        dim = 1 + trial % 2
        n = int(rng.integers(1, 41))
        pts = rng.uniform(-3, 3, size=(n, dim))
        K = gram(KernelSpec(family, 0.4, dim), pts)
        min_eig = float(np.linalg.eigvalsh(K)[0])
        assert min_eig >= -1e-8 * n


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(12, 2))
    perm = rng.permutation(12)
    spec = KernelSpec("gaussian", 0.3, 2)
    K = gram(spec, pts)
    K_perm = gram(spec, pts[perm])
    # Each entry is an elementwise function of its own two points (the
    # rank-2 difference product rounds each entry once, whatever its
    # blocking), so a permutation of the points permutes the Gram bitwise.
    np.testing.assert_array_equal(K_perm, K[np.ix_(perm, perm)])


def test_near_duplicate_points_clamped():
    spec = KernelSpec("laplace", 1e-3, 1)
    # Squared distances come from direct coordinate differences, so
    # coincident points are exactly 0 apart and evaluate to exactly 1
    # even at tiny bandwidth, with no clamp against cancellation.
    assert kernel_eval(spec, 0.1, 0.1) == 1.0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2])
def test_gram_and_cross_gram_match_kernel_eval(family, dim):
    # Near-coincident pairs (offsets down to one ulp) are where the
    # |a|^2 + |b|^2 - 2ab expansion loses every digit of the distance.
    rng = np.random.default_rng(11)
    base = rng.uniform(-1.0, 1.0, size=(6, dim))
    offsets = np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 0.3])
    pts = np.vstack([base[:3], base[3] + offsets[:, None], np.nextafter(base[4], 2.0)])
    others = rng.uniform(-1.0, 1.0, size=(4, dim))
    spec = KernelSpec(family, 1e-3 if family == "laplace" else 0.4, dim)
    K = gram(spec, pts)
    C = cross_gram(spec, pts, np.vstack([others, pts[3:5]]))
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert K[i, j] == kernel_eval(spec, x, y)
        for j, y in enumerate(np.vstack([others, pts[3:5]])):
            assert C[i, j] == kernel_eval(spec, x, y)
    # Spot values against the closed form on the coordinate differences.
    gap = float(np.sqrt(np.sum((pts[3] - pts[6]) ** 2)))
    expected = {
        "gaussian": np.exp(-(gap**2) / (2.0 * 0.4**2)),
        "laplace": np.exp(-gap / 1e-3),
        "rational_quadratic": 1.0 / (1.0 + gap**2 / (2.0 * 0.4**2)),
        "constant": 1.0,
    }[family]
    assert K[3, 6] == pytest.approx(expected, rel=1e-12)


def test_as_points_shapes():
    assert as_points(0.3, 1).shape == (1, 1)
    assert as_points([0.1, 0.2, 0.3], 1).shape == (3, 1)
    assert as_points([0.1, 0.2], 2).shape == (1, 2)
    assert as_points(np.zeros((5, 2)), 2).shape == (5, 2)


def test_as_points_dim_mismatch_raises():
    with pytest.raises(ValueError):
        as_points([0.1, 0.2, 0.3], 2)
    with pytest.raises(ValueError):
        as_points(np.zeros((4, 3)), 2)


def test_kernel_eval_rejects_batches():
    spec = KernelSpec("gaussian", 1.0, 1)
    with pytest.raises(ValueError):
        kernel_eval(spec, np.zeros((2, 1)), 0.0)


def test_cross_gram_shape():
    spec = KernelSpec("gaussian", 1.0, 1)
    out = cross_gram(spec, np.zeros((3, 1)), np.ones((5, 1)))
    assert out.shape == (3, 5)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_apply_matches_the_cross_gram_product(family, dim):
    # Row counts one below, at and one above a block boundary, and one
    # spanning three blocks; vector and two-column coefficients.
    rng = np.random.default_rng(17 + dim)
    spec = KernelSpec(family, 0.4, dim)
    m = 300
    rows = APPLY_BLOCK_ENTRIES // m
    b = rng.uniform(-1.0, 1.0, size=(m, dim))
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        a = rng.uniform(-1.0, 1.0, size=(n, dim))
        C = cross_gram(spec, a, b)
        for coeffs in (rng.standard_normal(m), rng.standard_normal((m, 2))):
            got = kernel_apply(spec, a, b, coeffs)
            assert got.shape == (n,) + coeffs.shape[1:]
            # rtol 1e-14 against the scale |C| |c| of the sum, so entries
            # that cancel to near 0 are held to the same digits.
            assert np.all(np.abs(got - C @ coeffs) <= 1e-14 * (np.abs(C) @ np.abs(coeffs)))


def test_kernel_apply_edge_shapes():
    spec = KernelSpec("gaussian", 0.5, 2)
    a = np.random.default_rng(18).uniform(size=(5, 2))
    # The zero expansion: no centers.
    np.testing.assert_array_equal(kernel_apply(spec, a, np.zeros((0, 2)), np.zeros(0)), np.zeros(5))
    np.testing.assert_array_equal(
        kernel_apply(spec, a, np.zeros((0, 2)), np.zeros((0, 2))), np.zeros((5, 2))
    )
    # More centers than a block holds: one row per block.
    b = np.random.default_rng(19).uniform(size=(APPLY_BLOCK_ENTRIES + 1, 2))
    coeffs = np.full(b.shape[0], 1.0 / b.shape[0])
    expected = cross_gram(spec, a[:3], b) @ coeffs
    np.testing.assert_allclose(kernel_apply(spec, a[:3], b, coeffs), expected, rtol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 3])
def test_a_stack_of_point_sets_matches_one_set_at_a_time(family, dim):
    # gram, cross_gram and kernel_apply take a stack (B, m, d) in place
    # of their last point set. Each member's differences are the same
    # exact rank-2 products, so its Gram and cross-Gram are bitwise the
    # single set's; kernel_apply spans several row blocks here.
    rng = np.random.default_rng(23 + dim)
    spec = KernelSpec(family, 0.4, dim)
    B, m = 4, 30
    stack = rng.uniform(-1.0, 1.0, size=(B, m, dim))
    n = 2 * (APPLY_BLOCK_ENTRIES // (B * m)) + 1
    a = rng.uniform(-1.0, 1.0, size=(n, dim))
    coeffs = rng.standard_normal((B, m, 2))
    grams = gram(spec, stack)
    crosses = cross_gram(spec, a, stack)
    applied = kernel_apply(spec, a, stack, coeffs)
    assert grams.shape == (B, m, m) and crosses.shape == (B, n, m) and applied.shape == (B, n, 2)
    for j in range(B):
        np.testing.assert_array_equal(grams[j], gram(spec, stack[j]))
        np.testing.assert_array_equal(crosses[j], cross_gram(spec, a, stack[j]))
        C = crosses[j]
        assert np.all(
            np.abs(applied[j] - C @ coeffs[j]) <= 1e-14 * (np.abs(C) @ np.abs(coeffs[j]))
        )
    with pytest.raises(ValueError, match="coordinates"):
        gram(spec, np.zeros((B, m, dim + 1)))
    with pytest.raises(ValueError):
        gram(spec, np.zeros((B, 0, dim)))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_upper_gram_is_bitwise_the_upper_triangle(family, dim):
    # gram(..., upper=True) assembles row blocks from the diagonal on; its
    # values must be the full Gram's bits, with exact zeros below, for a
    # set and a stack that fit one block and for ones that span several.
    rng = np.random.default_rng(31 + dim)
    spec = KernelSpec(family, 0.4, dim)
    for shape in [(30, dim), (4, 30, dim), (300, dim), (4, 120, dim)]:
        pts = rng.uniform(-1.0, 1.0, size=shape)
        n, members = shape[-2], shape[0] if len(shape) == 3 else 1
        blocks = -(-n // max(1, APPLY_BLOCK_ENTRIES // (members * n)))
        assert (blocks > 1) == (n > 30)
        # A NaN array of the Gram's size, freed at once, so that the
        # memory gram gets is unlikely to hold zeros before it writes.
        np.full(shape[:-1] + (n,), np.nan)
        upper = gram(spec, pts, upper=True)
        np.testing.assert_array_equal(upper, np.triu(gram(spec, pts)), err_msg=str(shape))


@pytest.mark.parametrize("stacked", [False, True], ids=["2d-points", "stacked-points"])
def test_kernel_apply_is_bitwise_the_per_block_form(stacked):
    # kernel_apply builds b's operand [1; -b_k] once per call; each row
    # block must still be bitwise the cross-Gram of that block alone,
    # whose differences build the operand afresh.
    rng = np.random.default_rng(29)
    spec = KernelSpec("gaussian", 0.4, 2)
    b = rng.uniform(-1.0, 1.0, size=(3, 40, 2) if stacked else (40, 2))
    coeffs = rng.standard_normal(b.shape[:-1] + (2,))
    rows = APPLY_BLOCK_ENTRIES // (b.size // 2)
    a = rng.uniform(-1.0, 1.0, size=(2 * rows + 5, 2))
    blocks = [
        cross_gram(spec, a[start : start + rows], b) @ coeffs
        for start in range(0, a.shape[0], rows)
    ]
    assert len(blocks) == 3
    expected = np.concatenate(blocks, axis=1 if stacked else 0)
    assert np.array_equal(kernel_apply(spec, a, b, coeffs), expected)


def _assert_plain(spec, a, b, coeffs, got):
    """got is the plain cross_gram(a, b) @ coeffs within 1e-13 * sum |coeffs|.

    The sum runs over each column of each member of a stack, and got
    has NaN exactly where the plain product has.
    """
    b = np.asarray(b, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    want = cross_gram(spec, a, b) @ coeffs
    total = np.expand_dims(np.abs(coeffs).sum(axis=b.ndim - 2), b.ndim - 2)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.all(np.isnan(want) | (np.abs(got - want) <= 1e-13 * total))


GAUSS_1D = KernelSpec("gaussian", 0.25, 1)
SUP_AXIS = np.linspace(0.0, 1.0, 512)


def _dispatch_table():
    """(kernel, a, b, coeffs shape, the arithmetic kernel_apply must pick) rows."""
    rng = np.random.default_rng(47)

    def inside(low, high, shape):
        out = rng.uniform(low, high, size=shape)
        out.reshape(-1)[:2] = low, high
        return out

    few, many = inside(0.0, 1.0, (41, 1)), inside(0.0, 1.0, (256, 1))
    stack, wide = inside(0.0, 1.0, (3, 41, 1)), inside(-3.0, 3.0, (41, 1))
    points = rng.uniform(-0.1, 1.1, size=(97, 1))
    nudged = SUP_AXIS.copy()
    nudged[256] = np.nextafter(nudged[256], np.inf)
    past_end = many.copy()
    past_end[-1, 0] = 1.0 + 1e-9
    nan_point = points.copy()
    nan_point[3, 0] = np.nan
    points_2d, centers_2d = rng.uniform(size=(97, 2)), rng.uniform(size=(256, 2))
    rows = [
        ("axis", GAUSS_1D, SUP_AXIS, few, (41,), "axis"),
        ("axis-one-column", GAUSS_1D, SUP_AXIS, few, (41, 1), "axis"),
        ("axis-stack", GAUSS_1D, SUP_AXIS, stack, (3, 41, 1), "axis"),
        ("axis-of-7-points", KernelSpec("gaussian", 1.0, 1), np.linspace(0, 1, 7), few, (41,),
         "axis"),
        ("axis-of-2-points", KernelSpec("gaussian", 2.0, 1), [0.0, 1.0], few, (41,), "axis"),
        ("axis-of-1-point", GAUSS_1D, [0.5], np.full((41, 1), 0.5), (41,), "assembly"),
        ("axis-one-offset", GAUSS_1D, np.linspace(-3, 3, 512), wide, (41,), "assembly"),
        ("axis-two-columns", GAUSS_1D, SUP_AXIS, many, (256, 2), "taylor"),
        ("not-linspace", GAUSS_1D, nudged, many, (256,), "taylor"),
        ("descending", GAUSS_1D, SUP_AXIS[::-1], many, (256,), "taylor"),
        ("center-past-end", GAUSS_1D, SUP_AXIS, past_end, (256,), "taylor"),
        ("center-far-outside", GAUSS_1D, SUP_AXIS, [[0.5], [1e4]], (2,), "assembly"),
        ("stack-off-axis", GAUSS_1D, points, stack, (3, 41, 2), "assembly"),
        ("taylor", GAUSS_1D, points, many, (256,), "taylor"),
        ("taylor-two-columns", GAUSS_1D, points, many, (256, 2), "taylor"),
        ("taylor-15Q-above-m", GAUSS_1D, points, few, (41, 2), "assembly"),
        ("taylor-narrow", KernelSpec("gaussian", 0.1, 1), points, many, (256,), "assembly"),
        ("taylor-nan-point", GAUSS_1D, nan_point, many, (256, 2), "assembly"),
        ("laplace", KernelSpec("laplace", 0.25, 1), SUP_AXIS, few, (41,), "assembly"),
        ("rational_quadratic", KernelSpec("rational_quadratic", 0.25, 1), points, many, (256,),
         "assembly"),
        ("constant", KernelSpec("constant", 1.0, 1), SUP_AXIS, few, (41,), "assembly"),
        ("gaussian-2d", KernelSpec("gaussian", 0.25, 2), points_2d, centers_2d, (256,), "assembly"),
    ]
    return [pytest.param(*row[1:], id=row[0]) for row in rows]


@pytest.mark.parametrize("spec, a, b, shape, path", _dispatch_table())
def test_kernel_apply_picks_its_arithmetic_from_its_inputs(kernel_paths, spec, a, b, shape, path):
    # One row per case of the rule in the kernels docstring; a transform
    # that falls back to the assembly counts as assembly.
    coeffs = np.random.default_rng(53).standard_normal(shape)
    got = kernel_apply(spec, a, b, coeffs)
    assert kernel_paths == [path]
    _assert_plain(spec, a, b, coeffs, got)


def test_an_axis_with_a_center_outside_it_gives_the_plain_product():
    # The axis transform's offset factors stay within [e^-0.5, e^0.5]
    # only for centers on the axis: a center at 1e4 would make 443 of
    # 512 values NaN. kernel_apply checks the span itself.
    far = [[0.5], [1e4]]
    got = kernel_apply(GAUSS_1D, SUP_AXIS, far, [1.0, 1.0])
    assert np.isfinite(got).all()
    _assert_plain(GAUSS_1D, SUP_AXIS, far, [1.0, 1.0], got)
    stack = np.random.default_rng(59).uniform(size=(3, 40, 1))
    coeffs = np.ones((3, 40, 1))
    for a, b in [
        (SUP_AXIS, np.concatenate([stack[:1], stack[1:2] * 1e4, stack[2:]])),
        (SUP_AXIS[::-1], far),
        ([0.5], far),
        ([0.0, 1.0], far),
    ]:
        ones = np.ones(np.shape(b)[:-1] + (1,))
        got = kernel_apply(GAUSS_1D, a, b, ones)
        assert np.isfinite(got).all()
        _assert_plain(GAUSS_1D, a, b, ones, got)
    # A NaN center reaches its own member's values and no others.
    with_nan = stack.copy()
    with_nan[1, 7, 0] = np.nan
    got = kernel_apply(GAUSS_1D, SUP_AXIS, with_nan, coeffs)
    _assert_plain(GAUSS_1D, SUP_AXIS, with_nan, coeffs, got)
    assert np.isnan(got[1]).all() and np.isfinite(got[[0, 2]]).all()


@pytest.mark.parametrize("size", [512, 7])
@pytest.mark.parametrize("box", [(0.0, 1.0), (-3.0, 3.0), (1000.0, 1001.0)])
@pytest.mark.parametrize("bandwidth", [0.01, 0.05, 0.25, 1.0])
def test_gaussian_axis_apply_matches_kernel_apply(kernel_paths, bandwidth, box, size):
    # The axis transform evaluates at anchor + offset, within an ulp of
    # linspace's points, so kernel_apply on an axis matches the plain
    # product to roundoff, for one center set and a stack, with centers
    # on both ends of the axis. With fewer than two offsets it assembles.
    spec = KernelSpec("gaussian", bandwidth, 1)
    axis = np.linspace(*box, size)
    rng = np.random.default_rng(37)
    centers = rng.uniform(*box, size=(3, 41, 1))
    centers[0, :2, 0] = box
    coeffs = rng.standard_normal((3, 41, 1))
    _assert_plain(spec, axis, centers, coeffs, kernel_apply(spec, axis, centers, coeffs))
    for b in range(3):
        got = kernel_apply(spec, axis, centers[b], coeffs[b, :, 0])
        _assert_plain(spec, axis, centers[b], coeffs[b, :, 0], got)
    c, step, width = 0.5 / bandwidth**2, (box[1] - box[0]) / (size - 1), box[1] - box[0]
    offsets = min(math.isqrt(size - 1) + 1, math.floor(0.5 / (c * step * width)))
    assert kernel_paths == ["axis" if offsets >= 2 else "assembly"] * 4


def _taylor_fallback(bandwidth, low, high, m):
    """Whether the Taylor transform falls back to the assembly for this box and m: Q * P >= m."""
    c = 0.5 / bandwidth**2
    count = max(1, math.ceil(c * (high - low) ** 2 / (2.0 * _TAYLOR_RHO)))
    return count * _TAYLOR_TERMS >= m


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("m", [64, 256, 1024])
@pytest.mark.parametrize("box", [(0.0, 1.0), (-3.0, 3.0), (1000.0, 1001.0)])
@pytest.mark.parametrize("bandwidth", [0.01, 0.05, 0.25, 1.0])
def test_gaussian_taylor_apply_matches_kernel_apply(kernel_paths, bandwidth, box, m, columns):
    # Points inside and up to a tenth of the width outside the centers'
    # span, the box ends among them, so kernel_apply takes the Taylor
    # transform, whose sums match the plain product to roundoff; where
    # Q * P >= m it assembles.
    spec = KernelSpec("gaussian", bandwidth, 1)
    low, high = box
    width = high - low
    rng = np.random.default_rng(41)
    centers = rng.uniform(low, high, size=(m, 1))
    points = rng.uniform(low - 0.1 * width, high + 0.1 * width, size=(97, 1))
    points[:2, 0] = low - 0.1 * width, high + 0.1 * width
    coeffs = rng.standard_normal((m, columns) if columns > 1 else m)
    got = kernel_apply(spec, points, centers, coeffs)
    _assert_plain(spec, points, centers, coeffs, got)
    fallback = _taylor_fallback(bandwidth, low - 0.1 * width, high + 0.1 * width, m)
    assert kernel_paths == ["assembly" if fallback else "taylor"]


def test_gaussian_taylor_term_count_is_the_least_below_the_unit_roundoff():
    # P is the least term count with rho^P / P! * e^rho <= 2^-53.
    bound = [_TAYLOR_RHO**p / math.factorial(p) * math.exp(_TAYLOR_RHO) for p in (14, 15)]
    assert _TAYLOR_TERMS == 15 and bound[1] <= 2.0**-53 < bound[0]


def test_gaussian_taylor_truncation_is_below_the_unit_roundoff(kernel_paths):
    # The worst case of the series: on [0, 1] at h = 0.25 (c = 8, Q = 8
    # anchors (q + 1/2) / 8), centers at the bin edges q / 8 sit 1/16
    # from their anchor, so at the box ends |t| = 2c * 1/2 * 1/16 = rho;
    # at x = 1 every t but one is -rho. Dyadic points make every
    # exponent exact, so math.exp and fsum give the sum within an ulp.
    # Positive coefficients add the truncation errors with one sign.
    # The ends with x = 1 twice are not np.linspace of their ends, so
    # kernel_apply takes the Taylor transform.
    centers = (np.arange(256) % 9 / 8.0).reshape(-1, 1)
    coeffs = 1.0 + np.arange(256) % 5 / 4.0
    ends = np.array([[0.0], [1.0], [1.0]])
    got = kernel_apply(GAUSS_1D, ends, centers, coeffs)
    assert kernel_paths == ["taylor"]
    exact = [
        math.fsum(a * math.exp(-8.0 * (x - y) ** 2) for a, y in zip(coeffs, centers[:, 0]))
        for x in ends[:, 0]
    ]
    np.testing.assert_allclose(got, exact, rtol=4 * 2.0**-53, atol=0)


def test_gaussian_taylor_truncation_on_a_wider_interval_is_below_the_unit_roundoff(kernel_paths):
    # A transform held on an interval wider than its inputs' hull, as the
    # design context's is: on [-1/2, 3/2] at h = 1/2 (c = 2, W = 2, Q = 8
    # anchors -3/8 + q/4), the centers 0, 1/4, ..., 1 sit on bin edges
    # inside the hull [0, 1], 1/8 from their anchor, the largest |v| the
    # bins allow. Dyadic points make every exponent exact, so math.exp
    # and fsum give the sum within an ulp; positive coefficients add the
    # truncation errors with one sign.
    spec = KernelSpec("gaussian", 0.5, 1)
    centers = np.arange(256) % 5 / 4.0
    coeffs = 1.0 + np.arange(256) % 3 / 2.0
    points = np.arange(9) / 8.0
    transform = taylor_transform(spec, -0.5, 1.5, centers)
    assert transform.count == 8
    tables = transform.point_table(points), transform.center_table(centers)
    got = transform.apply(*tables, coeffs)
    assert kernel_paths == ["taylor"]
    exact = [
        math.fsum(a * math.exp(-2.0 * (x - y) ** 2) for a, y in zip(coeffs, centers))
        for x in points
    ]
    np.testing.assert_allclose(got, exact, rtol=4 * 2.0**-53, atol=0)


def test_gaussian_taylor_apply_edge_cases_are_kernel_apply(kernel_paths):
    # Each of these would take the Taylor transform, which falls back to
    # the assembly: bitwise the plain product.
    spec = KernelSpec("gaussian", 1.0, 1)
    rng = np.random.default_rng(43)
    centers = rng.uniform(0.0, 1.0, size=(64, 1))
    coeffs = rng.standard_normal((64, 2))
    # A NaN point makes the box NaN: NaN in that row alone.
    points = rng.uniform(0.0, 1.0, size=(5, 1))
    points[3, 0] = np.nan
    got = kernel_apply(spec, points, centers, coeffs)
    np.testing.assert_array_equal(got, cross_gram(spec, points, centers) @ coeffs)
    assert np.isnan(got[3]).all() and np.isfinite(np.delete(got, 3, axis=0)).all()
    # No points, no centers, and a box of zero width.
    assert kernel_apply(spec, np.zeros((0, 1)), centers, coeffs).shape == (0, 2)
    np.testing.assert_array_equal(
        kernel_apply(spec, points[:3], np.zeros((0, 1)), np.zeros((0, 2))), np.zeros((3, 2))
    )
    same = np.full((64, 1), 0.3)
    np.testing.assert_array_equal(
        kernel_apply(spec, same[:4], same, coeffs), cross_gram(spec, same[:4], same) @ coeffs
    )
    # h = 1e-100 on [0, 1e60]: c W^2 overflows, and the count is compared
    # with m before math.ceil could meet the infinity. Each point that is
    # a center gets its own coefficient; every other kernel value is 0.
    tiny = KernelSpec("gaussian", 1e-100, 1)
    wide = rng.uniform(0.0, 1e60, size=(64, 1))
    wide[:2, 0] = 0.0, 1e60
    with np.errstate(over="ignore"):
        got = kernel_apply(tiny, wide[:5], wide, coeffs)
        np.testing.assert_array_equal(got, cross_gram(tiny, wide[:5], wide) @ coeffs)
    np.testing.assert_array_equal(got, coeffs[:5])
    assert kernel_paths == ["assembly"] * 5


def test_gram_empty_raises():
    with pytest.raises(ValueError):
        gram(KernelSpec("gaussian", 1.0, 1), np.zeros((0, 1)))


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("epanechnikov", 1.0, 1)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0, 1)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 1.0, 0)
    # h*h and the profile's scale, 1/2h^2 or 1/h for laplace, must be
    # positive finite floats.
    for family, h in (
        ("gaussian", 1e-160), ("rational_quadratic", 1e-160), ("laplace", 1e-170), ("gaussian", 1e160)
    ):
        with pytest.raises(ValueError, match="'bandwidth'"):
            KernelSpec(family, h, 1)
    assert KernelSpec("laplace", 1e-160, 1).bandwidth == 1e-160
    assert KernelSpec("GAUSSIAN", 1.0, 1).family == "gaussian"
    # constant ignores bandwidth entirely
    assert KernelSpec("constant", -1.0, 1).family == "constant"


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=12),
    st.sampled_from(FAMILIES),
)
def test_gram_psd_property(coords, family):
    pts = np.asarray(coords).reshape(-1, 1)
    K = gram(KernelSpec(family, 0.6, 1), pts)
    assert float(np.linalg.eigvalsh(K)[0]) >= -1e-8 * len(coords)


@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
    st.sampled_from(FAMILIES),
)
def test_symmetry_in_arguments(x, y, family):
    spec = KernelSpec(family, 0.8, 1)
    assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def _subtracted_sq_dists(a, b):
    """Reference: sum_k (a_ik - b_jk)^2 by broadcast subtraction, coordinates in order."""
    sq = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        sq += np.subtract.outer(a[:, k], b[:, k]) ** 2
    return sq


@st.composite
def _point_sets(draw):
    """Two point sets of one dimension 1-3, 0-8 rows each, sharing some rows."""
    dim = draw(st.integers(1, 3))
    coords = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
    a = draw(arrays(np.float64, (draw(st.integers(0, 8)), dim), elements=coords))
    b = draw(arrays(np.float64, (draw(st.integers(0, 8)), dim), elements=coords))
    shared = draw(st.integers(0, min(len(a), len(b))))
    b[:shared] = a[:shared]
    offset = draw(st.sampled_from([0.0, 1e8, -1e8]))
    return a + offset, b + offset


@given(_point_sets())
@example((np.array([[1e8 + 0.3], [1e8]]), np.array([[1e8 + 0.3], [1e8 - 0.7]])))
@example((np.zeros((0, 2)), np.ones((3, 2))))
@example((np.ones((3, 3)), np.zeros((0, 3))))
def test_sq_dists_is_bitwise_the_subtraction(points):
    # Each coordinate's differences come from one BLAS product whose two
    # terms per entry are exact, so they must equal the subtraction bit
    # for bit: coincident points exactly 0 apart, even 1e8 from the
    # origin, where |a|^2 + |b|^2 - 2ab loses every digit of the distance.
    a, b = points
    got = _sq_dists(a, b)
    assert got.shape == (len(a), len(b))
    assert np.array_equal(got, _subtracted_sq_dists(a, b))
