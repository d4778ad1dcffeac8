"""Kernel function families, pointwise evaluation, and Gram matrix assembly.

Four continuous, uniformly bounded families are provided: Gaussian,
Laplace, rational quadratic, and constant. All of them satisfy
k(x, x) = 1 and 0 < k(x, y) <= 1, so Gram matrices are positive
semidefinite with unit diagonal and the constant family attains the
uniform lower bound k_min = 1.

Kernel matrices are assembled from direct coordinate differences
sum_k (a_k - b_k)^2, not from the expansion |a|^2 + |b|^2 - 2 a.b.
Each coordinate's differences are one rank-2 BLAS product
[a_k, 1] @ [1; -b_k]: both products in an entry are exact, so a_ik - b_jk
is rounded once, exactly as by the subtraction itself. Squared distances
are therefore exactly symmetric, exactly 0 for coincident points and
never negative: no symmetrizing or clamping pass is needed.

gram and cross_gram return whole matrices, for callers that keep or
reuse them. gram(..., upper=True) assembles only the diagonal and the
upper triangle of a Gram, with zeros below, for a caller that reads no
more than that (linalg's solves and products): its row blocks start at
the diagonal, so about half the kernel values are never computed, and
nothing is mirrored. Both also take a stack (B, n, d) of B point sets
in place of their last point set and handle the B sets at once, with
the same differences: gram then returns B Gram matrices (B, n, n).

kernel_apply is the one entry point for a product k(a, b) @ coeffs,
b a point set or a stack of them, and it picks the arithmetic from its
inputs alone. For a 1-d Gaussian kernel it takes the factored axis
transform when a is np.linspace(a[0], a[-1], S), every point of b lies
in [a[0], a[-1]] and coeffs has one column; otherwise, for a single
point set b, the Taylor transform, in blocks of columns. Every other
product, and each transform where it would gain nothing, is assembled
in row blocks of about APPLY_BLOCK_ENTRIES kernel values, so the whole
k(a, b) is never held. On every path the values are those of the plain
product within 1e-13 * sum |coeffs|. kernel_apply's Taylor transform
is a TaylorTransform on the hull of its inputs; a caller that multiplies
by one point set many times holds its own (taylor_transform), on an
interval that covers every point set it will meet, and forms each
point set's tables once: the data side of a ridge system then forms
K V from X's two tables with no n x n Gram. A stack of B point sets has
one point table over all its points and one center table with a
segment per set and anchor, so the data sides of B ridge systems form
every K_b V_b in one product; a replication run alone is a stack of
one.

The axis transform is a factored Gauss transform (cf. Greengard and
Strain 1991, "The fast Gauss transform") for exp(-c (p - x)^2) with
c = 1/2h^2. Point i = q F + r of the axis is an anchor u_q = axis[q F]
(Q of them) plus an offset v_r = r * step (F of them), and with m the
axis midpoint
    exp(-c (u_q + v_r - x)^2)
        = exp(-c (u_q - x)^2) * exp(2 c v_r (x - m))
          * exp(-2 c v_r (u_q - m) - c v_r^2).
The first factor is a kernel row at an anchor, from cross_gram, so
every anchor-to-center difference is still one of _sq_dists'; the
second is a center's offset factor; the third depends on the axis
alone. So sum_j a_j k(p_i, x_j) is ((rows * a) @ offsets')[q, r] times
the third factor: (Q + F) n exponentials in place of S n, 46 n on the
512-point sup-norm axis. F is the smaller of ceil(sqrt(S)) and
floor(0.5 / (c step W)), W the axis width: it depends on the kernel
and the axis alone, and it keeps every offset factor within
[e^-0.5, e^0.5], so a product of factors never overflows or underflows
where the kernel value does not; a center outside the axis would break
that bound. F = 1 (a narrow kernel or a wide axis: h = 0.25 on [-3, 3],
or h below 0.063 on [0, 1]) is the assembly. The values are those at
u_q + v_r, within an ulp of the axis' own points, so they are off by
about 1e-15 of the largest value on [0, 1], 2e-13 of it on
[1000, 1001].

The Taylor transform is the Taylor form of the fast Gauss transform
(cf. Yang, Duraiswami, Gumerov and Davis 2003, "Improved fast Gauss
transform"), fixed on an interval [low, high] of width W and midpoint
mid that holds its points and centers: kernel_apply's is the hull of
its inputs, a caller's may be wider. Q anchors u_q = low + (q + 1/2) W / Q
take each center y to its nearest one, v = y - u_q with |v| <= W / 2Q,
and
    exp(-c (x - y)^2)
        = exp(-c (x - u_q)^2) * exp(2 c (x - mid) v)
          * exp(2 c (mid - u_q) v - c v^2).
The first factor is a kernel row at an anchor, from cross_gram; the
third is the center's own factor. The middle one is replaced by its
Taylor series, sum over p < P of t^p / p! in t = 2 c (x - mid) v, each
term split as s^p times (c W v)^p / p! with s = (x - mid) / (W / 2) in
[-1, 1]. So a point set has two tables on the interval, each formed
once whatever it is multiplied by: as points, its point table holds Q
anchor kernel values and P monomials s^p per point (Q exponentials);
as centers, its center table holds the centers sorted by anchor, with
P powers (c W v)^p / p! times the third factor per center (one
exponential). A product k(x, y) @ coeffs reads x's point table and
y's center table in two steps: each anchor's P moments per column are
a sum over its own segment of the sorted centers, P multiply-adds per
center and column, and each point then takes Q P multiply-adds per
column against its rows and monomials. A caller that multiplies the
same coefficients at many point sets holds their moments.

The rule has no free parameter. Q = ceil(c W^2 / (2 rho)) keeps
|t| <= c W^2 / 2Q <= rho, with rho = 1/2, the axis transform's bound
on its offset exponents; the third factor's exponent then lies in
[-3/4, 1/2], so no factor overflows or underflows where the kernel
value does not. P is the least count with rho^P / P! * e^rho <= 2^-53,
the unit roundoff: 15. By Lagrange's form of the remainder each
truncated term is off by at most k(x, y) |t|^P / P! * e^|t|
<= 2^-53 k(x, y), so a sum is off by at most
2^-53 sum_j |coeffs_j| k(x, y_j) before its own roundoff, for points
and centers anywhere on the interval (measured at most 2e-16 of
sum |coeffs| over h from 0.01 to 1 on [0, 1], [-3, 3] and
[1000, 1001]). Q = 8 for h = 0.25 on [0, 1]: 8 exponentials per point
in place of m = 256. Where Q P >= m the Taylor sums would take at least
as many multiply-adds per point as the assembly has kernel values, and
the assembly runs: a narrow kernel or a wide interval (h below 0.17 on
[0, 1] at m = 256). So does an interval that is not finite and of
positive width (a NaN or infinity among the points, say).

ConfigError lives here, the lowest module the config models share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

FAMILIES = ("gaussian", "laplace", "rational_quadratic", "constant")
# Families whose kernel is the product over coordinates of the same
# family's 1-d kernel: exp(-sum_k (x_k - y_k)^2 / 2h^2) = prod_k exp(...),
# and 1 = prod_k 1. Laplace and rational quadratic are not.
PRODUCT_FAMILIES = ("gaussian", "constant")
# Kernel values per row block of kernel_apply: 256 KiB, so a block and
# its squared distances stay in cache.
APPLY_BLOCK_ENTRIES = 2**15


class ConfigError(ValueError):
    """A config value that failed its check, carrying the field's path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with its parameters.

    Attributes:
        family: One of "gaussian", "laplace", "rational_quadratic",
            "constant" (case-insensitive on input).
        bandwidth: Length scale h. Must be positive; ignored by the
            constant family.
        dim: Dimension d of the input space.
    """

    family: str
    bandwidth: float = 1.0
    dim: int = 1

    def __post_init__(self) -> None:
        family = str(self.family).lower()
        if family not in FAMILIES:
            raise ConfigError(
                "family", f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 1:
            raise ConfigError("dim", "must be a positive integer")
        if family != "constant":
            h = self.bandwidth
            if not h > 0.0:
                raise ConfigError("bandwidth", "must be positive")
            # _profile scales squared distances by 1/2h^2 (1/h for laplace):
            # h*h and that scale must be positive finite floats.
            if not 0.0 < h * h < math.inf:
                raise ConfigError("bandwidth", f"h*h overflows or underflows at h = {h!r}")
            scale = 1.0 / h if family == "laplace" else 0.5 / (h * h)
            if not scale < math.inf:
                raise ConfigError("bandwidth", f"the kernel's scale overflows at h = {h!r}")


def as_points(x: object, dim: int) -> NDArray[np.float64]:
    """Normalizes scalars, vectors, or stacked rows to an (n, dim) array.

    A scalar is accepted only for dim=1; a flat length-dim vector is a
    single point; a 2-d array must have dim columns.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim == 1:
        if dim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.shape[0] == dim:
            arr = arr.reshape(1, dim)
        else:
            raise ValueError(f"point of dimension {arr.shape[0]} passed to a dim={dim} kernel")
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"points must have {dim} coordinates, got shape {arr.shape}")
    return arr


def _points(x: object, dim: int) -> NDArray[np.float64]:
    """as_points, except that a 3-d array is taken as a stack (B, n, dim) of point sets."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        return as_points(arr, dim)
    if arr.shape[2] != dim:
        raise ValueError(f"points must have {dim} coordinates, got shape {arr.shape}")
    return arr


def _profile(spec: KernelSpec, sqdist: NDArray[np.float64]) -> NDArray[np.float64]:
    """Applies the radial profile to squared Euclidean distances in place.

    Overwrites and returns sqdist, so a Gram matrix needs one n x m
    array rather than one per step.
    """
    # Multiplying by a reciprocal is faster than dividing; it is exact
    # when 2h^2 (or h, for laplace) is a power of two, else 1 ulp at most.
    if spec.family == "gaussian":
        sqdist *= -0.5 / spec.bandwidth**2
        return np.exp(sqdist, out=sqdist)
    if spec.family == "laplace":
        np.sqrt(sqdist, out=sqdist)
        sqdist *= -1.0 / spec.bandwidth
        return np.exp(sqdist, out=sqdist)
    if spec.family == "rational_quadratic":
        sqdist *= 0.5 / spec.bandwidth**2
        sqdist += 1.0
        return np.divide(1.0, sqdist, out=sqdist)
    sqdist.fill(1.0)
    return sqdist


def _sq_dists(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Squared distances sum_k (a_ik - b_jk)^2 from direct coordinate differences.

    a is (n, d) and b (m, d), or either a stack of point sets: the
    stacks broadcast, so a (n, d) against b (B, m, d) gives (B, n, m).
    Each coordinate's differences are one BLAS product [a_k, 1] @ [1; -b_k]
    per member of a stack. Its entry a_ik * 1 + 1 * (-b_jk) has two exact
    products, so the only rounding is that of a_ik - b_jk, whatever the
    summation order or FMA use: the result is bitwise that of the plain
    subtraction, exactly symmetric when a is b, and exactly 0 for
    coincident points.
    """
    return _sq_dists_to(a, _right_operands(b))


def _right_operands(b: NDArray[np.float64]) -> NDArray[np.float64]:
    """The right factors [1; -b_k] of _sq_dists' products, one per coordinate k.

    For b (m, d), or a stack (B, m, d), one (d, 2, m) or (d, B, 2, m)
    array: a caller that measures several blocks of points against b
    builds it once.
    """
    right = np.ones((b.shape[-1],) + b.shape[:-2] + (2, b.shape[-2]))
    np.negative(np.moveaxis(b, -1, 0), out=right[..., 1, :])
    return right


def _sq_dists_to(a: NDArray[np.float64], right: NDArray[np.float64]) -> NDArray[np.float64]:
    """_sq_dists(a, b) from b's right factors, right = _right_operands(b)."""
    left = np.ones(a.shape[:-1] + (2,))
    sq = None
    for k in range(a.shape[-1]):
        left[..., 0] = a[..., k]
        diff = left @ right[k]
        diff *= diff
        if sq is None:
            sq = diff
        else:
            sq += diff
    return sq


def kernel_eval(spec: KernelSpec, x: object, y: object) -> float:
    """Evaluates k(x, y) for a single pair of points."""
    xa = as_points(x, spec.dim)
    ya = as_points(y, spec.dim)
    if xa.shape[0] != 1 or ya.shape[0] != 1:
        raise ValueError("kernel_eval takes single points; use cross_gram for batches")
    return float(_profile(spec, _sq_dists(xa, ya))[0, 0])


def cross_gram(spec: KernelSpec, a: object, b: object) -> NDArray[np.float64]:
    """Returns the n x m matrix of k(a_i, b_j); (B, n, m) for a stack b (B, m, d)."""
    aa = as_points(a, spec.dim)
    bb = _points(b, spec.dim)
    return _profile(spec, _sq_dists(aa, bb))


def kernel_apply(spec: KernelSpec, a: object, b: object, coeffs: object) -> NDArray[np.float64]:
    """Returns k(a, b) @ coeffs for coeffs of shape (m,) or (m, k).

    For a stack b (B, m, d) of point sets coeffs is (B, m, k), and the
    result (B, n, k) holds k(a, b_j) @ coeffs_j for each member j. The
    arithmetic, a Gauss transform or the row-blocked assembly, follows
    from the inputs by the rule in the module docstring.
    """
    aa = as_points(a, spec.dim)
    bb = _points(b, spec.dim)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if spec.family != "gaussian" or spec.dim != 1:
        return _assembled_apply(spec, aa, bb, coeffs)
    columns = coeffs.shape[bb.ndim - 1 :]
    if columns in ((), (1,)) and _spans(aa[:, 0], bb):
        values = _gaussian_axis_apply(spec, aa[:, 0], bb, coeffs.reshape(bb.shape[:-1]))
        return values.reshape(values.shape + columns)
    if bb.ndim == 2:
        return _gaussian_taylor_apply(spec, aa, bb, coeffs)
    return _assembled_apply(spec, aa, bb, coeffs)


def _spans(axis: NDArray[np.float64], points: NDArray[np.float64]) -> bool:
    """Whether axis is np.linspace of its ends and every point lies in [axis[0], axis[-1]]."""
    if axis.size == 0 or not np.array_equal(axis, np.linspace(axis[0], axis[-1], axis.size)):
        return False
    return bool(np.all((points >= axis[0]) & (points <= axis[-1])))


def _assembled_apply(
    spec: KernelSpec, a: NDArray[np.float64], b: NDArray[np.float64], coeffs: NDArray[np.float64]
) -> NDArray[np.float64]:
    """kernel_apply by assembly: rows of k(a, b), APPLY_BLOCK_ENTRIES // (B m) at a time.

    Each block is multiplied at once, so the whole cross-Gram is never
    held; one block covers every row when n * B * m is at most
    APPLY_BLOCK_ENTRIES. The operand [1; -b_k] of b's differences is
    built once per call and serves every block.
    """
    n = a.shape[0]
    rows = max(1, APPLY_BLOCK_ENTRIES // max(1, b.size // spec.dim))
    right = _right_operands(b)
    if n <= rows:
        return _profile(spec, _sq_dists_to(a, right)) @ coeffs
    blocks = [
        _profile(spec, _sq_dists_to(a[start : start + rows], right)) @ coeffs
        for start in range(0, n, rows)
    ]
    # The rows of k(a, b) are axis 0, or axis 1 for a stack b.
    return np.concatenate(blocks, axis=b.ndim - 2)


def _gaussian_axis_apply(
    spec: KernelSpec, axis: NDArray[np.float64], centers: NDArray[np.float64],
    coeffs: NDArray[np.float64],
) -> NDArray[np.float64]:
    """k(axis, centers) @ coeffs by the factored axis transform of the module docstring.

    axis (S,) is np.linspace(axis[0], axis[-1], S) with every center in
    [axis[0], axis[-1]]. centers (n, 1) with coeffs (n,) give S values;
    a stack (B, n, 1) with coeffs (B, n) gives (B, S), one row per set.
    """
    size = axis.shape[0]
    low, high = float(axis[0]), float(axis[-1])
    width = high - low
    step = width / max(size - 1, 1)
    c = 0.5 / spec.bandwidth**2
    per_anchor = math.isqrt(size - 1) + 1  # ceil(sqrt(size))
    if c * step * width * per_anchor > 0.5:
        per_anchor = math.floor(0.5 / (c * step * width))
    if per_anchor < 2:
        return _assembled_apply(spec, axis[:, None], centers, coeffs[..., None])[..., 0]
    anchors = axis[::per_anchor]
    mid = 0.5 * (low + high)
    offsets = step * np.arange(per_anchor)
    # (B, Q, n) anchor rows weighted by coeffs, times (B, n, F) offset factors.
    rows = cross_gram(spec, anchors, centers)
    rows *= coeffs[..., None, :]
    shift = np.multiply.outer(centers[..., 0] - mid, 2.0 * c * offsets)
    values = rows @ np.exp(shift, out=shift)
    scale = np.multiply.outer(anchors - mid, -2.0 * c * offsets)
    scale -= c * offsets**2
    values *= np.exp(scale, out=scale)
    return values.reshape(coeffs.shape[:-1] + (-1,))[..., :size]


def _taylor_terms(rho: float) -> int:
    """The least P with rho^P / P! * e^rho <= 2^-53, the unit roundoff."""
    terms = 1
    while rho**terms / math.factorial(terms) * math.exp(rho) > 2.0**-53:
        terms += 1
    return terms


# The Taylor transform's bound rho on its argument |2c (x - mid) v| and
# its number of Taylor terms, 15 at rho = 1/2 (module docstring).
_TAYLOR_RHO = 0.5
_TAYLOR_TERMS = _taylor_terms(_TAYLOR_RHO)
# 1 / p! for p < _TAYLOR_TERMS, as a column against (P, m) rows.
_INVERSE_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_TERMS)])[:, None]


def _power_rows(base: NDArray[np.float64]) -> NDArray[np.float64]:
    """(_TAYLOR_TERMS, len(base)) rows base^p, one multiply per contiguous row.

    Several times faster than np.cumprod along axis 0 at a few hundred
    points or more.
    """
    rows = np.empty((_TAYLOR_TERMS, base.shape[0]))
    rows[0] = 1.0
    for p in range(1, _TAYLOR_TERMS):
        np.multiply(rows[p - 1], base, out=rows[p])
    return rows


def taylor_transform(
    spec: KernelSpec, low: float, high: float, centers: NDArray[np.float64]
) -> TaylorTransform | None:
    """The Taylor transform of spec on [low, high] for products with centers (m,) or (B, m).

    The one constructor, with the rule of the module docstring: None
    unless spec is a 1-d Gaussian kernel, [low, high] is a finite
    interval of positive width, the transform's sums pay against m
    centers per set (TaylorTransform.pays: 15 Q < m) and every center
    lies on the interval; elsewhere such a product is assembled.
    """
    if spec.family != "gaussian" or spec.dim != 1:
        return None
    width = high - low
    if not 0.0 < width < math.inf:
        return None
    m = centers.shape[-1]
    quotient = 0.5 / spec.bandwidth**2 * width * width / (2.0 * _TAYLOR_RHO)
    # Compared with m as a float first: c W^2 may overflow, and math.ceil
    # takes no infinity. A count of m is refused by pays below.
    count = max(1, math.ceil(quotient)) if quotient < m else m
    transform = TaylorTransform(spec, low, high, count)
    return transform if transform.pays(m) and transform.covers(centers) else None


class TaylorTransform:
    """The Taylor transform of a 1-d Gaussian kernel fixed on one interval (module docstring).

    Made by taylor_transform. A point set on the interval, or a stack of
    B of them, has a point table (point_table) and a center table
    (center_table), each formed once, and apply forms k(points, centers)
    @ coeffs from any point table and center table of the same
    transform, in two steps: the centers' moments per anchor (moments),
    which a caller may hold for coefficients it multiplies many times,
    and their evaluation at the points.
    """

    def __init__(self, spec: KernelSpec, low: float, high: float, count: int):
        self.spec = spec
        self.low, self.high, self.count = low, high, count
        self._c = 0.5 / spec.bandwidth**2
        self._width = high - low
        self._half = 0.5 * self._width
        self._mid = low + self._half
        self._spacing = self._width / count
        self._anchors = low + self._spacing * (np.arange(count) + 0.5)

    def covers(self, x: NDArray[np.float64]) -> bool:
        """Whether every point of x, x.size > 0, lies on the interval; False for a NaN."""
        return bool(self.low <= x.min()) and bool(x.max() <= self.high)

    def pays(self, m: int) -> bool:
        """Whether the Taylor sums pay against sets of m centers: 15 Q < m."""
        return self.count * _TAYLOR_TERMS < m

    def point_table(self, x: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray]:
        """The point table of x (n,), or of a stack (B, n), on the interval.

        Its (Q,) + x.shape anchor rows and (P,) + x.shape monomials s^p.
        """
        flat = x.reshape(-1)
        rows = cross_gram(self.spec, self._anchors, flat)
        monomials = _power_rows((flat - self._mid) / self._half)
        return rows.reshape((self.count,) + x.shape), monomials.reshape((_TAYLOR_TERMS,) + x.shape)

    def center_table(self, y: NDArray[np.float64]) -> tuple[NDArray[np.intp], list[int], NDArray]:
        """The center table of y (m,), or of a stack (B, m), on the interval.

        The centers of each set sorted by nearest anchor, the sets one
        after another: the flat indices into y that sort them, shaped as
        y; the B Q segments (set b, anchor q) of the sorted centers as
        B Q + 1 bounds; and per sorted center i its (c W v_i)^p / p!
        times its third factor, as (P, B m) rows.
        """
        # Each center's nearest anchor, so |v| <= spacing / 2.
        bins = np.minimum(((y - self.low) / self._spacing).astype(np.intp), self.count - 1)
        keys = bins if y.ndim == 1 else bins + self.count * np.arange(y.shape[0])[:, None]
        keys = keys.reshape(-1)
        segments = self.count * (y.size // y.shape[-1])
        # The smallest unsigned type of the keys, which NumPy's stable sort radix-sorts.
        order = np.argsort(keys.astype(np.min_scalar_type(segments - 1)), kind="stable")
        bounds = [0] + np.cumsum(np.bincount(keys, minlength=segments)).tolist()
        nearest = self._anchors[bins.reshape(-1)[order]]
        v = y.reshape(-1)[order] - nearest
        c = self._c
        powers = _power_rows((c * self._width) * v)
        powers *= _INVERSE_FACTORIALS
        powers *= np.exp(c * v * (2.0 * (self._mid - nearest) - v))
        return order.reshape(y.shape), bounds, powers

    def tables(self, x: NDArray[np.float64]) -> tuple[tuple, tuple]:
        """x's point table and center table, for the products k(x_b, x_b) @ V_b of the sets of x.

        x is one point set (n,) or a stack (B, n).
        """
        return self.point_table(x), self.center_table(x)

    def moments(self, centers: tuple, coeffs: NDArray[np.float64]) -> NDArray[np.float64]:
        """The (B, Q, P, k) moments of coeffs on a center table of B sets of m centers.

        coeffs is (m,) or (m, k) for one set, (B, m) or (B, m, k) for a
        stack. moments[b, q, p, j] is column j's sum of powers[p, i] *
        coeffs[i, j] over the centers i of set b nearest anchor q: one
        product of each segment of the sorted powers with the sorted
        coefficients. Columns go in blocks of
        APPLY_BLOCK_ENTRIES // max(B m, Q P), at least one, so that a
        block's sorted coefficients hold at most APPLY_BLOCK_ENTRIES
        values, as a row block of the assembly does.
        """
        order, bounds, powers = centers
        flat = coeffs.reshape(order.size, -1)
        count, columns = len(bounds) - 1, flat.shape[1]
        out = np.empty((count, _TAYLOR_TERMS, columns))
        segments = list(zip(bounds[:-1], bounds[1:]))
        step = max(1, APPLY_BLOCK_ENTRIES // max(order.size, self.count * _TAYLOR_TERMS))
        for start in range(0, columns, step):
            block = flat[order.reshape(-1), start : start + step]
            part = out[..., start : start + step]
            # An assignment from @ takes less call time than matmul's out=.
            for s, (lo, hi) in enumerate(segments):
                part[s] = powers[:, lo:hi] @ block[lo:hi]
        return out.reshape(count // self.count, self.count, _TAYLOR_TERMS, columns)

    def apply(
        self, points: tuple, centers: tuple, coeffs: NDArray[np.float64],
        moments: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """k(x, y) @ coeffs from x's point table and y's center table.

        For one center set y (m,) with coeffs (m,) or (m, k), every point
        of x, one set (n,) or a stack (B, n), takes the sum over y: the
        result has x's shape, then k. For a stack of center sets y (B, m)
        with coeffs (B, m) or (B, m, k), set b's sum is taken either at
        the points of x's set b, for a stack x (B, n), giving (B, n) or
        (B, n, k), or at every point of one set x (n,), giving (B, n) or
        (B, n, k) as kernel_apply does for a stack. moments, if given,
        are self.moments(centers, coeffs), held by a caller that
        multiplies the same coefficients many times; otherwise they are
        formed here.

        Each point takes the (Q, P) moments of its set against its
        monomials, giving its Q Taylor sums, and those against its Q
        anchor rows: one product and one contraction per block of columns
        and points, over all sets at once. Each column's arithmetic is
        the same in any block.
        """
        rows, monomials = points
        order = centers[0]
        shape, columns = rows.shape[1:], coeffs.shape[order.ndim :]
        if moments is None:
            moments = self.moments(centers, coeffs)
        if order.ndim == 1 or rows.ndim == 3:
            # One center set at every point, as one group; or set b at x's set b.
            if order.ndim == 1:
                rows = rows.reshape(self.count, -1)
                monomials = monomials.reshape(_TAYLOR_TERMS, -1)
            return self._evaluate(rows, monomials, moments).reshape(shape + columns)
        # Every set at the same points: the sets are columns of one set's moments.
        sets = moments.shape[0]
        merged = moments.transpose(1, 2, 0, 3).reshape((1, self.count, _TAYLOR_TERMS, -1))
        values = self._evaluate(rows, monomials, merged).reshape(shape + (sets, -1))
        return np.moveaxis(values, 1, 0).reshape((sets,) + shape + columns)

    def _evaluate(
        self, rows: NDArray[np.float64], monomials: NDArray[np.float64], moments: NDArray
    ) -> NDArray[np.float64]:
        """(G, n, k) sums of G groups of n points, group g against set g of moments (G, Q, P, k).

        In blocks of c columns and b points of every group, with c Q at
        most sqrt(APPLY_BLOCK_ENTRIES) (at least one column) and G c Q b
        at most APPLY_BLOCK_ENTRIES (at least one point), so that a
        block's Taylor sums hold no more values than a row block of the
        assembly, and its product with the monomials has both sides of
        some size: 18 columns at 227 points for the nodes' 2 + r columns.
        """
        sets, count, terms, columns = moments.shape
        n = rows.shape[-1]
        # Per group its (P, n) monomials and (Q, n) rows, views of the tables.
        monomials = monomials.reshape(terms, sets, n).transpose(1, 0, 2)
        rows = rows.reshape(count, sets, n).transpose(1, 0, 2)
        by_column = moments.transpose(0, 3, 1, 2).reshape(sets, columns * count, terms)
        out = np.empty((sets, n, columns))
        width = min(columns, max(1, math.isqrt(APPLY_BLOCK_ENTRIES) // count))
        height = max(1, APPLY_BLOCK_ENTRIES // (sets * width * count))
        for first in range(0, columns, width):
            part = by_column[:, first * count : (first + width) * count]
            for start in range(0, n, height):
                points = slice(start, start + height)
                sums = part @ monomials[..., points]
                sums = sums.reshape(sets, -1, count, sums.shape[-1])
                block = np.einsum("gjqi,gqi->gij", sums, rows[..., points])
                out[:, points, first : first + width] = block
                # Released before the next block is made, not after.
                del sums
        return out


def _gaussian_taylor_apply(
    spec: KernelSpec, points: NDArray[np.float64], centers: NDArray[np.float64],
    coeffs: NDArray[np.float64],
) -> NDArray[np.float64]:
    """k(points, centers) @ coeffs by the Taylor transform on the hull of points and centers.

    points (n, 1) and centers (m, 1) with coeffs (m,) or (m, k) give
    (n,) or (n, k). Where taylor_transform finds no transform, this is
    the assembly.
    """
    x, y = points[:, 0], centers[:, 0]
    transform = None
    if x.size and y.size:
        low = min(float(x.min()), float(y.min()))
        high = max(float(x.max()), float(y.max()))
        transform = taylor_transform(spec, low, high, y)
    if transform is None:
        return _assembled_apply(spec, points, centers, coeffs)
    return transform.apply(transform.point_table(x), transform.center_table(y), coeffs)


def gram(spec: KernelSpec, points: object, upper: bool = False) -> NDArray[np.float64]:
    """Assembles the Gram matrix of a point set, or one per set of a stack.

    The result is exactly symmetric and has exact unit diagonal (every
    family satisfies k(x, x) = 1), both by construction: the squared
    distances are exactly symmetric with an exactly zero diagonal.

    With upper=True only the diagonal and the upper triangle are
    assembled, and every entry below the diagonal is 0: bitwise
    np.triu of the full matrix, from about half its kernel values. Rows
    are assembled in blocks of about APPLY_BLOCK_ENTRIES kernel values,
    each block from its diagonal entry on. This is for a caller that
    reads only the upper triangle, as linalg's solves and products do.

    Args:
        spec: Kernel to evaluate.
        points: n points as an (n, d) array (flat input allowed for d=1),
            or a stack (B, n, d) of B point sets.
        upper: Assemble only the upper triangle, with zeros below it.

    Returns:
        Symmetric n x n array with entries k(points[i], points[j]), or
        the (B, n, n) stack of the sets' Gram matrices; with upper=True,
        its upper triangle.

    Raises:
        ValueError: On an empty point set or dimension mismatch.
    """
    pts = _points(points, spec.dim)
    n = pts.shape[-2]
    if n == 0:
        raise ValueError("gram requires at least one point")
    if not upper:
        return _profile(spec, _sq_dists(pts, pts))
    K = np.empty(pts.shape[:-1] + (n,))
    right = _right_operands(pts)
    rows = max(1, APPLY_BLOCK_ENTRIES // (pts.size // spec.dim))
    # The 0/1 mask of the diagonal and above: multiplying by 1 keeps a
    # value and by 0 clears it, in one pass over a block's diagonal square.
    on_or_above = np.triu(np.ones((min(rows, n),) * 2))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = _profile(spec, _sq_dists_to(pts[..., start:stop, :], right[..., start:]))
        square = block[..., : stop - start]
        square *= on_or_above[: stop - start, : stop - start]
        K[..., start:stop, start:] = block
        K[..., start:stop, :start] = 0.0
        # Released before the next block is made, not after.
        del block, square
    return K
