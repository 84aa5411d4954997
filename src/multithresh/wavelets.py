"""Periodized orthonormal wavelet bases on [0, 1].

Compactly supported father/mother pairs: Haar in closed form, with no tables,
and the Daubechies family through dyadic cascade tables with linear
interpolation. Haar runs Mallat's pyramid both ways: synthesis builds the cells
of the finest level, and analysis with unit or 0/1 weights pairs histogram bins.
Otherwise one point stencil (``_stencil``) serves synthesis at points, its adjoint,
analysis of a weighted point set (the empirical coefficients and the quadrature
analysis of known functions) into one block ``[alpha | beta_tau | ... | beta_jmax]``,
and, at the first period of a midpoint grid of power-of-two size, the table of each
level with which Daubechies synthesis on that grid is one small matrix product per
row, built per call and within 1e-12 of the stencil. A basis function
(``eval_periodized``) is the synthesis of a unit coefficient.

Conventions:
  - the low-pass filter ``h`` sums to sqrt(2) and has unit l2 norm, so the
    refinement equation reads phi(x) = sqrt(2) * sum_k h[k] phi(2x - k);
  - both generators are supported on [0, support_width];
  - periodization wraps translates around the circle, which for levels
    j >= tau reduces to evaluating the generator at (2^j x - k) mod 2^j.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SQRT2 = float(np.sqrt(2.0))

# midpoint quadrature grid of risk integrals and analysis of known functions
DEFAULT_GRID_SIZE = 2 ** 14

MIN_CASCADE_DEPTH = 6
MAX_CASCADE_DEPTH = 20

# Low-pass filters, indexed by tap count. The Daubechies tables were polished
# onto the orthonormality constraints (filter sums to sqrt(2), even-shift
# autocorrelation is a delta) so the invariants hold to ~1e-16, not just to
# the precision of the published decimals.
_FILTERS: dict[str, tuple[float, ...]] = {
    "Haar": (0.7071067811865476, 0.7071067811865476),
    "Daubechies2": (0.7071067811865476, 0.7071067811865476),
    "Daubechies4": (
        0.4829629131447645, 0.8365163037377462,
        0.2241438680417831, -0.12940952255119867,
    ),
    "Daubechies6": (
        0.3326705529496114, 0.8068915093116029, 0.4598775021181114,
        -0.1350110200104642, -0.08544127388096687, 0.035226291885200434,
    ),
    "Daubechies8": (
        0.2303778133090199, 0.7148465705528643, 0.6308807679298707,
        -0.027983769417011327, -0.18703481171907688, 0.03084138183571734,
        0.03288301166673963, -0.010597401785028528,
    ),
    "Daubechies10": (
        0.16010239797401785, 0.6038292697970709, 0.7243085284380927,
        0.13842814590105365, -0.2422948870659335, -0.032244869584876844,
        0.07757149384013845, -0.006241490212973542, -0.01258075199892326,
        0.0033357252854286897,
    ),
}

SUPPORTED_FAMILIES = tuple(_FILTERS)


@functools.lru_cache(maxsize=8)
def midpoint_grid(size: int) -> np.ndarray:
    """Midpoint quadrature nodes (i + 1/2)/size on [0, 1], one shared read-only array per size."""
    grid = (np.arange(size) + 0.5) / size
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class WaveletFamily:
    """A compactly supported father/mother pair with its evaluation tables.

    ``regularity`` is the nominal smoothness cap (number of vanishing
    moments); it is documented, not numerically certified. ``psi_sup`` is a
    certified numerical upper bound on the sup norm of the mother wavelet
    (table maximum inflated by 1%, exact for Haar, whose cascade tables are
    None). Synthesis and analysis leave a family as it was built.
    """

    name: str
    lowpass: np.ndarray
    support_width: int
    tau: int
    regularity: int
    psi_sup: float
    cascade_depth: int
    phi_table: np.ndarray | None = field(repr=False)
    psi_table: np.ndarray | None = field(repr=False)

    @property
    def is_haar(self) -> bool:
        return self.support_width == 1


def _cascade_tables(h: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic tables of phi and psi on [0, W] with step 2^-depth."""
    L = len(h)
    W = L - 1
    # Values at the integers: eigenvector of M[i, m] = sqrt(2) h[2i - m]
    # for eigenvalue 1, normalized so that the integer samples sum to one
    # (partition of unity).
    M = np.zeros((W + 1, W + 1))
    for i in range(W + 1):
        lo = max(0, 2 * i - (L - 1))
        hi = min(W, 2 * i)
        for m in range(lo, hi + 1):
            M[i, m] = SQRT2 * h[2 * i - m]
    eigvals, eigvecs = np.linalg.eig(M)
    phi = np.real(eigvecs[:, np.argmin(np.abs(eigvals - 1.0))])
    phi = phi / phi.sum()
    for r in range(1, depth + 1):
        prev_len = W * (1 << (r - 1)) + 1
        cur_len = W * (1 << r) + 1
        cur = np.zeros(cur_len)
        cur[::2] = phi
        odd = np.arange(1, cur_len, 2)
        for k in range(L):
            src = odd - k * (1 << (r - 1))
            ok = (src >= 0) & (src < prev_len)
            cur[odd[ok]] += SQRT2 * h[k] * phi[src[ok]]
        phi = cur
    # psi(x) = sqrt(2) sum_k g[k] phi(2x - k) with g[k] = (-1)^k h[L-1-k],
    # which keeps psi supported on [0, W] as well.
    g = np.array([(-1.0) ** k * h[L - 1 - k] for k in range(L)])
    n_tab = W * (1 << depth) + 1
    psi = np.zeros(n_tab)
    idx = np.arange(n_tab)
    for k in range(L):
        src = 2 * idx - k * (1 << depth)
        ok = (src >= 0) & (src < n_tab)
        psi[idx[ok]] += SQRT2 * g[k] * phi[src[ok]]
    return phi, psi


def build_family(name: str, cascade_depth: int = 12) -> WaveletFamily:
    """Construct a wavelet family with precomputed dyadic evaluation tables.

    ``name`` is "Haar" or "DaubechiesN" with an even tap count N in 2..10
    (Daubechies2 shares the Haar filter). ``cascade_depth`` sets the table
    resolution 2^-depth and must lie in [6, 20]; Haar, evaluated in closed
    form, builds no tables and ignores it.
    """
    if name not in _FILTERS:
        raise ValueError(
            f"unsupported family {name!r}; expected one of {SUPPORTED_FAMILIES}"
        )
    if not MIN_CASCADE_DEPTH <= cascade_depth <= MAX_CASCADE_DEPTH:
        raise ValueError(
            f"cascade_depth {cascade_depth} out of range "
            f"[{MIN_CASCADE_DEPTH}, {MAX_CASCADE_DEPTH}]"
        )
    h = np.asarray(_FILTERS[name], dtype=float)
    support_width = len(h) - 1
    # Haar is evaluated in closed form: no tables, and sup |psi| is exactly 1
    phi_table, psi_table = _cascade_tables(h, cascade_depth) if support_width > 1 else (None, None)
    psi_sup = 1.0 if psi_table is None else float(np.abs(psi_table).max()) * 1.01
    return WaveletFamily(
        name=name,
        lowpass=h,
        support_width=support_width,
        tau=(support_width - 1).bit_length(),  # the least tau with 2^tau >= support_width
        regularity=max(1, len(h) // 2),
        psi_sup=psi_sup,
        cascade_depth=cascade_depth,
        phi_table=phi_table,
        psi_table=psi_table,
    )


def _lerp(family: WaveletFamily, kind: str, z: np.ndarray) -> np.ndarray:
    """Interpolate the generator's cascade table at z in [0, support_width]."""
    table = family.phi_table if kind == "scaling" else family.psi_table
    pos = z * (1 << family.cascade_depth)
    i0 = np.minimum(np.floor(pos).astype(np.int64), len(table) - 2)
    frac = pos - i0
    return table[i0] * (1.0 - frac) + table[i0 + 1] * frac


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

@dataclass
class WaveletExpansion:
    """Coefficients of a periodized wavelet series, or of a stack of them, in pyramid order.

    ``coeffs`` holds 2^(j_max + 1) coefficients in the flat layout of a discrete
    wavelet transform, ``[alpha | beta_tau | ... | beta_jmax]``: the 2^tau scaling
    coefficients, then level j in ``coeffs[..., 2^j:2^(j+1)]``. A block of 2^tau
    (j_max = tau - 1) is a pure scaling expansion; a stack puts one row axis first.
    ``alpha`` and the rows of ``beta`` are views into the block.
    """

    tau: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        size = self.coeffs.shape[-1] if self.coeffs.ndim else 0
        if self.coeffs.ndim > 2 or size & (size - 1) or size < 1 << self.tau:
            raise ValueError(f"the coefficient block needs a power of two of at least 2^tau = "
                             f"{1 << self.tau} entries, behind at most one row axis")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("expansion coefficients must be finite")

    @property
    def j_max(self) -> int:
        return self.coeffs.shape[-1].bit_length() - 2

    @property
    def alpha(self) -> np.ndarray:
        return self.coeffs[..., :1 << self.tau]

    @property
    def beta(self) -> list[np.ndarray]:
        return [self.coeffs[..., 1 << j:2 << j] for j in self.levels()]

    def levels(self) -> range:
        return range(self.tau, self.j_max + 1)


def _stencil(family: WaveletFamily, kind: str, j: int, y: np.ndarray, pos: np.ndarray,
             top: int):
    """Yield (shift indices, new generator values) of the support_width level-j translates at y.

    ``y`` is x mod 1 and ``pos`` = floor(2^top y), top >= j (top > j for the Haar
    wavelet). Scaling by 2^top is exact, so the shift base is
    pos >> (top - j), and the Haar wavelet's sign is bit top - j - 1 of pos.
    The indices are masked: np.mod rounds a tiny negative x to 1.0.
    """
    mask, base = (1 << j) - 1, pos >> (top - j)
    if family.is_haar:
        yield np.bitwise_and(base, mask, out=base), (
            1.0 - 2.0 * ((pos >> (top - j - 1)) & 1) if kind == "wavelet" else np.ones_like(y))
        return
    frac = y * (1 << j) - base
    for m in range(family.support_width):
        vals = _lerp(family, kind, frac + m)  # first: the other order costs page faults
        yield (base - m) & mask, vals


def _stencil_points(x: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``_stencil`` input (x mod 1, floor(2^top (x mod 1)), top) of finite points x."""
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    y = np.mod(x, 1.0)
    return y, np.floor(y * (1 << top)).astype(np.int64), top


def _dyadic_grid_size(x: np.ndarray) -> int | None:
    """N when x is midpoint_grid(N) for a power of two N >= 2, else None."""
    size = x.size
    if x.ndim != 1 or size < 2 or size & (size - 1) or x[0] != 0.5 / size:
        return None
    return size if np.array_equal(x, midpoint_grid(size)) else None


def _level_synth(family: WaveletFamily, kind: str, j: int, coeffs: np.ndarray,
                 points: tuple) -> np.ndarray:
    """Sum_k coeffs[..., k] * basis_{j,k}(x) for each row of coeffs, through the stencil at
    ``points`` = (x mod 1, pos, top)."""
    out = np.zeros(coeffs.shape[:-1] + points[0].shape)
    for idx, vals in _stencil(family, kind, j, *points):
        out += coeffs[..., idx] * vals
        del idx, vals  # free this step's arrays before the stencil makes the next
    out *= 2.0 ** (j / 2.0)
    return out


def _synthesize(family: WaveletFamily, levels, x: np.ndarray, top: int) -> np.ndarray:
    """Sum over ``levels``, (kind, j, coeffs) with j < top, of sum_k coeffs[..., k] basis_{j,k}(x).

    Returns a new ``rows + x.shape`` array; levels run coarsest first. A Haar sum lies in
    V_top, constant on its cells: one inverse pyramid (Mallat) builds them for all rows,
    kept or repeated on a midpoint grid of at least as many points and taken at each
    point's masked cell anywhere else. A Daubechies sum on a midpoint grid of N >= 2^j
    points for every level is, per level and row, one small product of the shifted
    coefficients with the level's generator table, within 1e-12 of the stencil; at any
    other points each level goes through the stencil, once for all rows.
    """
    if x.ndim == 0:
        return _synthesize(family, levels, x.reshape(1), top).reshape(levels[0][2].shape[:-1])
    size = _dyadic_grid_size(x)
    if family.is_haar:
        # one buffer of the finest cells; the partial sum after level j (levels run
        # consecutively) sits at stride width / 2^j, and each of its cells splits into left
        # + 2^(j/2) beta_j and right -: the stencil's terms per cell in its level order, the
        # first added to 0.0, so the same bits
        kind, j, coeffs = levels[-1]
        width = 1 << j if kind == "scaling" else 2 << j
        cells = np.zeros(coeffs.shape[:-1] + (width,))
        for kind, j, coeffs in levels:
            step = coeffs * 2.0 ** (j / 2.0)
            left = cells[..., ::width >> j]
            if kind == "wavelet":
                np.subtract(left, step, out=cells[..., width >> (j + 1)::width >> j])
            left += step
            del step  # freed before the next level's, twice its size
        if size is not None and size >= width:
            return cells if size == width else np.repeat(cells, size // width, axis=-1)
        pos = _stencil_points(x, width.bit_length() - 1)[1]
        pos &= width - 1  # in place: a second index array costs page faults on large x
        # np.take keeps a stack C-ordered, where cells[..., idx] would not
        return np.take(cells, pos, axis=-1)
    if size is not None and 1 << levels[-1][1] <= size:
        out = np.zeros(levels[0][2].shape[:-1] + (size,))
        w = family.support_width
        for kind, j, coeffs in levels:
            # point k P + p, P = size / 2^j, sits at (p + 1/2) / P + m in translate k - m: the
            # table T[m, p] is the stencil at the first period, and window k of ext reversed
            # holds coeffs[(k - m) mod 2^j]
            pos = np.arange(size >> j)
            table = np.array([vals for _, vals in _stencil(
                family, kind, j, (pos + 0.5) / size, pos, size.bit_length() - 1)])
            table *= 2.0 ** (j / 2.0)
            # row by row, so that the temporaries stay a row's size
            for row, c in zip(out.reshape(-1, size), coeffs.reshape(-1, 1 << j)):
                ext = np.concatenate((c[(1 << j) - w + 1:], c))
                row += (sliding_window_view(ext, w)[:, ::-1] @ table).reshape(size)
        return out
    points = _stencil_points(x, top)
    (kind, j, coeffs), *finer = levels
    out = _level_synth(family, kind, j, coeffs, points)
    for kind, j, coeffs in finer:
        out += _level_synth(family, kind, j, coeffs, points)
    return out


def synthesize_at(
    family: WaveletFamily, expansion: WaveletExpansion, x: np.ndarray
) -> np.ndarray:
    """Evaluate the wavelet series at arbitrary (unsorted) finite points.

    Returns a new ``rows + x.shape`` array, 0-d for a scalar x: one row per series of
    a stack, with that row's own arithmetic, whether it shares a pass with the others
    or goes alone (see ``_synthesize``, top = max(tau, j_max) + 1). Haar cells give the
    stencil's bits, and so does Daubechies synthesis anywhere but on a midpoint grid.
    """
    levels = [("scaling", expansion.tau, expansion.alpha),
              *(("wavelet", j, c) for j, c in zip(expansion.levels(), expansion.beta))]
    return _synthesize(family, levels, np.asarray(x, dtype=float),
                       max(expansion.tau, expansion.j_max) + 1)


def eval_periodized(family: WaveletFamily, kind: str, j: int, k: int, x) -> np.ndarray | float:
    """Evaluate the periodized basis function phi/psi_{j,k} at the finite points x.

    The synthesis of the unit coefficient e_k at level j, with the bits of
    ``synthesize_at`` on that expansion. The value is 1-periodic in x, so
    arguments outside [0, 1] are meaningful. Scaling functions are exposed at
    the coarsest level j = tau only.
    """
    if kind not in ("scaling", "wavelet"):
        raise ValueError(f"kind must be 'scaling' or 'wavelet', got {kind!r}")
    if kind == "scaling" and j != family.tau:
        raise ValueError(f"scaling functions are exposed at j = tau = {family.tau} only")
    if j < family.tau:
        raise ValueError(f"level {j} below coarsest level tau = {family.tau}")
    if not 0 <= k < (1 << j):
        raise ValueError(f"shift k = {k} out of range for level {j}")
    x_arr = np.asarray(x, dtype=float)
    unit = np.eye(1, 1 << j, k)[0]  # e_k
    vals = _synthesize(family, [(kind, j, unit)], x_arr, j + 1)
    return float(vals) if x_arr.ndim == 0 else vals


def analyze_points(
    family: WaveletFamily, x: np.ndarray, weights: np.ndarray | None,
    j_max: int, n: int = 1,
) -> WaveletExpansion:
    """Coefficients (1/n) sum_i w_i phi/psi_{j,k}(x_i) for levels tau..j_max.

    The adjoint of synthesis at the finite points of a 1-D x; ``weights`` None means
    all ones, else finite and of x's shape; n >= 1. Each point's position
    floor(2^(j_max + 1) (x mod 1)) is taken once. Haar with unit or 0/1 weights runs
    Mallat's pyramid on one histogram of them, beta = left - right of adjacent bins and
    left + right to the next coarser level: exact integers, so the stencil's bits. Else
    each level scatters through ``_stencil``, into its slice of one pyramid-ordered block.
    """
    if j_max < family.tau - 1:
        raise ValueError(f"j_max = {j_max} below tau - 1 = {family.tau - 1} for {family.name}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"points must be a 1-D array, got shape {x.shape}")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != x.shape:
            raise ValueError(f"weights must have the points' shape {x.shape}, got {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
    if not n >= 1:  # written positively so that NaN fails it too
        raise ValueError(f"n must be at least 1, got {n}")
    # decided before the stencil points, so its boolean temporaries do not add to their peak
    pyramid = family.is_haar and (weights is None or ((weights == 0.0) | (weights == 1.0)).all())
    y, pos, top = _stencil_points(x, j_max + 1)
    coeffs = np.zeros(1 << top)
    if pyramid:
        sums = np.bincount(pos & ((1 << top) - 1), weights, minlength=1 << top)
        for j in range(top - 1, family.tau - 1, -1):
            coeffs[1 << j:2 << j] = (sums[0::2] - sums[1::2]) * 2.0 ** (j / 2.0) / n
            sums = sums[0::2] + sums[1::2]
        coeffs[:1 << family.tau] = sums * 2.0 ** (family.tau / 2.0) / n
        return WaveletExpansion(family.tau, coeffs)
    for kind, j in [("scaling", family.tau), *(("wavelet", j) for j in range(family.tau, top))]:
        sums = coeffs[:1 << j] if kind == "scaling" else coeffs[1 << j:2 << j]
        # vals is new and scaled in place; freeing idx or vals early costs page faults
        for idx, vals in _stencil(family, kind, j, y, pos, top):
            if weights is not None:
                vals *= weights
            sums += np.bincount(idx, weights=vals, minlength=1 << j)
        sums *= 2.0 ** (j / 2.0)
        sums /= n
    return WaveletExpansion(family.tau, coeffs)


def analyze(
    family: WaveletFamily, f, j_max: int, grid_size: int = DEFAULT_GRID_SIZE
) -> WaveletExpansion:
    """Wavelet coefficients of a known function by midpoint quadrature.

    ``f`` is a callable on [0, 1] or an array of values on the midpoint grid
    of ``grid_size`` points. Exact for Haar whenever the grid resolves every
    level (grid_size a power of two > 2^j_max); for Daubechies families the
    accuracy is set by the quadrature step and the table interpolation.
    """
    if j_max >= np.log2(grid_size):
        raise ValueError("grid_size must resolve the finest level")
    grid = midpoint_grid(grid_size)
    values = np.asarray(f(grid), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    if values.shape != grid.shape:
        raise ValueError("values must match the midpoint grid")
    return analyze_points(family, grid, values / grid_size, j_max)
