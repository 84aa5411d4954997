"""Periodized orthonormal wavelet bases on [0, 1].

Compactly supported father/mother pairs (Haar and the Daubechies family),
evaluated pointwise through precomputed dyadic cascade tables with linear
interpolation (Haar in closed form). Provides synthesis at arbitrary points
and its adjoint, analysis of a weighted point set, which gives both the
empirical coefficients and the quadrature analysis of known functions.

Conventions:
  - the low-pass filter ``h`` sums to sqrt(2) and has unit l2 norm, so the
    refinement equation reads phi(x) = sqrt(2) * sum_k h[k] phi(2x - k);
  - both generators are supported on [0, support_width];
  - periodization wraps translates around the circle, which for levels
    j >= tau reduces to evaluating the generator at (2^j x - k) mod 2^j.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def midpoint_grid(size: int) -> np.ndarray:
    """Midpoint quadrature nodes (i + 1/2)/size on [0, 1]."""
    return (np.arange(size) + 0.5) / size


@dataclass(frozen=True)
class WaveletFamily:
    """A compactly supported father/mother pair with its evaluation tables.

    ``regularity`` is the nominal smoothness cap (number of vanishing
    moments); it is documented, not numerically certified. ``psi_sup`` is a
    certified numerical upper bound on the sup norm of the mother wavelet
    (table maximum inflated by 1%, exact for Haar).
    """

    name: str
    lowpass: np.ndarray
    support_width: int
    tau: int
    regularity: int
    psi_sup: float
    cascade_depth: int
    phi_table: np.ndarray = field(repr=False)
    psi_table: np.ndarray = field(repr=False)

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


def _haar_tables(depth: int) -> tuple[np.ndarray, np.ndarray]:
    n_tab = (1 << depth) + 1
    x = np.arange(n_tab) / (1 << depth)
    phi = np.where(x < 1.0, 1.0, 0.0)
    psi = np.where(x < 0.5, 1.0, np.where(x < 1.0, -1.0, 0.0))
    return phi, psi


def build_family(name: str, cascade_depth: int = 12) -> WaveletFamily:
    """Construct a wavelet family with precomputed dyadic evaluation tables.

    ``name`` is "Haar" or "DaubechiesN" with an even tap count N in 2..10
    (Daubechies2 shares the Haar filter). ``cascade_depth`` sets the table
    resolution 2^-depth and must lie in [6, 20].
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
    tau = 0
    while (1 << tau) < support_width:
        tau += 1
    haar = support_width == 1
    if haar:
        phi_table, psi_table = _haar_tables(cascade_depth)
        psi_sup = 1.0
    else:
        phi_table, psi_table = _cascade_tables(h, cascade_depth)
        psi_sup = float(np.abs(psi_table).max()) * 1.01
    return WaveletFamily(
        name=name,
        lowpass=h,
        support_width=support_width,
        tau=tau,
        regularity=max(1, len(h) // 2),
        psi_sup=psi_sup,
        cascade_depth=cascade_depth,
        phi_table=phi_table,
        psi_table=psi_table,
    )


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------

def _base_eval(family: WaveletFamily, kind: str, z: np.ndarray) -> np.ndarray:
    """Evaluate the unscaled generator at z; zero outside [0, support_width]."""
    if family.is_haar:
        if kind == "scaling":
            return np.where((z >= 0.0) & (z < 1.0), 1.0, 0.0)
        return np.where(
            (z >= 0.0) & (z < 0.5), 1.0,
            np.where((z >= 0.5) & (z < 1.0), -1.0, 0.0),
        )
    table = family.phi_table if kind == "scaling" else family.psi_table
    out = np.zeros_like(z, dtype=float)
    ok = (z >= 0.0) & (z <= family.support_width)
    pos = z[ok] * (1 << family.cascade_depth)
    i0 = np.floor(pos).astype(np.int64)
    i0 = np.minimum(i0, len(table) - 2)
    frac = pos - i0
    out[ok] = table[i0] * (1.0 - frac) + table[i0 + 1] * frac
    return out


def eval_periodized(family: WaveletFamily, kind: str, j: int, k: int, x) -> np.ndarray | float:
    """Evaluate the periodized basis function phi/psi_{j,k} at x.

    The periodization sums integer translates, which for j >= tau collapses
    to a single wrap: the generator evaluated at (2^j x - k) mod 2^j. The
    value is 1-periodic in x, so arguments outside [0, 1] are meaningful.
    Scaling functions are exposed at the coarsest level j = tau only.
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
    z = np.mod((1 << j) * x_arr - k, 1 << j)
    vals = 2.0 ** (j / 2.0) * _base_eval(family, kind, z)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(vals)
    return vals


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

@dataclass
class WaveletExpansion:
    """Coefficient arrays of a periodized wavelet series.

    ``alpha`` holds the 2^tau scaling coefficients; ``beta[j - tau]`` holds
    the 2^j wavelet coefficients of level j, for tau <= j <= j_max. An empty
    ``beta`` (j_max = tau - 1) is a pure scaling expansion.
    """

    tau: int
    j_max: int
    alpha: np.ndarray
    beta: list[np.ndarray]

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = [np.asarray(row, dtype=float) for row in self.beta]
        if self.j_max < self.tau - 1:
            raise ValueError(f"j_max = {self.j_max} below tau - 1 = {self.tau - 1}")
        if len(self.alpha) != (1 << self.tau):
            raise ValueError(f"alpha must have 2^tau = {1 << self.tau} entries")
        if len(self.beta) != self.j_max - self.tau + 1:
            raise ValueError("beta must hold one row per level tau..j_max")
        for j, row in zip(self.levels(), self.beta):
            if len(row) != (1 << j):
                raise ValueError(f"level {j} row must have 2^{j} entries")
        if not np.isfinite(self.alpha).all() or any(
            not np.isfinite(row).all() for row in self.beta
        ):
            raise ValueError("expansion coefficients must be finite")

    def levels(self) -> range:
        return range(self.tau, self.j_max + 1)


def _stencil(family: WaveletFamily, kind: str, j: int, x: np.ndarray):
    """Yield (shift indices, generator values) of the translates meeting x.

    A point meets only support_width translates per level, so synthesis and
    its adjoint gather those shifts instead of looping over all 2^j of them.
    """
    two_j = 1 << j
    t = two_j * np.mod(x, 1.0)
    kb = np.floor(t).astype(np.int64)
    frac = t - kb
    for m in range(family.support_width):
        yield np.mod(kb - m, two_j), _base_eval(family, kind, frac + m)


def _level_synth(
    family: WaveletFamily, kind: str, j: int, coeffs: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Sum_k coeffs[k] * basis_{j,k}(x), vectorized over x."""
    out = np.zeros(np.shape(x))
    for idx, vals in _stencil(family, kind, j, x):
        out += coeffs[idx] * vals
        del idx, vals  # free this step's arrays before the stencil makes the next
    return 2.0 ** (j / 2.0) * out


def _level_sums(
    family: WaveletFamily, kind: str, j: int, x: np.ndarray, weights: np.ndarray | None
) -> np.ndarray:
    """Per-shift sums sum_i w_i * basis_{j,k}(x_i) for all k at level j."""
    two_j = 1 << j
    sums = np.zeros(two_j)
    for idx, vals in _stencil(family, kind, j, x):
        if weights is not None:
            vals = vals * weights
        sums += np.bincount(idx, weights=vals, minlength=two_j)
        del idx, vals  # free this step's arrays before the stencil makes the next
    return 2.0 ** (j / 2.0) * sums


def synthesize_at(
    family: WaveletFamily, expansion: WaveletExpansion, x: np.ndarray
) -> np.ndarray:
    """Evaluate the wavelet series at arbitrary (unsorted) points."""
    x = np.asarray(x, dtype=float)
    out = _level_synth(family, "scaling", expansion.tau, expansion.alpha, x)
    for j, row in zip(expansion.levels(), expansion.beta):
        out += _level_synth(family, "wavelet", j, row, x)
    return out


def analyze_points(
    family: WaveletFamily, x: np.ndarray, weights: np.ndarray | None,
    j_max: int, n: int = 1,
) -> WaveletExpansion:
    """Coefficients (1/n) sum_i w_i phi/psi_{j,k}(x_i) for levels tau..j_max.

    The adjoint of synthesis at the points x; ``weights`` None means all ones.
    """
    alpha = _level_sums(family, "scaling", family.tau, x, weights) / n
    beta = [
        _level_sums(family, "wavelet", j, x, weights) / n
        for j in range(family.tau, j_max + 1)
    ]
    return WaveletExpansion(family.tau, j_max, alpha, beta)


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
