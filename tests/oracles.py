"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from closed-form expressions or
brute-force quadrature, sharing no code with the package under test, so the
two routes can disagree.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# Same CODATA constants the package declares; the *formulas* are what differ.
MU_BOHR = 9.274_010_0783e-24
H_PLANCK = 6.626_070_15e-34


def breit_rabi_energies_hz(nuclear_spin: float, a_ground_mhz: float, g_j: float,
                           g_i: float, b_field_t: float) -> np.ndarray:
    """All 2(2I+1) ground-manifold eigenvalues (Hz), ascending, closed form.

    Valid for any J = 1/2 manifold: the m = m_I + m_J states with |m| < I+1/2
    come in F = I +/- 1/2 pairs solved by the quadratic secular equation; the
    stretched |m| = I + 1/2 states are exactly linear in B.
    """
    spin_i = nuclear_spin
    a_hz = a_ground_mhz * 1e6
    delta_w = a_hz * (spin_i + 0.5)  # hyperfine splitting
    mu_b = MU_BOHR * b_field_t / H_PLANCK  # Hz per unit g-factor
    x = (g_j - g_i) * mu_b / delta_w

    energies = []
    # stretched states: |m_I| = I, m_J = m_I sign
    for sign in (+1.0, -1.0):
        m = sign * (spin_i + 0.5)
        energies.append(a_hz * spin_i / 2.0 + sign * (0.5 * g_j + spin_i * g_i) * mu_b)
    # paired states
    m_values = np.arange(-spin_i + 0.5, spin_i - 0.5 + 1e-9)
    for m in m_values:
        base = -a_hz / 4.0 + g_i * mu_b * m
        root = 0.5 * delta_w * math.sqrt(1.0 + 4.0 * m * x / (2.0 * spin_i + 1.0) + x * x)
        energies.append(base + root)
        energies.append(base - root)
    return np.sort(np.array(energies))


# ---------------------------------------------------------------------------
# Faddeeva function by panel Gauss-Legendre quadrature of the defining integral
#   w(z) = (i/pi) * Integral exp(-t^2) / (z - t) dt   for Im z > 0.
# Dyadic panels scaled to Im z resolve the near-pole region; a uniform panel
# set carries the Gaussian bulk. Two node counts give an error estimate.
# ---------------------------------------------------------------------------

_T_MAX = 13.0  # exp(-169) ~ 4e-74: truncation negligible


def _panel_breakpoints(z: np.ndarray) -> np.ndarray:
    """(n_z, n_breaks) sorted panel edges covering [-T_MAX, T_MAX]."""
    x = z.real[:, None]
    y = z.imag[:, None]
    dyadic = np.concatenate([-(2.0 ** np.arange(8, -4, -1)), [0.0], 2.0 ** np.arange(-3, 9)])
    local = np.clip(x + y * dyadic[None, :], -_T_MAX, _T_MAX)
    uniform = np.broadcast_to(np.linspace(-_T_MAX, _T_MAX, 27), (z.size, 27))
    return np.sort(np.concatenate([local, uniform], axis=1), axis=1)


def _gl_eval(z: np.ndarray, breaks: np.ndarray, order: int) -> np.ndarray:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a = breaks[:, :-1]
    half = 0.5 * (breaks[:, 1:] - a)
    mid = a + half
    # t has shape (n_z, n_panels, order)
    t = mid[:, :, None] + half[:, :, None] * nodes[None, None, :]
    f = np.exp(-t * t) / (z[:, None, None] - t)
    integral = (half[:, :, None] * weights[None, None, :] * f).sum(axis=(1, 2))
    return 1j * integral / math.pi


def faddeeva_quadrature(z, rel_tol: float = 1e-9) -> np.ndarray:
    """Oracle w(z) for Im z > 0 with built-in two-resolution error control."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z.imag <= 0.0):
        raise ValueError("quadrature oracle requires Im z > 0")
    breaks = _panel_breakpoints(z)
    coarse = _gl_eval(z, breaks, 16)
    fine = _gl_eval(z, breaks, 24)
    err = np.abs(fine - coarse) / np.abs(fine)
    if np.any(err > rel_tol):
        worst = float(err.max())
        raise AssertionError(f"quadrature self-consistency {worst:.2e} > {rel_tol:.0e}")
    return fine


# ---------------------------------------------------------------------------
# Wigner 3j by the Racah single-sum formula with exact integer
# factorials (converted to float at the end).
# ---------------------------------------------------------------------------


def _fact(n: float) -> int:
    k = int(round(n))
    if abs(n - k) > 1e-9 or k < 0:
        raise ValueError(f"factorial of non-integer or negative {n}")
    return math.factorial(k)


def _triangle(a: float, b: float, c: float) -> float:
    return (_fact(a + b - c) * _fact(a - b + c) * _fact(-a + b + c)
            / _fact(a + b + c + 1))


def wigner_3j_racah(j1, j2, j3, m1, m2, m3) -> float:
    if abs(m1 + m2 + m3) > 1e-9:
        return 0.0
    if j3 > j1 + j2 or j3 < abs(j1 - j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    prefactor = math.sqrt(
        _triangle(j1, j2, j3)
        * _fact(j1 + m1) * _fact(j1 - m1)
        * _fact(j2 + m2) * _fact(j2 - m2)
        * _fact(j3 + m3) * _fact(j3 - m3)
    )
    k_min = int(round(max(0.0, j2 - j3 - m1, j1 - j3 + m2)))
    k_max = int(round(min(j1 + j2 - j3, j1 - m1, j2 + m2)))
    total = 0.0
    for k in range(k_min, k_max + 1):
        denom = (_fact(k) * _fact(j1 + j2 - j3 - k) * _fact(j1 - m1 - k)
                 * _fact(j2 + m2 - k) * _fact(j3 - j2 + m1 + k)
                 * _fact(j3 - j1 - m2 + k))
        total += (-1.0) ** k / denom
    return (-1.0) ** int(round(j1 - j2 - m3)) * prefactor * total


# ---------------------------------------------------------------------------
# Pearson correlation and its delete-one-block jackknife, recomputed from the
# frames left after each deletion (no moment merging).
# ---------------------------------------------------------------------------

def pearson_direct(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float((dx * dy).mean() / math.sqrt(x.var() * y.var()))


def jackknife_se_loop(x, y, n_batches: int = 50) -> float:
    """Delete each of n_batches contiguous row blocks in turn (np.linspace
    edges; n_batches = max(2, n // 2) when n < 2 n_batches) and recompute r."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2 * n_batches:
        n_batches = max(2, n // 2)
    edges = np.linspace(0, n, n_batches + 1, dtype=int)
    stats = []
    for k in range(n_batches):
        mask = np.ones(n, dtype=bool)
        mask[edges[k]:edges[k + 1]] = False
        stats.append(pearson_direct(x[mask], y[mask]))
    stats = np.array(stats)
    return float(math.sqrt((n_batches - 1) / n_batches * ((stats - stats.mean()) ** 2).sum()))


def pearson_map_direct(xs, ys) -> np.ndarray:
    """r between every column of xs and every column of ys over all rows."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    dx = xs - xs.mean(axis=0)
    dy = ys - ys.mean(axis=0)
    return (dx.T @ dy / xs.shape[0]) / np.outer(xs.std(axis=0), ys.std(axis=0))


# ---------------------------------------------------------------------------
# The same map and jackknife in exact arithmetic: Fraction comoments of the
# integer counts, with every square root and the spread taken to 40 digits.
# ---------------------------------------------------------------------------


def _comoment_exact(a: list[int], b: list[int]) -> Fraction:
    n = len(a)
    return Fraction(n * sum(p * q for p, q in zip(a, b)) - sum(a) * sum(b), n)


def _pearson_exact(a: list[int], b: list[int]) -> Decimal:
    sxy = _comoment_exact(a, b)
    r2 = sxy ** 2 / (_comoment_exact(a, a) * _comoment_exact(b, b))
    root = (Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt()
    return root if sxy >= 0 else -root


def pearson_map_exact(xs, ys) -> np.ndarray:
    """pearson_map_direct of integer counts, each entry rounded once."""
    with localcontext() as ctx:
        ctx.prec = 40
        return np.array([[float(_pearson_exact(a, b)) for b in np.asarray(ys).T.tolist()]
                         for a in np.asarray(xs).T.tolist()])


def jackknife_se_exact(x, y, n_batches: int = 50) -> float:
    """jackknife_se_loop of two integer count streams, rounded once."""
    x, y = np.asarray(x).tolist(), np.asarray(y).tolist()
    n = len(x)
    if n < 2 * n_batches:
        n_batches = max(2, n // 2)
    edges = np.linspace(0, n, n_batches + 1, dtype=int).tolist()
    with localcontext() as ctx:
        ctx.prec = 40
        stats = [_pearson_exact(x[:lo] + x[hi:], y[:lo] + y[hi:])
                 for lo, hi in zip(edges, edges[1:])]
        mean = sum(stats) / n_batches
        spread = sum((s - mean) ** 2 for s in stats)
        return float((Decimal(n_batches - 1) / n_batches * spread).sqrt())


# ---------------------------------------------------------------------------
# Camera frames, one seeded chunk after another
# ---------------------------------------------------------------------------

def simulate_frames_serial(frames: int, noise, seed: int, n_regions: int,
                           chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_s, n_as) drawn chunk by chunk in order, chunk k from spawned seed k:
    thermal pair, Stokes thinning, mirrored anti-Stokes thinning, then the
    Stokes and anti-Stokes Poisson backgrounds."""
    background = (noise.b_fluorescence + noise.b_leakage
                  + noise.intensifier_per_frame / (2.0 * n_regions))
    n_chunks = -(-frames // chunk)
    stokes, anti_stokes = [], []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        rng = np.random.default_rng(child)
        shape = (min(chunk, frames - k * chunk), n_regions)
        if noise.n_sig > 0:
            pair = rng.geometric(1.0 / (1.0 + noise.n_sig), size=shape) - 1
        else:
            pair = np.zeros(shape, dtype=np.int64)
        s = rng.binomial(pair, noise.eta_s)
        a = rng.binomial(pair, noise.eta_as)[:, ::-1]
        if background > 0:
            s = s + rng.poisson(background, size=shape)
            a = a + rng.poisson(background, size=shape)
        stokes.append(s)
        anti_stokes.append(a)
    return np.concatenate(stokes), np.concatenate(anti_stokes)


def frames_csv_bytes(n_s, n_as) -> bytes:
    """frames.csv as Python's %d writes it: the header, then one
    frame,region,n_s,n_as row per region of each frame, every row ending in CRLF."""
    frame, region = np.indices(np.shape(n_s))
    fields = np.stack([frame, region, n_s, n_as], axis=-1).ravel().tolist()
    return ("frame,region,n_s,n_as\r\n" + "%d,%d,%d,%d\r\n" * (len(fields) // 4)
            % tuple(fields)).encode("ascii")


# ---------------------------------------------------------------------------
# Fit covariance from a central-difference Jacobian (Gauss-Newton)

def covariance_central_differences(residuals, x: np.ndarray, span: np.ndarray) -> np.ndarray:
    """s^2 (J^T J)^-1 at x, with J by central differences at 1e-4 of each span.

    residuals maps natural-unit parameters to the residual vector; s^2 is the
    residual sum of squares over n - p degrees of freedom.
    """
    r0 = residuals(x)
    n, p = r0.size, x.size
    jac = np.empty((n, p))
    for k in range(p):
        h = 1e-4 * span[k]
        step = np.zeros(p)
        step[k] = h
        jac[:, k] = (residuals(x + step) - residuals(x - step)) / (2.0 * h)
    s2 = float(r0 @ r0) / max(n - p, 1)
    return s2 * np.linalg.inv(jac.T @ jac)


# ---------------------------------------------------------------------------
# Voigt geometry (field perpendicular to the beam): the exact index of the
# mode polarized perpendicular to B, from the dielectric tensor of the same
# vapor.  With B along z, eps_xx = 1 + (chi_+ + chi_-)/2 and the gyrotropic
# eps_xy = i (chi_+ - chi_-)/2; a wave travelling along x whose field lies in
# the x-y plane sees n_perp^2 = eps_xx + eps_xy^2 / eps_xx.

def voigt_perpendicular_chi(chi_plus, chi_minus) -> np.ndarray:
    """n_perp^2 - 1, the exact susceptibility of the sigma mode of a transverse cell,
    as (eps_xx (eps_xx - 1) + eps_xy^2) / eps_xx with eps_xx - 1 kept as chi_mean:
    forming eps_xx - 1 from eps_xx would round chi_mean to the ulp of 1."""
    chi_mean = 0.5 * (chi_plus + chi_minus)
    eps_xx = 1.0 + chi_mean
    eps_xy = 0.5j * (chi_plus - chi_minus)
    return (eps_xx * chi_mean + eps_xy ** 2) / eps_xx


# ---------------------------------------------------------------------------
# SciPy's solvers, which the package's NumPy solvers replace at run time

def scipy_nelder_mead(fun, simplex: np.ndarray, **options):
    """scipy.optimize.minimize(method="Nelder-Mead") from the given initial
    simplex: (every point it evaluated, their values, its result)."""
    from scipy.optimize import minimize

    points, values = [], []

    def recorded(x):
        points.append(x.copy())
        values.append(fun(x))
        return values[-1]

    result = minimize(recorded, simplex[0], method="Nelder-Mead",
                      options=dict(options, initial_simplex=simplex))
    return points, values, result


def least_squares_dogbox(residuals, u0: np.ndarray):
    """scipy.optimize.least_squares(method="dogbox") on the unit box, returning
    (u, r, J) like fitting._levenberg_marquardt, with r and J at u."""
    from scipy.optimize import least_squares

    result = least_squares(residuals, u0, bounds=(0.0, 1.0), method="dogbox")
    return result.x, result.fun, result.jac
