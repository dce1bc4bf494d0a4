"""Reference values for checking keplersym's outputs, written from the formulas.

Nothing here imports keplersym: a check that shares code with the program it
checks would pass whatever that code got wrong.  Vectors are numpy arrays of
shape (3,); the force constant is kappa (a = -kappa r / |r|^3).

    E = |v|^2/2 - kappa/|r|,   L = r x v,   A = v x L - kappa r/|r|
"""

from __future__ import annotations

import math

import numpy as np

# Copies of the program's numerical gates: a change that loosens the gates in
# keplersym.verify must still pass these.
GATES = {
    "bracket_analytic": 1e-10,
    "bracket_fd": 1e-5,
    "noether": 1e-5,
    "antisymmetry": 1e-12,
    "jacobi": 1e-8,
    "linearity": 1e-5,
    "classification": 0.5,
    "action": 1e-5,
    "transform_exact": 1e-10,
    "constants_match": 1e-9,
    "group_law": 1e-9,
    "flow_residual": 1e-6,
    "r_drift": 1e-8,
    "dt_ds": 1e-6,
    "orbit_closure": 1e-8,
    "energy_drift": 1e-9,
    "monotone_escape": 1e-12,
    "solution_mapping": 1e-8,
    # A looser bound for the central differences of algebra.symmetry_action_fd,
    # whose gate above keplersym misses on some seeds (a FOUND line of
    # CHANGES.md): the worst of 1720 seeds of 500 states was 1.7e-5.
    "action_loose": 1e-4,
}
# Halving the RK4 step must shrink the residual by a factor in this band.
RK4_ORDER_BAND = (12.0, 20.0)


def bracket_analytic_bound(min_abs_e: float) -> float:
    """The bound on the analytic bracket table over states whose least |E| is min_abs_e.

    The M rows divide by sqrt(2|E|), so their rounding error grows as u/|E|
    near the parabolic branch (u the unit roundoff): up to 6 u/|E| over
    540 000 states with 1e-9 <= |E| <= 1e-4.  The bound is the gate plus
    32 u/min|E|, which is the gate itself unless some state has |E| below
    about 1e-4.
    """
    return GATES["bracket_analytic"] + 32.0 * np.finfo(float).eps / min_abs_e


def constants(r, v, kappa: float = 1.0) -> tuple[float, np.ndarray, np.ndarray]:
    """(E, L, A) of the state (r, v)."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    r_mag = math.sqrt(float(r @ r))
    e = 0.5 * float(v @ v) - kappa / r_mag
    l_vec = np.cross(r, v)
    a_vec = np.cross(v, l_vec) - (kappa / r_mag) * r
    return e, l_vec, a_vec


def energies(r, v, kappa: float = 1.0) -> np.ndarray:
    """E of each row of the (n, 3) arrays r and v."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    return 0.5 * np.sum(v * v, axis=1) - kappa / np.sqrt(np.sum(r * r, axis=1))


def rodrigues(eps, x) -> np.ndarray:
    """x rotated by the angle |eps| about the axis eps/|eps| (right-handed)."""
    eps = np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    angle = math.sqrt(float(eps @ eps))
    if angle == 0.0:
        return x.copy()
    n = eps / angle
    c, s = math.cos(angle), math.sin(angle)
    return c * x + s * np.cross(n, x) + (1.0 - c) * float(n @ x) * n


def direction_map(e: float, l_vec, a_vec, eps, kappa: float = 1.0):
    """LRL-direction group: E and Theta fixed, L -> L + eps x Theta."""
    theta = a_vec / math.sqrt(float(a_vec @ a_vec))
    l_star = l_vec + np.cross(eps, theta)
    a_star = math.sqrt(kappa**2 + 2.0 * e * float(l_star @ l_star)) * theta
    return l_star, a_star


def lrl_map(e: float, l_vec, a_vec, eps, parabolic: bool):
    """LRL group, by energy branch.

    E < 0: L + M and L - M rotate by +phi and -phi about eps-hat, with
    M = A / sqrt(2|E|) and phi = sqrt(2|E|) |eps|.
    E > 0: the components along eps-hat stay; the perpendicular ones mix as
    L -> cosh L + sinh eps-hat x M, M -> cosh M - sinh eps-hat x L.
    E = 0: A stays and L -> L + eps x A.
    """
    eps = np.asarray(eps, dtype=float)
    if parabolic:
        return l_vec + np.cross(eps, a_vec), a_vec.copy()
    scale = math.sqrt(2.0 * abs(e))
    m_vec = a_vec / scale
    mag = math.sqrt(float(eps @ eps))
    n = eps / mag
    phi = scale * mag
    if e < 0:
        up = rodrigues(phi * n, l_vec + m_vec)
        um = rodrigues(-phi * n, l_vec - m_vec)
        l_star, m_star = 0.5 * (up + um), 0.5 * (up - um)
    else:
        ch, sh = math.cosh(phi), math.sinh(phi)
        l_par = float(n @ l_vec) * n
        m_par = float(n @ m_vec) * n
        l_star = l_par + ch * (l_vec - l_par) + sh * np.cross(n, m_vec)
        m_star = m_par + ch * (m_vec - m_par) - sh * np.cross(n, l_vec)
    return l_star, scale * m_star


def _levi(i: int, j: int, k: int) -> float:
    return float((i - j) * (j - k) * (k - i) / 2)


def bracket_labels(parabolic: bool) -> list[str]:
    """The labels of the structure table; M has no value at E = 0."""
    labels = ["E"] + [f"{fam}{i}" for fam in ("L", "A", "Theta") for i in (1, 2, 3)]
    if not parabolic:
        labels += ["M1", "M2", "M3"]
    return labels


def _split(label: str) -> tuple[str, int]:
    if label == "E":
        return "E", 0
    fam = label.rstrip("123")
    return fam, int(label[len(fam):])


def expected_bracket(left: str, right: str, e: float, l_vec, a_vec) -> float:
    """{left, right} from the closed algebra of the Kepler constants.

    {L_i, L_j} = eps_ijk L_k and {L_i, X_j} = {X_i, L_j} = eps_ijk X_k for X in
    A, M, Theta; {A_i, A_j} = -2E eps_ijk L_k; {M_i, M_j} = -sgn(E) eps_ijk L_k;
    {Theta_i, Theta_j} = 0; E commutes with everything.  The rows that mix A
    or M with Theta follow from Theta = A/|A|, |A|^2 = kappa^2 + 2E|L|^2 and
    {A_i, |L|^2} = 2 (L x A)_i:
        {A_i, Theta_j} = (2E/|A|) (Theta_j (Theta x L)_i - eps_ijk L_k).
    """
    fam_l, i = _split(left)
    fam_r, j = _split(right)
    if "E" in (fam_l, fam_r):
        return 0.0
    a_mag = math.sqrt(float(a_vec @ a_vec))
    theta = a_vec / a_mag
    scale = math.sqrt(2.0 * abs(e))

    def contract(x) -> float:
        return sum(_levi(i, j, k) * float(x[k - 1]) for k in (1, 2, 3))

    vecs = {"L": l_vec, "A": a_vec, "Theta": theta}
    if fam_l == "L" or fam_r == "L":
        other = fam_r if fam_l == "L" else fam_l
        return contract(a_vec / scale) if other == "M" else contract(vecs[other])
    pair = {fam_l, fam_r}
    if pair == {"A"}:
        return -2.0 * e * contract(l_vec)
    if pair == {"M"}:
        return -math.copysign(1.0, e) * contract(l_vec)
    if pair == {"A", "M"}:
        return -2.0 * e * contract(l_vec) / scale
    if pair == {"Theta"}:
        return 0.0
    # One side is Theta, the other A or M.
    t_x_l = np.cross(theta, l_vec)
    if fam_r == "Theta":
        value = 2.0 * e / a_mag * (theta[j - 1] * t_x_l[i - 1] - contract(l_vec))
        other = fam_l
    else:
        value = -2.0 * e / a_mag * (theta[i - 1] * t_x_l[j - 1] + contract(l_vec))
        other = fam_r
    return value / scale if other == "M" else value


def _solve_increasing(f, df, x0: float) -> float:
    """Root of an increasing function by Newton steps kept inside a bracket."""
    lo, hi, step = x0, x0, 1.0
    while f(lo) > 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while f(hi) < 0.0:
        hi += step
        step *= 2.0
    x = min(max(x0, lo), hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - fx / df(x)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def kepler_propagate(r0, v0, dt: float, kappa: float = 1.0, parabolic: bool = False):
    """(r, v) after time dt on the Kepler orbit through (r0, v0).

    Elliptic and hyperbolic orbits solve Kepler's equation in the change of
    eccentric (or hyperbolic) anomaly by Newton's method and map the state
    with the Lagrange f and g coefficients.  Parabolic orbits solve Barker's
    equation for D = tan(f/2).
    """
    r0 = np.asarray(r0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    r0_mag = math.sqrt(float(r0 @ r0))
    e, l_vec, a_vec = constants(r0, v0, kappa)
    sigma0 = float(r0 @ v0) / math.sqrt(kappa)
    if parabolic:
        return _barker(r0, v0, dt, kappa, l_vec, a_vec)
    a = -kappa / (2.0 * e)
    c = 1.0 - r0_mag / a
    if e < 0:
        n = math.sqrt(kappa / a**3)
        s = sigma0 / math.sqrt(a)
        x = _solve_increasing(
            lambda x: x - c * math.sin(x) + s * (1.0 - math.cos(x)) - n * dt,
            lambda x: 1.0 - c * math.cos(x) + s * math.sin(x),
            n * dt,
        )
        cos_x, sin_x = math.cos(x), math.sin(x)
        r_mag = a + (r0_mag - a) * cos_x + sigma0 * math.sqrt(a) * sin_x
        f = 1.0 - a / r0_mag * (1.0 - cos_x)
        g = dt - (x - sin_x) / n
        fdot = -math.sqrt(kappa * a) * sin_x / (r_mag * r0_mag)
        gdot = 1.0 - a / r_mag * (1.0 - cos_x)
    else:
        n = math.sqrt(kappa / (-a) ** 3)
        s = sigma0 / math.sqrt(-a)
        x = _solve_increasing(
            lambda x: -x + c * math.sinh(x) + s * (math.cosh(x) - 1.0) - n * dt,
            lambda x: -1.0 + c * math.cosh(x) + s * math.sinh(x),
            0.0,
        )
        ch, sh = math.cosh(x), math.sinh(x)
        r_mag = a + (r0_mag - a) * ch + sigma0 * math.sqrt(-a) * sh
        f = 1.0 - a / r0_mag * (1.0 - ch)
        g = dt - (sh - x) / n
        fdot = -math.sqrt(-kappa * a) * sh / (r_mag * r0_mag)
        gdot = 1.0 - a / r_mag * (1.0 - ch)
    return f * r0 + g * v0, fdot * r0 + gdot * v0


def _barker(r0, v0, dt, kappa, l_vec, a_vec):
    p = float(l_vec @ l_vec) / kappa
    d0 = float(r0 @ v0) / math.sqrt(kappa * p)
    k = 0.5 * math.sqrt(p**3 / kappa)
    target = k * (d0 + d0**3 / 3.0) + dt
    d = _solve_increasing(lambda d: k * (d + d**3 / 3.0) - target, lambda d: k * (1.0 + d * d), d0)
    e_hat = a_vec / math.sqrt(float(a_vec @ a_vec))
    q_hat = np.cross(l_vec / math.sqrt(float(l_vec @ l_vec)), e_hat)
    cos_f = (1.0 - d * d) / (1.0 + d * d)
    sin_f = 2.0 * d / (1.0 + d * d)
    r_mag = p / (1.0 + cos_f)
    r = r_mag * (cos_f * e_hat + sin_f * q_hat)
    v = math.sqrt(kappa / p) * (-sin_f * e_hat + (1.0 + cos_f) * q_hat)
    return r, v


def elliptic_period(e: float, kappa: float = 1.0) -> float:
    return 2.0 * math.pi * kappa * (-2.0 * e) ** -1.5
