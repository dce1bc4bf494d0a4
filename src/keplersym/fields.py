"""Vectorized kernels: conserved quantities, gradients, characteristics, reconstruction.

Everything here operates on batches: r and v are (N, 3) arrays and scalar
results are (N,).  This module is the only home of these formulas; the
scalar APIs elsewhere are N=1 views of them:

    values / scalar_values   conserved quantities (core.conserved_set stays scalar)
    gradients, bracket       analytic phase-space gradients and Poisson brackets
    fd_gradients             their finite-difference twin (step rule in core)
    characteristics          P = dC/dv and DtP of each generator family, also
                             mixed A/Theta batches (generators, flow, verify)
    gauge_completion         the radius-preserving flow field from (P, DtP)
                             (flow.symmetry_flow_rhs, generators.gauge_fixed_generator)
    reconstruct              (r, v) rebuilt from (|r|, E, L*, Theta*) (transforms)

The ten scalar fields are labelled

    E, L1..L3, A1..A3, Theta1..Theta3          (plus M1..M3 when E != 0)

and each label maps to a (value, grad_r, grad_v) triple.  These gradients are
the analytic side of every bracket computation; the finite-difference twins
live in `fd_gradients` and exist purely as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .core import CIRCULAR_TOL, central_differences
from .errors import DegenerateDirectionError, InadmissibleTransformError

# Reconstruction square-root arguments in [-ADMISSIBILITY_TOL, 0] are clamped
# to zero; |A*|^2 must stay at or above ADMISSIBILITY_TOL^2.
ADMISSIBILITY_TOL = 1e-10

# States per batch of fd_gradients, which holds the six perturbed value tables
# of one batch at a time; batches this small stay in cache, and larger ones
# ran slower.
FD_BATCH = 2048

SCALAR_LABELS = (
    "E",
    "L1",
    "L2",
    "L3",
    "A1",
    "A2",
    "A3",
    "Theta1",
    "Theta2",
    "Theta3",
)
M_LABELS = ("M1", "M2", "M3")

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    _EPS[_i, _j, _k] = _s


def levi(i: int, j: int, k: int) -> float:
    """Levi-Civita symbol with 1-based indices."""
    return float(_EPS[i - 1, j - 1, k - 1])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ni->n", a, b)


def values(r: np.ndarray, v: np.ndarray, kappa: float) -> dict[str, np.ndarray]:
    """Batched conserved quantities; vector entries have shape (N, 3)."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    r_mag = np.linalg.norm(r, axis=1)
    v_sq = _dot(v, v)
    r_dot_v = _dot(r, v)
    e = 0.5 * v_sq - kappa / r_mag
    l_vec = np.cross(r, v)
    a_vec = (v_sq - kappa / r_mag)[:, None] * r - r_dot_v[:, None] * v
    a_mag = np.linalg.norm(a_vec, axis=1)
    # Theta and M rows are simply unused by callers at circular or exactly
    # parabolic states; keep the division quiet there.
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = a_vec / a_mag[:, None]
        m_vec = a_vec / np.sqrt(2.0 * np.abs(e))[:, None]
    out = {
        "r_mag": r_mag,
        "r_dot_v": r_dot_v,
        "E": e,
        "L": l_vec,
        "L_mag": np.linalg.norm(l_vec, axis=1),
        "A": a_vec,
        "A_mag": a_mag,
        "Theta": theta,
        "M": m_vec,
    }
    return out


def scalar_values(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, np.ndarray]:
    vals = values(r, v, kappa)
    out = {"E": vals["E"]}
    for name, key in (("L", "L"), ("A", "A"), ("Theta", "Theta")):
        for i in range(3):
            out[f"{name}{i + 1}"] = vals[key][:, i]
    if include_m:
        for i in range(3):
            out[f"M{i + 1}"] = vals["M"][:, i]
    return out


def gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic (grad_r, grad_v) for every scalar field, each of shape (N, 3).

    Besides the per-label gradients, the returned table carries the chain-rule
    factorizations of the derived fields,

        grad M_j     = alpha grad A_j + beta_j grad E
        grad Theta_j = a grad A_j + b_j grad E + c_j grad |L|^2,

    under private keys.  `bracket` uses them to evaluate M and Theta rows in a
    numerically stable arrangement.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    n = r.shape[0]
    r_mag = np.linalg.norm(r, axis=1)
    v_sq = _dot(v, v)
    r_dot_v = _dot(r, v)
    e = 0.5 * v_sq - kappa / r_mag
    a_vec = (v_sq - kappa / r_mag)[:, None] * r - r_dot_v[:, None] * v
    a_sq = _dot(a_vec, a_vec)
    a_mag = np.sqrt(a_sq)

    ge_r = (kappa / r_mag**3)[:, None] * r
    ge_v = v.copy()
    out: dict = {"E": (ge_r, ge_v)}

    basis = np.eye(3)
    grads_a = []
    for j in range(3):
        e_j = np.broadcast_to(basis[j], (n, 3))
        # L^j = (r x v)^j
        out[f"L{j + 1}"] = (np.cross(v, e_j), np.cross(e_j, r))
        # A^j = (|v|^2 - kappa/|r|) r^j - (r.v) v^j
        ga_r = (
            (kappa / r_mag**3 * r[:, j])[:, None] * r
            + (v_sq - kappa / r_mag)[:, None] * e_j
            - v[:, j][:, None] * v
        )
        ga_v = 2.0 * r[:, j][:, None] * v - v[:, j][:, None] * r - r_dot_v[:, None] * e_j
        grads_a.append((ga_r, ga_v))
        out[f"A{j + 1}"] = (ga_r, ga_v)

    # |A|^2 = kappa^2 + 2 E |L|^2 with |L|^2 = |r|^2 |v|^2 - (r.v)^2.
    l_sq = r_mag**2 * v_sq - r_dot_v**2
    glsq_r = 2.0 * v_sq[:, None] * r - 2.0 * r_dot_v[:, None] * v
    glsq_v = 2.0 * r_mag[:, None] ** 2 * v - 2.0 * r_dot_v[:, None] * r
    out["_LSQ"] = (glsq_r, glsq_v)
    gasq_r = 2.0 * l_sq[:, None] * ge_r + 2.0 * e[:, None] * glsq_r
    gasq_v = 2.0 * l_sq[:, None] * ge_v + 2.0 * e[:, None] * glsq_v

    theta_a = 1.0 / a_mag
    theta_b = -a_vec * (l_sq / a_mag**3)[:, None]
    theta_c = -a_vec * (e / a_mag**3)[:, None]
    out["_theta_coef"] = (theta_a, theta_b, theta_c)
    for j in range(3):
        ga_r, ga_v = grads_a[j]
        aj = a_vec[:, j]
        # Theta^j = A^j / |A|
        gt_r = ga_r / a_mag[:, None] - (aj / (2.0 * a_sq * a_mag))[:, None] * gasq_r
        gt_v = ga_v / a_mag[:, None] - (aj / (2.0 * a_sq * a_mag))[:, None] * gasq_v
        out[f"Theta{j + 1}"] = (gt_r, gt_v)

    if include_m:
        two_abs_e = 2.0 * np.abs(e)
        sgn = np.sign(e)
        alpha = 1.0 / np.sqrt(two_abs_e)
        beta = -a_vec * (sgn / two_abs_e**1.5)[:, None]
        out["_m_coef"] = (alpha, beta)
        for j in range(3):
            ga_r, ga_v = grads_a[j]
            out[f"M{j + 1}"] = (
                alpha[:, None] * ga_r + beta[:, j][:, None] * ge_r,
                alpha[:, None] * ga_v + beta[:, j][:, None] * ge_v,
            )
    return out


def fd_gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Central-difference twin of `gradients`, built on `core.central_differences`."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    labels = list(SCALAR_LABELS) + (list(M_LABELS) if include_m else [])
    n = r.shape[0]
    grads = {lab: (np.empty((n, 3)), np.empty((n, 3))) for lab in labels}

    def table(r_: np.ndarray, v_: np.ndarray) -> np.ndarray:
        vals = scalar_values(r_.reshape(-1, 3), v_.reshape(-1, 3), kappa, include_m)
        return np.stack([vals[lab] for lab in labels], axis=-1).reshape(r_.shape[:-1] + (-1,))

    for lo in range(0, n, FD_BATCH):
        rb, vb = r[lo : lo + FD_BATCH], v[lo : lo + FD_BATCH]
        d_r = central_differences(lambda rs: table(rs, np.broadcast_to(vb, rs.shape)), rb)
        d_v = central_differences(lambda vs: table(np.broadcast_to(rb, vs.shape), vs), vb)
        for j, lab in enumerate(labels):
            grads[lab][0][lo : lo + FD_BATCH] = d_r[:, :, j].T
            grads[lab][1][lo : lo + FD_BATCH] = d_v[:, :, j].T
    return grads


def characteristics(
    family, r: np.ndarray, v: np.ndarray, eps: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batched characteristic P = dC/dv of a generator family and its DtP.

    family is "E", "L", "A" or "Theta", or, for a batch that mixes the A and
    Theta families, the (N,) bool mask of its Theta rows.  eps (N, 3)
    contracts the axis of the vector families: e_j for the component C_j, any
    vector for a contracted flow; the energy family ignores it.  With
    a = -kappa r/|r|^3,

        E      P = v                               DtP = a
        L      P = eps x r                         DtP = eps x v
        A      P = 2 (r.eps) v - (v.eps) r - (r.v) eps
               DtP = (v.eps) v - kappa (r.eps) r/|r|^3 - (|v|^2 - kappa/|r|) eps
        Theta  P = P[A]/|A| + (A.eps) (2E (r x L) - |L|^2 v)/|A|^3
               DtP = DtP[A]/|A| + (A.eps) (2E (v x L) - |L|^2 a)/|A|^3

    Theta = A/|A|, so the Theta rows are computed as the A rows at the
    projected axis eps~ = (eps - (Theta.eps) Theta)/|A|: P[Theta](eps) =
    P[A](eps~), and DtP[Theta](eps) = DtP[A](eps~) because eps~ is built from
    constants of motion.  The |L|^2 v piece of P[Theta] is a multiple of the
    on-shell flow direction (it drops out of every action on constants of
    motion) but is required for P to be the actual velocity gradient of
    Theta.  Raises DegenerateDirectionError for a Theta row at a circular
    state.
    """
    r_sq = _dot(r, r)
    k_r = kappa / np.sqrt(r_sq)
    k_r3 = k_r / r_sq
    single = isinstance(family, str)
    if single and family == "E":
        return v.copy(), -k_r3[:, None] * r
    if single and family == "L":
        return np.cross(eps, r), np.cross(eps, v)
    v_sq = _dot(v, v)
    r_dot_v = _dot(r, v)
    beta = v_sq - k_r
    if not single or family == "Theta":
        a_vec = beta[:, None] * r - r_dot_v[:, None] * v
        a_mag = np.sqrt(_dot(a_vec, a_vec))
        circular = a_mag <= CIRCULAR_TOL * kappa
        if (circular if single else circular & family).any():
            raise DegenerateDirectionError(
                "LRL direction undefined: |A| is at the circular-orbit threshold"
            )
        if not single:
            # the A rows discard their eps~; keep it finite at a circular A row
            a_mag = np.where(family, a_mag, 1.0)
        tilde = eps / a_mag[:, None] - (_dot(a_vec, eps) / a_mag**3)[:, None] * a_vec
        eps = tilde if single else np.where(family[:, None], tilde, eps)
    r_eps = _dot(r, eps)
    v_eps = _dot(v, eps)
    p = 2.0 * r_eps[:, None] * v - v_eps[:, None] * r - r_dot_v[:, None] * eps
    dtp = v_eps[:, None] * v - (k_r3 * r_eps)[:, None] * r - beta[:, None] * eps
    return p, dtp


def gauge_completion(
    r, v, p, dtp, eps, kappa: float, r_sq, r_dot_v, tau=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched (dt/ds, dr/ds, dv/ds) of the radius-preserving gauge of (P, DtP):

        dr/ds = P + tau v,      dv/ds = DtP + tau a,
        dt/ds = -(r x L) . eps, tau   = -(r . P)/(r . v)

    from the callers' r_sq = |r|^2 and r_dot_v = r.v, checked off the apsis
    r.v = 0; a given tau (an apsis limit) replaces the quotient.
    """
    minus_tau = _dot(r, p) / r_dot_v if tau is None else -tau
    dr = p - minus_tau[:, None] * v
    dv = dtp + (minus_tau * kappa / (r_sq * np.sqrt(r_sq)))[:, None] * r
    # -(r x L) . eps with r x L = (r.v) r - |r|^2 v
    dt = _dot(r_sq[:, None] * v - r_dot_v[:, None] * r, eps)
    return dt, dr, dv


def reconstruction_terms(
    e, kappa: float, r_mag, l_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt of the clamped root argument, |A*|) of the reconstruction at |L*|^2 = l_sq.

    The root argument 2(E + kappa/|r|) - |L*|^2/|r|^2 must be at least
    -ADMISSIBILITY_TOL, and |A*|^2 = kappa^2 + 2E|L*|^2 at least
    ADMISSIBILITY_TOL^2; otherwise InadmissibleTransformError, carrying the
    worst root argument (or |A*|^2).
    """
    arg = 2.0 * (e + kappa / r_mag) - l_sq / r_mag**2
    worst = float(np.min(arg))
    if worst < -ADMISSIBILITY_TOL:
        raise InadmissibleTransformError(
            f"transformed orbit cannot reach radius {float(np.max(r_mag)):.6g}: "
            f"square-root argument {worst:.6e} < 0",
            root_argument=worst,
        )
    a_sq = kappa**2 + 2.0 * e * l_sq
    if np.any(a_sq < ADMISSIBILITY_TOL**2):
        raise InadmissibleTransformError(
            "transformed orbit is circular to working precision; the in-plane frame degenerates",
            root_argument=float(np.min(a_sq)),
        )
    return np.sqrt(np.maximum(arg, 0.0)), np.sqrt(a_sq)


def reconstruct(
    r_mag, sigma, e, kappa: float, l_star: np.ndarray, theta_star: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched (r, v) at radius |r| on the orbit with constants (E, L*, Theta*).

    l_star and theta_star are (N, 3); r_mag, sigma (the sign of r.v) and e are
    scalars or (N,).  The in-plane expansion

        r = (alpha_r Theta* + beta_r L* x Theta*) / |A*|,  alpha_r = |L*|^2 - kappa |r|
        v = (alpha_v Theta* + beta_v L* x Theta*) / |A*|,  beta_v  = 2E + kappa/|r|

    with beta_r = sigma |r| root and alpha_v = -sigma kappa root, root the
    square root checked by `reconstruction_terms`, keeps |r| and E exact.
    """
    l_sq = _dot(l_star, l_star)
    root, a_mag = reconstruction_terms(e, kappa, r_mag, l_sq)
    lxt = np.cross(l_star, theta_star)
    alpha_r = (l_sq - kappa * r_mag)[:, None]
    beta_r = np.asarray(sigma * r_mag * root)[..., None]
    alpha_v = np.asarray(-sigma * kappa * root)[..., None]
    beta_v = np.asarray(2.0 * e + kappa / r_mag)[..., None]
    a_mag = a_mag[:, None]
    return (alpha_r * theta_star + beta_r * lxt) / a_mag, (alpha_v * theta_star + beta_v * lxt) / a_mag


def _raw_bracket(
    grads: dict[str, tuple[np.ndarray, np.ndarray]], left: str, right: str
) -> np.ndarray:
    fr, fv = grads[left]
    gr_, gv_ = grads[right]
    return _dot(fr, gv_) - _dot(gr_, fv)


def _expansion(grads: dict, label: str) -> list[tuple[np.ndarray | float, str]]:
    """Chain-rule expansion of a label into well-conditioned base gradients.

    The grad E pieces of M and Theta are omitted: their bracket with every
    base in the table ({X, E} for X among E, L_i, A_i, |L|^2) is identically
    zero as an algebraic consequence of the closed-form gradients, so keeping
    them only injects |E|^-2-amplified roundoff.
    """
    fam, j = _family(label)
    if fam == "M" and "_m_coef" in grads:
        alpha, _beta = grads["_m_coef"]
        return [(alpha, f"A{j}")]
    if fam == "Theta" and "_theta_coef" in grads:
        a, _b, c = grads["_theta_coef"]
        return [(a, f"A{j}"), (c[:, j - 1], "_LSQ")]
    return [(1.0, label)]


def bracket(
    grads: dict[str, tuple[np.ndarray, np.ndarray]], left: str, right: str
) -> np.ndarray:
    """{left, right} = dF/dr . dG/dv - dG/dr . dF/dv from a gradient table.

    Tables produced by `gradients` evaluate M and Theta rows through their
    factored expansions; finite-difference tables evaluate every pair from
    the raw gradients.
    """
    total = None
    for coef_l, base_l in _expansion(grads, left):
        for coef_r, base_r in _expansion(grads, right):
            term = coef_l * coef_r * _raw_bracket(grads, base_l, base_r)
            total = term if total is None else total + term
    return total


def _family(label: str) -> tuple[str, int]:
    if label == "E":
        return "E", 0
    for fam in ("Theta", "L", "A", "M"):
        if label.startswith(fam):
            return fam, int(label[len(fam):])
    raise KeyError(label)


def expected_bracket(left: str, right: str, vals: dict[str, np.ndarray]) -> np.ndarray:
    """Closed-form value of {left, right} in terms of the state's constants."""
    n = vals["E"].shape[0]
    fam_l, i = _family(left)
    fam_r, j = _family(right)
    if fam_l == "E" or fam_r == "E":
        return np.zeros(n)

    e = vals["E"]
    l_vec, a_vec, theta, m_vec = vals["L"], vals["A"], vals["Theta"], vals["M"]
    a_mag = vals["A_mag"]

    def eps_contract(x: np.ndarray) -> np.ndarray:
        # sum_k eps(i, j, k) x_k
        out = np.zeros(n)
        for k in range(1, 4):
            s = levi(i, j, k)
            if s:
                out += s * x[:, k - 1]
        return out

    pair = (fam_l, fam_r)
    if pair == ("L", "L"):
        return eps_contract(l_vec)
    if pair in (("L", "A"), ("A", "L")):
        return eps_contract(a_vec)
    if pair in (("L", "M"), ("M", "L")):
        return eps_contract(m_vec)
    if pair in (("L", "Theta"), ("Theta", "L")):
        return eps_contract(theta)
    if pair == ("A", "A"):
        return -2.0 * e * eps_contract(l_vec)
    if pair == ("M", "M"):
        return -np.sign(e) * eps_contract(l_vec)
    if pair in (("A", "M"), ("M", "A")):
        return -np.sign(e) * np.sqrt(2.0 * np.abs(e)) * eps_contract(l_vec)
    if pair == ("Theta", "Theta"):
        return np.zeros(n)

    # remaining: the LRL / LRL-direction mixed rows
    theta_cross_l = np.cross(theta, l_vec)
    if pair == ("A", "Theta"):
        return 2.0 * e / a_mag * (theta_cross_l[:, i - 1] * theta[:, j - 1] - eps_contract(l_vec))
    if pair == ("Theta", "A"):
        return -2.0 * e / a_mag * (theta_cross_l[:, j - 1] * theta[:, i - 1]) - 2.0 * e / a_mag * eps_contract(l_vec)
    if pair == ("M", "Theta"):
        scale = np.sqrt(2.0 * np.abs(e))
        return expected_bracket(f"A{i}", right, vals) / scale
    if pair == ("Theta", "M"):
        scale = np.sqrt(2.0 * np.abs(e))
        return expected_bracket(left, f"A{j}", vals) / scale
    raise KeyError((left, right))
