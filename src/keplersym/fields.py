"""Vectorized kernels: conserved quantities, gradients, brackets, characteristics, reconstruction.

Everything here operates on batches: r and v are (N, 3) arrays and scalar
results are (N,).  This module is the only home of these formulas; the
scalar APIs elsewhere are N=1 views of them:

    values / scalar_values   conserved quantities (core.conserved_set stays scalar);
                             scalar_values forms only the labels of the tables
    gradients                analytic phase-space gradients, from the (N, 8, 3)
                             base tensors of {E, L_i, A_i, |L|^2}
    fd_gradients             their finite-difference twin (step rule in core)
    bracket_table            every Poisson bracket of a gradient table, as the one
                             contraction C B0 C^T (bracket: one entry of it)
    expected_table           the closed-form structure constants, same layout
                             (expected_bracket: one entry of it)
    characteristics          P = dC/dv and DtP of each generator family, also mixed
                             A/Theta batches (generators, verify)
    gauge_field              the radius-preserving flow field, and the A/Theta P
                             and DtP, as per-row coefficients on (r, v, eps) (flow)
    reconstruct              (r, v) rebuilt from (|r|, E, L*, Theta*): the outputs
                             and the time-shift integrand of transforms.transform_batch
    plane_rows               the origin, circular and radial checks of rows whose
                             orbital plane and LRL direction must exist, and their
                             parabolic-branch mask (transforms, brackets)
    cross                    row-wise a x b, the arithmetic of np.cross at less
                             fixed cost per call

The scalar fields are labelled

    E, L1..L3, A1..A3, Theta1..Theta3          (plus M1..M3 when E != 0)

in the row order of both tables (`table_labels`), and each label maps to a
(grad_r, grad_v) pair.  These gradients are the analytic side of every
bracket computation; the finite-difference twins live in `fd_gradients` and
exist purely as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CIRCULAR_TOL,
    _require_off_origin,
    central_differences,
    energy_branch_threshold,
    is_circular,
    is_radial,
)
from .errors import DegenerateDirectionError, InadmissibleTransformError, RadialStateError

# Reconstruction square-root arguments in [-ADMISSIBILITY_TOL, 0] are clamped
# to zero; |A*|^2 must stay at or above ADMISSIBILITY_TOL^2.
ADMISSIBILITY_TOL = 1e-10

# States per batch of fd_gradients, which holds the six perturbed value tables
# of one batch at a time, and per chunk of the bracket tables of many states;
# batches this small stay in cache, and larger ones ran slower.
FD_BATCH = 2048

SCALAR_LABELS = ("E", "L1", "L2", "L3", "A1", "A2", "A3", "Theta1", "Theta2", "Theta3")
M_LABELS = ("M1", "M2", "M3")
# The rows of the base gradient tensors that `bracket_table` contracts.
BASE_LABELS = ("E", "L1", "L2", "L3", "A1", "A2", "A3", "_LSQ")
# The L, A, Theta and M blocks of a bracket table.
_L, _A, _THETA, _M = slice(1, 4), slice(4, 7), slice(7, 10), slice(10, 13)

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)]:
    _EPS[_i, _j, _k] = _s


def table_labels(include_m: bool = True) -> tuple[str, ...]:
    """The row and column labels of the bracket and expected tables."""
    return SCALAR_LABELS + M_LABELS if include_m else SCALAR_LABELS


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ni->n", a, b)


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise a x b of (N, 3) arrays, into out when given: the products and differences
    of np.cross, bit for bit, at a third of its time per call on a few rows or on 10^5."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    out = np.empty_like(a) if out is None else out
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def _write_labels(r, v, kappa: float, e, l_vec, a_vec, theta, m_vec) -> tuple[np.ndarray, ...]:
    """Write E, L, A, Theta and, unless m_vec is None, M of the rows (r, v) into the given
    (N,) and (N, 3) arrays, which may be columns of one table; returns |r|, r.v and |A|."""
    r_mag = np.linalg.norm(r, axis=1)
    v_sq = _dot(v, v)
    r_dot_v = _dot(r, v)
    np.subtract(0.5 * v_sq, kappa / r_mag, out=e)
    cross(r, v, out=l_vec)
    np.subtract((v_sq - kappa / r_mag)[:, None] * r, r_dot_v[:, None] * v, out=a_vec)
    a_mag = np.linalg.norm(a_vec, axis=1)
    # Theta and M rows are simply unused by callers at circular or exactly
    # parabolic states; keep the division quiet there.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a_vec, a_mag[:, None], out=theta)
        if m_vec is not None:
            np.divide(a_vec, np.sqrt(2.0 * np.abs(e))[:, None], out=m_vec)
    return r_mag, r_dot_v, a_mag


def values(r: np.ndarray, v: np.ndarray, kappa: float) -> dict[str, np.ndarray]:
    """Batched conserved quantities; vector entries have shape (N, 3)."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    e, l_vec, a_vec, theta, m_vec = np.empty(len(r)), *(np.empty((len(r), 3)) for _ in range(4))
    r_mag, r_dot_v, a_mag = _write_labels(r, v, kappa, e, l_vec, a_vec, theta, m_vec)
    return {
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


def _label_table(r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool) -> np.ndarray:
    """The (N, L) values of the rows (r, v) under `table_labels`, and nothing else."""
    table = np.empty((len(r), len(table_labels(include_m))))
    m_vec = table[:, _M] if include_m else None
    _write_labels(r, v, kappa, table[:, 0], table[:, _L], table[:, _A], table[:, _THETA], m_vec)
    return table


def plane_rows(vals: dict[str, np.ndarray], v: np.ndarray, kappa: float, what: str) -> np.ndarray:
    """The parabolic-branch mask of the rows v, whose `values` are vals, when every
    row's orbital plane and LRL direction exist; otherwise SingularOriginError,
    DegenerateDirectionError or RadialStateError, saying what is undefined."""
    r_mag, l_mag = vals["r_mag"], vals["L_mag"]
    _require_off_origin(float(np.min(r_mag)))
    if is_circular(vals["A_mag"], kappa).any():
        raise DegenerateDirectionError(f"{what} undefined for circular orbits")
    if is_radial(l_mag, r_mag, np.sqrt(_dot(v, v))).any():
        raise RadialStateError(f"{what} undefined for radial states")
    return np.abs(vals["E"]) <= energy_branch_threshold(kappa, l_mag**2, r_mag)


def scalar_values(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, np.ndarray]:
    """Each label of `table_labels` as an (N,) column of one `_label_table`."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    table = _label_table(r, v, kappa, include_m)
    return {lab: table[:, j] for j, lab in enumerate(table_labels(include_m))}


def gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic (grad_r, grad_v) for every scalar field, each of shape (N, 3).

    The gradients of the eight base fields {E, L_i, A_i, |L|^2} are written
    out once, and kept as (N, 8, 3) tensors under the private key "_base";
    the derived fields follow from them by the chain rule

        grad Theta_j = a grad A_j + b_j grad E + c_j grad |L|^2
        grad M_j     = alpha grad A_j + beta_j grad E

    (Theta = A/|A| with |A|^2 = kappa^2 + 2E|L|^2, M = A/sqrt(2|E|)), whose
    grad-E-free coefficients (a, c, alpha) are kept under "_coef" for
    `bracket_table`.  Each label, and "_LSQ" for |L|^2, maps to a view of
    these tensors.  They are stored as (field, component, N), so that every
    elementwise step runs over the N states in one contiguous stretch.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    # |r| as in `values`, so that E here and in the expected table agree to the bit
    r_mag = np.linalg.norm(r, axis=1)
    r_sq, v_sq, r_dot_v = r_mag**2, _dot(v, v), _dot(r, v)
    k_r3 = kappa / r_mag**3
    beta = v_sq - kappa / r_mag
    e = 0.5 * v_sq - kappa / r_mag
    a_vec = beta[:, None] * r - r_dot_v[:, None] * v
    rt, vt = r.T, v.T
    eye = np.eye(3)[:, :, None]

    g_r = np.empty((14 if include_m else 11, 3, r.shape[0]))
    g_v = np.empty_like(g_r)
    g_r[0] = k_r3 * rt
    g_v[0] = vt
    # L_j = eps_jkl r_k v_l
    g_r[1:4] = (_EPS.reshape(9, 3) @ vt).reshape(3, 3, -1)
    g_v[1:4] = -(_EPS.reshape(9, 3) @ rt).reshape(3, 3, -1)
    # A_j = (|v|^2 - kappa/|r|) r_j - (r.v) v_j, row j and component k
    g_r[4:7] = k_r3 * rt[:, None] * rt + beta * eye - vt[:, None] * vt
    g_v[4:7] = 2.0 * rt[:, None] * vt - vt[:, None] * rt - r_dot_v * eye
    # |L|^2 = |r|^2 |v|^2 - (r.v)^2
    g_r[7] = 2.0 * v_sq * rt - 2.0 * r_dot_v * vt
    g_v[7] = 2.0 * r_sq * vt - 2.0 * r_dot_v * rt

    l_sq = r_sq * v_sq - r_dot_v**2
    a_mag = np.sqrt(_dot(a_vec, a_vec))
    theta_a = 1.0 / a_mag
    theta_b = -a_vec.T * (l_sq / a_mag**3)
    theta_c = -a_vec.T * (e / a_mag**3)
    alpha = None
    if include_m:
        two_abs_e = 2.0 * np.abs(e)
        alpha = 1.0 / np.sqrt(two_abs_e)
        m_beta = -a_vec.T * (np.sign(e) / two_abs_e**1.5)
    for g in (g_r, g_v):
        g[8:11] = theta_a * g[4:7] + theta_b[:, None] * g[0] + theta_c[:, None] * g[7]
        if include_m:
            g[11:] = alpha * g[4:7] + m_beta[:, None] * g[0]

    names = BASE_LABELS + SCALAR_LABELS[7:] + (M_LABELS if include_m else ())
    out: dict = {name: (g_r[k].T, g_v[k].T) for k, name in enumerate(names)}
    out["_base"] = (g_r[:8].transpose(2, 0, 1), g_v[:8].transpose(2, 0, 1))
    out["_coef"] = (theta_a, theta_c.T, alpha)
    return out


def fd_gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Central-difference twin of `gradients`, built on `core.central_differences`.

    Its perturbed tables hold only the labels (`_label_table`), and one batch of
    `FD_BATCH` states is perturbed at a time.  The gradients of every label are
    stacked as (N, L, 3) tensors under "_base"; each label maps to a view of them.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    labels = table_labels(include_m)
    g_r = np.empty((r.shape[0], len(labels), 3))
    g_v = np.empty_like(g_r)

    def table(r_: np.ndarray, v_: np.ndarray) -> np.ndarray:
        return _label_table(r_.reshape(-1, 3), v_.reshape(-1, 3), kappa, include_m).reshape(r_.shape[:-1] + (-1,))

    for lo in range(0, r.shape[0], FD_BATCH):
        rb, vb = r[lo : lo + FD_BATCH], v[lo : lo + FD_BATCH]
        # each set of differences is stored before the next is formed, so that one
        # perturbed table of the batch is held at a time
        g_r[lo : lo + FD_BATCH] = central_differences(
            lambda rs: table(rs, np.broadcast_to(vb, rs.shape)), rb
        ).transpose(1, 2, 0)
        g_v[lo : lo + FD_BATCH] = central_differences(
            lambda vs: table(np.broadcast_to(rb, vs.shape), vs), vb
        ).transpose(1, 2, 0)
    grads: dict = {lab: (g_r[:, j], g_v[:, j]) for j, lab in enumerate(labels)}
    grads["_base"] = (g_r, g_v)
    return grads


def frame(r: np.ndarray, v: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 3, N) component-major stack basis = (r, v, eps) of (N, 3) rows,
    and its (2, 3, N) dots gram[a, b] = basis[a] . basis[b] for a in (r, v)."""
    basis = np.empty((3, 3, len(r)))
    basis[0], basis[1], basis[2] = r.T, v.T, eps.T
    return basis, _contract("acn,bcn->abn", basis[:2], basis)


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum over batches on the last axis; a lone row goes as a pair, since einsum
    sums it in another order, so that every row matches its row of any batch."""
    if a.shape[-1] == 1:
        return np.einsum(spec, np.concatenate((a, a), -1), np.concatenate((b, b), -1))[..., :1]
    return np.einsum(spec, a, b)


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

    The Theta rows are the A rows at the projected axis, built from constants
    of motion, eps~ = (eps - (Theta.eps) Theta)/|A|; the |L|^2 v piece of
    P[Theta] drops out of every action on constants of motion but makes P the
    velocity gradient of Theta.  The A and Theta rows are `gauge_field` at
    mu = 0.  Raises DegenerateDirectionError for a Theta row at a circular state.
    """
    if isinstance(family, str) and family == "E":
        r_sq = _dot(r, r)
        return v.copy(), -(kappa / np.sqrt(r_sq) / r_sq)[:, None] * r
    if isinstance(family, str) and family == "L":
        return np.cross(eps, r), np.cross(eps, v)
    basis, gram = frame(r, v, eps)
    return tuple(gauge_field(family, basis, gram, kappa, 0.0)[1].transpose(0, 2, 1))


def gauge_field(family, basis: np.ndarray, gram: np.ndarray, kappa: float, mu=None):
    """(dt/ds, (dr/ds, dv/ds)) of the radius-preserving gauge of the A/Theta
    field (family "A", "Theta", or a mixed batch's Theta rows as a mask or,
    cheapest, a slice) on a `frame`, the pair (2, 3, N):

        dr/ds = P + tau v,  dv/ds = DtP + tau a,  tau = -mu,
        dt/ds = tau + (eps.A) |L|^2/|A|^2 on an A row,  tau on a Theta row.

    A Theta row's axis eps~ is eps/|A| - g A, with A = beta r - (r.v) v, beta =
    |v|^2 - kappa/|r| and g = (A.eps)/|A|^3, an A row's eps.  With rho = r.eps~,
    nu = v.eps~ and k3 = kappa/|r|^3, P = -nu r + 2 rho v - (r.v) eps~, DtP = -k3
    rho r + nu v - beta eps~, and unless given (an apsis limit, or 0 for (P, DtP))
    mu = rho - nu |r|^2/(r.v).  On (r, v, eps), a Theta row is 1/|A| times an A
    row plus g times terms of the gram, as A.(r, v, eps) = beta gram[0] - (r.v)
    gram[1], |A|^2 = beta A.r - (r.v) A.v and A.v = -kappa (r.v)/|r|; its tau is
    1/|A| times the A row's dt/ds.  The A row's added term is a constant of the
    motion, so the field stays a symmetry, and with it both fields keep the time of
    periapsis passage t - tau_p (`flow.time_since_periapsis`).
    """
    rr, rv, re, vv, ve = gram[0, 0], gram[0, 1], gram[0, 2], gram[1, 1], gram[1, 2]
    k = kappa / np.sqrt(rr)
    # an A row's coefficients, dr/ds in coef[0] and dv/ds in coef[1]
    coef = np.empty((2, 3, len(rr)))
    np.negative(ve, out=coef[0, 0])
    np.negative(rv, out=coef[0, 2])
    coef[1, 1] = ve
    np.subtract(k, vv, out=coef[1, 2])
    q = ve / coef[0, 2] if mu is None else -re / rr  # (mu - rho)/|r|^2, mu = 0 if given
    q_rr = q * rr
    np.subtract(re, q_rr, out=coef[0, 1])
    np.multiply(k, q, out=coef[1, 0])
    neg_beta = coef[1, 2]
    neg_a = neg_beta * gram[0] + rv * gram[1]  # -A.(r, v, eps)
    a_sq = neg_beta * neg_a[0] + rv * neg_a[1]
    theta = family if not isinstance(family, str) else slice(None) if family == "Theta" else None
    if mu is None:  # tau of an A row is -(q |r|^2 + r.eps), and |L|^2 = A.r + kappa |r|
        dt = (neg_a[0] - k * rr) * neg_a[2] / a_sq - q_rr - re
    else:
        # (P, DtP) at mu = 0 do not read it, and at a circular state it is 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = (neg_a[0] - k * rr) * neg_a[2] / a_sq
        if theta is not None:
            dt[theta] = 0.0
        dt -= mu
    if theta is not None:
        coef_t, gram_t, k_t = coef[:, :, theta], gram[:, :, theta], k[theta]  # views for a slice theta
        neg_beta, rv_t, neg_a, a_sq = coef_t[1, 2], gram_t[0, 1], neg_a[:, theta], a_sq[theta]
        # also catches a roundoff-negative |A|^2
        if np.count_nonzero(a_sq <= (CIRCULAR_TOL * kappa) ** 2):
            raise DegenerateDirectionError("LRL direction undefined: |A| is at the circular-orbit threshold")
        inv_a = 1.0 / np.sqrt(a_sq)
        if mu is None:
            dt[theta] *= inv_a
        neg_g = neg_a[2] * inv_a / a_sq
        # the g terms, added to the coefficients on r and taken from those on v
        z = (neg_g * (neg_beta + k_t)) * gram_t[:, 1::-1]
        if mu is not None:
            z[0, 1] = neg_g * (2.0 * neg_a[0] - rv_t * rv_t)
            z[1, 0] = neg_g * (k_t / gram_t[0, 0] * neg_a[0] - neg_beta * neg_beta)
        coef_t *= inv_a
        on_r, on_v = coef_t[:, 0], coef_t[:, 1]
        on_r += z[:, 0]
        on_v -= z[:, 1]
        if not isinstance(theta, slice):
            coef[:, :, theta] = coef_t
    if mu is not None:
        coef[0, 1] -= mu
        coef[1, 0] += k / rr * mu
    return dt, _contract("pbn,bcn->pcn", coef, basis)


def root_terms(e, kappa: float, r_mag, l_sq):
    """The root argument 2(E + kappa/|r|) - |L*|^2/|r|^2 of the reconstruction, and
    |A*|^2 = kappa^2 + 2E|L*|^2, at |L*|^2 = l_sq."""
    return 2.0 * (e + kappa / r_mag) - l_sq / (r_mag * r_mag), kappa**2 + 2.0 * e * l_sq


def reconstruction_terms(
    e, kappa: float, r_mag, l_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt of the clamped root argument, |A*|) of the reconstruction at |L*|^2 = l_sq.

    The root argument 2(E + kappa/|r|) - |L*|^2/|r|^2 must be at least
    -ADMISSIBILITY_TOL, and |A*|^2 = kappa^2 + 2E|L*|^2 at least
    ADMISSIBILITY_TOL^2; otherwise InadmissibleTransformError, carrying the
    worst root argument (or |A*|^2).
    """
    arg, a_sq = root_terms(e, kappa, r_mag, l_sq)
    worst = float(arg.min())
    if worst < -ADMISSIBILITY_TOL:
        raise InadmissibleTransformError(
            f"transformed orbit cannot reach radius {float(np.max(r_mag)):.6g}: "
            f"square-root argument {worst:.6e} < 0",
            root_argument=worst,
        )
    if (a_sq < ADMISSIBILITY_TOL**2).any():
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
    lxt = cross(l_star, theta_star)
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


def bracket_table(grads: dict[str, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """(N, L, L) brackets {label_p, label_q} over `table_labels`, as one contraction.

    With X = G_r G_v^T over the stacked gradients "_base" of the table,
    B0 = X - X^T holds the brackets among its base fields, and the table is
    C B0 C^T.  For a table from `gradients` the base is {E, L_i, A_i, |L|^2}
    and C expands each label in it: M_j -> alpha A_j, Theta_j -> a A_j +
    c_j |L|^2.  The grad E pieces of M and Theta are omitted: their bracket
    with every base field is identically zero as an algebraic consequence of
    the closed-form gradients, so keeping them only injects |E|^-2-amplified
    roundoff.  For a table from `fd_gradients` the base is the labels
    themselves and C is the identity: every entry is a raw bracket.
    """
    g_r, g_v = grads["_base"]
    x = g_r @ g_v.transpose(0, 2, 1)
    table = x - x.transpose(0, 2, 1)
    if "_coef" not in grads:
        return table
    a, c, alpha = grads["_coef"]
    coef = np.zeros((len(a), 10 if alpha is None else 13, 8))
    coef[:, :7, :7] = np.eye(7)
    j = np.arange(3)
    coef[:, 7 + j, 4 + j] = a[:, None]
    coef[:, _THETA, 7] = c
    if alpha is not None:
        coef[:, 10 + j, 4 + j] = alpha[:, None]
    return coef @ table @ coef.transpose(0, 2, 1)


def expected_table(vals: dict[str, np.ndarray], include_m: bool = True) -> np.ndarray:
    """(N, L, L) closed-form brackets over `table_labels` from the state's
    constants as given by `values`: the algebra being verified,

        {E, anything} = 0                   {Theta_i, Theta_j} = 0
        {L_i, X_j} = eps_ijk X_k            for X in L, A, Theta, M
        {A_i, A_j} = -2E eps_ijk L_k        {M_i, M_j} = -sgn(E) eps_ijk L_k
        {A_i, M_j} = -sgn(E) sqrt(2|E|) eps_ijk L_k
        {A_i, Theta_j} = 2E/|A| ((Theta x L)_i Theta_j - eps_ijk L_k)
        {M_i, Theta_j} = {A_i, Theta_j}/sqrt(2|E|),

    each block below the diagonal being minus the transpose of its mirror.
    """
    e, theta = vals["E"], vals["Theta"]
    eps_l, eps_a, eps_t = (np.einsum("ijk,nk->nij", _EPS, vals[key]) for key in ("L", "A", "Theta"))
    theta_x_l = np.einsum("nij,nj->ni", eps_l, theta)
    a_theta = (2.0 * e / vals["A_mag"])[:, None, None] * (theta_x_l[:, :, None] * theta[:, None, :] - eps_l)
    blocks = [
        (_L, _L, eps_l), (_L, _A, eps_a), (_L, _THETA, eps_t),
        (_A, _A, -2.0 * e[:, None, None] * eps_l), (_A, _THETA, a_theta),
    ]
    if include_m:
        sgn = np.sign(e)[:, None, None]
        scale = np.sqrt(2.0 * np.abs(e))[:, None, None]
        eps_m = np.einsum("ijk,nk->nij", _EPS, vals["M"])
        blocks += [
            (_L, _M, eps_m), (_M, _M, -sgn * eps_l),
            (_A, _M, -sgn * scale * eps_l), (_M, _THETA, a_theta / scale),
        ]
    table = np.zeros((len(e),) + (len(table_labels(include_m)),) * 2)
    for rows, cols, block in blocks:
        table[:, rows, cols] = block
        table[:, cols, rows] = -block.transpose(0, 2, 1)
    return table


def bracket(grads: dict[str, tuple[np.ndarray, np.ndarray]], left: str, right: str) -> np.ndarray:
    """{left, right} = dF/dr . dG/dv - dG/dr . dF/dv: one entry of `bracket_table`."""
    labels = table_labels("M1" in grads)
    return bracket_table(grads)[:, labels.index(left), labels.index(right)]


def expected_bracket(left: str, right: str, vals: dict[str, np.ndarray]) -> np.ndarray:
    """Closed-form value of {left, right}: one entry of `expected_table`."""
    include_m = left[0] == "M" or right[0] == "M"
    labels = table_labels(include_m)
    return expected_table(vals, include_m)[:, labels.index(left), labels.index(right)]


def _family(label: str) -> tuple[str, int]:
    if label == "E":
        return "E", 0
    for fam in ("Theta", "L", "A", "M"):
        if label.startswith(fam):
            return fam, int(label[len(fam):])
    raise KeyError(label)
