"""Vectorized kernels: conserved quantities, gradients, brackets, characteristics, reconstruction.

Everything here operates on batches: r and v are (N, 3) arrays and scalar
results are (N,).  This module is the only home of these formulas; the
scalar APIs elsewhere are N=1 views of them:

    values / scalar_values   conserved quantities, from `core._write_labels`, their one
                             writer, of which core.conserved_set is the single-state
                             view; scalar_values forms only the labels of the tables
    gradients                analytic phase-space gradients, from the base fields
                             {E, L_i, A_i, |L|^2}, with E, A and |A| from the writer
    fd_gradients             their finite-difference twin (step rule in core), on the
                             label tables of the writer, as scalar_values
    bracket_table            every Poisson bracket of a gradient table: C B0 C^T,
                             expanded by slices (bracket: one entry of it)
    expected_table           the closed-form structure constants, same layout
                             (expected_bracket: one entry of it)
    characteristics          P = dC/dv and DtP of each generator family (generators,
                             verify)
    GaugeField               the radius-preserving flow field, and the A/Theta P
                             and DtP, as per-row coefficients on (r, v, eps), on a
                             batch whose Theta rows lead (a mixed flow batch is
                             ordered so by flow): a kernel bound once per RK4 batch
                             (flow), which gauge_field runs once for a one-shot
                             caller (generators, characteristics)
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
exist purely as an independent cross-check.  Gradient stacks are
(label, component, N) and tables (label, label, N), so that every step runs
over the N states contiguously; callers get their (N, ...) transposed views.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .core import (
    CIRCULAR_TOL,
    _cross_components,
    _norm,
    _require_off_origin,
    _write_labels,
    central_differences,
    is_circular,
    is_parabolic,
    is_radial,
)
from .errors import DegenerateDirectionError, InadmissibleTransformError, RadialStateError

try:  # np.einsum without its Python wrapper, about 1 us a call; the wrapper calls it at optimize=False
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

# Reconstruction square-root arguments in [-ADMISSIBILITY_TOL, 0] are clamped
# to zero; |A*|^2 must stay at or above ADMISSIBILITY_TOL^2.
ADMISSIBILITY_TOL = 1e-10

# States per batch of fd_gradients, which holds the six perturbed value tables
# of one batch at a time, and per chunk of the bracket tables of many states;
# batches this small stay in cache, and larger ones ran slower.
FD_BATCH = 2048

SCALAR_LABELS = ("E", "L1", "L2", "L3", "A1", "A2", "A3", "Theta1", "Theta2", "Theta3")
M_LABELS = ("M1", "M2", "M3")
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
    out = np.empty_like(a) if out is None else out
    _cross_components(a.T, b.T, out.T)
    return out


def values(r: np.ndarray, v: np.ndarray, kappa: float) -> dict[str, np.ndarray]:
    """Batched conserved quantities; vector entries have shape (N, 3)."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    e, l_vec, a_vec, theta, m_vec = np.empty(len(r)), *(np.empty((len(r), 3)) for _ in range(4))
    r_mag, _, r_dot_v, a_mag = _write_labels(r.T, v.T, kappa, e, l_vec.T, a_vec.T, theta.T, m_vec.T)
    return {
        "r_mag": r_mag,
        "r_dot_v": r_dot_v,
        "E": e,
        "L": l_vec,
        "L_mag": _norm(l_vec.T),
        "A": a_vec,
        "A_mag": a_mag,
        "Theta": theta,
        "M": m_vec,
    }


def plane_rows(vals: dict[str, np.ndarray], v: np.ndarray, kappa: float, what: str) -> np.ndarray:
    """The parabolic-branch mask of the rows v, whose `values` are vals, when every
    row's orbital plane and LRL direction exist; otherwise SingularOriginError,
    DegenerateDirectionError or RadialStateError, saying what is undefined."""
    r_mag, l_mag = vals["r_mag"], vals["L_mag"]
    _require_off_origin(float(np.min(r_mag)))
    if is_circular(vals["A_mag"], kappa).any():
        raise DegenerateDirectionError(f"{what} undefined for circular orbits")
    if is_radial(l_mag, r_mag * np.sqrt(_dot(v, v))).any():
        raise RadialStateError(f"{what} undefined for radial states")
    return is_parabolic(vals["E"], l_mag, r_mag, kappa)


def _label_table(r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool) -> np.ndarray:
    """The (L, ...) table of `table_labels` at the component-major (3, ...) stacks r and v,
    which broadcast, written by `_write_labels`."""
    out = np.empty((len(table_labels(include_m)),) + np.broadcast_shapes(r.shape, v.shape)[1:])
    _write_labels(r, v, kappa, out[0], out[_L], out[_A], out[_THETA], out[_M] if include_m else None)
    return out


def scalar_values(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, np.ndarray]:
    """Each label of `table_labels` as an (N,) row of one (L, N) label table."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    return dict(zip(table_labels(include_m), _label_table(r.T, v.T, kappa, include_m)))


def gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic (grad_r, grad_v) for every scalar field, each of shape (N, 3).

    The gradients of the eight base fields {E, L_i, A_i, |L|^2} are written
    out once; the derived fields follow from them by the chain rule

        grad Theta_j = a grad A_j + b_j grad E + c_j grad |L|^2
        grad M_j     = alpha grad A_j + beta_j grad E

    (Theta = A/|A| with |A|^2 = kappa^2 + 2E|L|^2, M = A/sqrt(2|E|)), whose
    grad-E-free coefficients (a, c, alpha) are kept under "_coef" for
    `bracket_table`.  E, A and |A| are those of `values`, bit for bit, from
    `_write_labels`; the base gradients read neither A nor |A|.  All of them
    are kept as (field, component, N) stacks in the order E, L, A, |L|^2,
    Theta, M, under "_base" as their (N, field, 3) views; each label, and
    "_LSQ" for |L|^2, maps to views of them.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    rt, vt = r.T, v.T
    e, l_vec, a_vec = np.empty(len(r)), np.empty((3, len(r))), np.empty((3, len(r)))
    r_mag, v_sq, r_dot_v, a_mag = _write_labels(rt, vt, kappa, e, l_vec, a_vec, None, None)
    r_sq = r_mag**2
    k_r3 = kappa / r_mag**3
    beta = v_sq - kappa / r_mag
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
    theta_a = 1.0 / a_mag
    theta_b = -a_vec * (l_sq / a_mag**3)
    theta_c = -a_vec * (e / a_mag**3)
    for g in (g_r, g_v):
        g[8:11] = theta_a * g[4:7] + theta_b[:, None] * g[0] + theta_c[:, None] * g[7]
    alpha = None
    if include_m:
        # M is unused at exactly parabolic rows (E = 0): keep its division quiet there, as
        # `core._write_directions` does; those rows of M are inf and NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            two_abs_e = 2.0 * np.abs(e)
            alpha = 1.0 / np.sqrt(two_abs_e)
            m_beta = -a_vec * (np.sign(e) / two_abs_e**1.5)
            for g in (g_r, g_v):
                g[11:] = alpha * g[4:7] + m_beta[:, None] * g[0]

    names = SCALAR_LABELS[:7] + ("_LSQ",) + SCALAR_LABELS[7:] + (M_LABELS if include_m else ())
    out: dict = {name: (g_r[k].T, g_v[k].T) for k, name in enumerate(names)}
    out["_base"] = (g_r.transpose(2, 0, 1), g_v.transpose(2, 0, 1))
    out["_coef"] = (theta_a, theta_c.T, alpha)
    return out


def fd_gradients(
    r: np.ndarray, v: np.ndarray, kappa: float, include_m: bool = True
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Central-difference twin of `gradients`, built on `core.central_differences`.

    Its perturbed tables hold only the labels, written label-major as (L, 6, n) from
    the (3, 6, n) stacks of one batch of `FD_BATCH` states, so the differences come
    out (L, 3, n).  The (L, 3, N) stacks are under "_base" as (N, L, 3) views.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    labels = table_labels(include_m)
    g_r = np.empty((len(labels), 3, len(r)))
    g_v = np.empty_like(g_r)
    for lo in range(0, len(r), FD_BATCH):
        rb, vb = r[lo : lo + FD_BATCH].T, v[lo : lo + FD_BATCH].T
        # each set of differences is stored before the next is formed, so that one
        # perturbed table of the batch is held at a time
        g_r[:, :, lo : lo + FD_BATCH] = central_differences(lambda rs: _label_table(rs, vb[:, None], kappa, include_m), rb)
        g_v[:, :, lo : lo + FD_BATCH] = central_differences(lambda vs: _label_table(rb[:, None], vs, kappa, include_m), vb)
    grads: dict = {lab: (g_r[j].T, g_v[j].T) for j, lab in enumerate(labels)}
    grads["_base"] = (g_r.transpose(2, 0, 1), g_v.transpose(2, 0, 1))
    return grads


def frame(r: np.ndarray, v: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (3, 3, N) component-major stack basis = (r, v, eps) of (N, 3) rows,
    and its (2, 3, N) dots gram[a, b] = basis[a] . basis[b] for a in (r, v)."""
    basis = np.empty((3, 3, len(r)))
    basis[0], basis[1], basis[2] = r.T, v.T, eps.T
    return basis, _contract("acn,bcn->abn", basis[:2], basis, np.empty((2, 3, len(r))))


def _contract(spec: str, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.einsum over batches on the last axis, into out; a lone row goes as a pair, since
    einsum sums it in another order, so that every row matches its row of any batch."""
    if a.shape[-1] != 1:
        return _einsum(spec, a, b, out=out)
    out[...] = _einsum(spec, np.concatenate((a, a), -1), np.concatenate((b, b), -1))[..., :1]
    return out


def characteristics(
    family: str, r: np.ndarray, v: np.ndarray, eps: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray]:
    """Batched characteristic P = dC/dv of a generator family and its DtP.

    family is "E", "L", "A" or "Theta".  eps (N, 3) contracts the axis of the
    vector families: e_j for the component C_j, any vector for a contracted
    flow; the energy family ignores it.  With a = -kappa r/|r|^3,

        E      P = v                               DtP = a
        L      P = eps x r                         DtP = eps x v
        A      P = 2 (r.eps) v - (v.eps) r - (r.v) eps
               DtP = (v.eps) v - kappa (r.eps) r/|r|^3 - (|v|^2 - kappa/|r|) eps
        Theta  P = P[A]/|A| + (A.eps) (2E (r x L) - |L|^2 v)/|A|^3
               DtP = DtP[A]/|A| + (A.eps) (2E (v x L) - |L|^2 a)/|A|^3

    The Theta rows are the A rows at the projected axis, built from constants
    of motion, eps~ = (eps - (Theta.eps) Theta)/|A|; the |L|^2 v piece of
    P[Theta] drops out of every action on constants of motion but makes P the
    velocity gradient of Theta.  The A and Theta families are `gauge_field` at
    mu = 0, with no Theta row or with every row one.  Raises
    DegenerateDirectionError for the Theta family at a circular state.
    """
    if family == "E":
        r_sq = _dot(r, r)
        return v.copy(), -(kappa / np.sqrt(r_sq) / r_sq)[:, None] * r
    if family == "L":
        return cross(eps, r), cross(eps, v)
    basis, gram = frame(r, v, eps)
    return tuple(gauge_field(len(r) if family == "Theta" else 0, basis, gram, kappa, 0.0)[1].transpose(0, 2, 1))


class GaugeField:
    """The radius-preserving gauge of the A/Theta field on a batch whose first n_theta rows
    are Theta rows and whose other rows are A rows, bound once to a (2, 3, N) gram buffer.
    Called on a basis (3, 3, N) = (r, v, eps) whose dots the buffer holds (`gram_of`), it
    writes (dt/ds, (dr/ds, dv/ds)) into dt (N,) and d (2, 3, N):

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

    Its buffers, and every view into them, the Theta rows' included, are made when it
    is bound, so that a call makes ufunc calls into them and two einsums (the gram and
    the contraction): an RK4 batch binds one field and calls it at every stage
    (`flow.integrate_symmetry_flows`), and `gauge_field` calls one once.
    """

    def __init__(self, n_theta: int, kappa: float, gram: np.ndarray, mu=None):
        n = gram.shape[-1]
        self.mu, self.gram, self.theta = mu, gram, slice(0, n_theta)
        # its scalars as 0-d arrays, which a ufunc takes at less cost than a Python float
        self.kappa, self.one, self.circular = np.array(float(kappa)), np.array(1.0), np.array((CIRCULAR_TOL * kappa) ** 2)
        # (P, DtP) at a given mu do not read an A row's dt/ds, and at a circular state it is 0/0;
        # numpy enters an errstate once, so each such call makes its own
        self.quiet = nullcontext() if mu is None else None
        # an A row's coefficients, dr/ds in coef[0] and dv/ds in coef[1]; -A.(r, v, eps); scratch
        coef, neg_a, spare = np.empty((2, 3, n)), np.empty((3, n)), np.empty((3, n))
        k, q, q_rr, a_sq, tmp = np.empty((5, n))
        self.below = np.empty(n, dtype=bool)
        self.rows = (gram[0, 0], gram[0, 1], gram[0, 2], gram[1, 1], gram[1, 2], gram[0], gram[1])
        self.bufs = (coef, *coef[0], *coef[1], neg_a, *neg_a, spare, k, q, q_rr, a_sq, tmp)
        if n_theta:
            # the Theta rows of coef, its r and v columns, its -beta, the gram, its r.v, its r and v
            # columns swapped, k, -A.(r, v, eps), -A.eps and |A|^2; then the Theta rows' own buffers
            theta = self.theta
            coef_t, gram_t, neg_a_t = coef[:, :, theta], gram[:, :, theta], neg_a[:, theta]
            (inv_a, neg_g), w_pm, z = np.empty((2, n_theta)), np.empty((2, n_theta)), np.empty((2, 2, n_theta))
            self.theta_bufs = (
                coef_t, coef_t[:, :2], coef_t[1, 2], gram_t, gram_t[0, 1], gram_t[:, 1::-1], k[theta], neg_a_t,
                neg_a_t[2], a_sq[theta], inv_a, neg_g, w_pm, w_pm[0], w_pm[1], z, z[0, 1], z[1, 0],
                np.empty(n_theta, dtype=bool),
            )

    def gram_of(self, basis: np.ndarray) -> np.ndarray:
        """The (2, 3, N) dots of basis, as in `frame`, written into the bound gram."""
        return _contract("acn,bcn->abn", basis[:2], basis, self.gram)

    def at_apsis(self, floor_sq) -> bool:
        """Is a row of the gram at an apsis, (r.v)^2 <= floor_sq |r|^2 |v|^2?"""
        rr, rv, _, vv, *_ = self.rows
        *_, bound, _, _, square = self.bufs
        np.multiply(rr, vv, out=bound)
        np.multiply(floor_sq, bound, out=bound)
        np.multiply(rv, rv, out=square)
        return bool(np.count_nonzero(np.less_equal(square, bound, out=self.below)))

    def circular_at_apsis(self) -> bool:
        """Is a row that `at_apsis` flagged a Theta row at the circular-orbit threshold?  At a
        circular state r.v is roundoff, so the apsis test flags it first; only its error path asks."""
        rr, rv, _, vv = (x[self.theta] for x in self.rows[:4])
        k = self.kappa / np.sqrt(rr)
        a_sq = (vv - k) * ((vv - k) * rr - rv * rv) + k * rv * rv  # beta A.r - (r.v) A.v
        return bool(np.any(self.below[self.theta] & (a_sq <= self.circular)))

    def __call__(self, basis: np.ndarray, dt: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dt, d), the field's (dt/ds, (dr/ds, dv/ds)) at basis.  DegenerateDirectionError
        if a Theta row is at the circular-orbit threshold."""
        mu, theta = self.mu, self.theta
        rr, rv, re, vv, ve, gram_r, gram_v = self.rows
        coef, c_rr, c_rv, c_re, c_vr, c_vv, c_ve, neg_a, na_r, na_v, na_e, spare, k, q, q_rr, a_sq, tmp = self.bufs
        np.sqrt(rr, out=k)
        np.divide(self.kappa, k, out=k)
        np.negative(ve, out=c_rr)
        np.negative(rv, out=c_re)
        c_vv[...] = ve
        np.subtract(k, vv, out=c_ve)
        # (mu - rho)/|r|^2, mu = 0 if given
        if mu is None:
            np.divide(ve, c_re, out=q)
        else:
            np.divide(np.negative(re, out=q), rr, out=q)
        np.multiply(q, rr, out=q_rr)
        np.subtract(re, q_rr, out=c_rv)
        np.multiply(k, q, out=c_vr)
        neg_beta = c_ve
        np.multiply(neg_beta, gram_r, out=neg_a)
        neg_a += np.multiply(rv, gram_v, out=spare)
        np.multiply(neg_beta, na_r, out=a_sq)
        a_sq += np.multiply(rv, na_v, out=tmp)
        # an A row's added term, with |L|^2 = A.r + kappa |r|
        with self.quiet or np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(na_r, np.multiply(k, rr, out=dt), out=dt)
            dt *= na_e
            dt /= a_sq
        if mu is None:  # and tau = -(q |r|^2 + r.eps)
            dt -= q_rr
            dt -= re
        else:
            dt[theta] = 0.0
            dt -= mu
        if theta.stop:  # the batch has Theta rows
            coef_t, on_rv, neg_beta, gram_t, rv_t, gram_vr, k_t, neg_a_t, na_e_t, a_sq_t, *rest = self.theta_bufs
            inv_a, neg_g, w_pm, w, neg_w, z, z_rv, z_vr, below = rest
            # also catches a roundoff-negative |A|^2
            if np.count_nonzero(np.less_equal(a_sq_t, self.circular, out=below)):
                raise DegenerateDirectionError("LRL direction undefined: |A| is at the circular-orbit threshold")
            np.divide(self.one, np.sqrt(a_sq_t, out=inv_a), out=inv_a)
            if mu is None:
                dt[theta] *= inv_a
            np.multiply(na_e_t, inv_a, out=neg_g)
            neg_g /= a_sq_t
            # the g terms: w times the gram's v column added to the coefficients on r, and w
            # times its r column taken from those on v, as -w times it added
            np.multiply(neg_g, np.add(neg_beta, k_t, out=w), out=w)
            np.negative(w, out=neg_w)
            np.multiply(w_pm, gram_vr, out=z)
            if mu is not None:
                np.negative(neg_g * (2.0 * neg_a_t[0] - rv_t * rv_t), out=z_rv)
                np.multiply(neg_g, k_t / gram_t[0, 0] * neg_a_t[0] - neg_beta * neg_beta, out=z_vr)
            coef_t *= inv_a
            on_rv += z
        if mu is not None:
            c_rv -= mu
            c_vr += k / rr * mu
        return dt, _contract("pbn,bcn->pcn", coef, basis, d)


def gauge_field(n_theta: int, basis: np.ndarray, gram: np.ndarray, kappa: float, mu=None):
    """(dt/ds, (dr/ds, dv/ds)) of the radius-preserving gauge of the A/Theta field, its first
    n_theta rows Theta rows, on a `frame` (basis, gram), dt (N,) and the pair (2, 3, N): a
    `GaugeField` bound and called once.  A flow batch binds one for all its stages instead."""
    n = gram.shape[-1]
    return GaugeField(n_theta, kappa, gram, mu)(basis, np.empty(n), np.empty((2, 3, n)))


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


def _products(grads: dict[str, tuple[np.ndarray, np.ndarray]], rows: int | None = None) -> np.ndarray:
    """X[p, q] = G_r[p] . G_v[q] over the first `rows` of the stacks under "_base", as a
    (K, K, N) array written by one batched matmul: the sums of the (N, K, K) tables, which an
    einsum rounds otherwise, and the M rows amplify any change by 1/(2|E|)."""
    g_r, g_v = (g[:, :rows] for g in grads["_base"])
    return np.ascontiguousarray((g_r @ g_v.transpose(0, 2, 1)).transpose(1, 2, 0))


def bracket_table(grads: dict[str, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """(N, L, L) brackets {label_p, label_q} over `table_labels`: the view of an (L, L, N) table.

    B0 = X - X^T (`_products`) holds the brackets among the base rows.  For a table from
    `gradients` the base is {E, L_i, A_i, |L|^2}, and the table is C B0 C^T, expanded by
    slices: the rows and then the columns of Theta_j are a A_j + c_j |L|^2, those of M_j
    alpha A_j.  Their grad E pieces are omitted: their bracket with every base field is
    identically zero, so keeping them only injects |E|^-2-amplified roundoff.  For a table
    from `fd_gradients` the base is every label and the table is B0.
    """
    coef = grads.get("_coef")
    x = _products(grads, None if coef is None else 8)
    b0 = x - x.transpose(1, 0, 2)
    if coef is None:
        return b0.transpose(2, 0, 1)
    a, c, alpha = coef[0], coef[1].T, coef[2]
    n = 10 if alpha is None else 13
    table = np.empty((n, n, len(a)))

    def expand_columns(rows: np.ndarray, out: np.ndarray) -> None:
        out[:, :7] = rows[:, :7]
        np.add(a * rows[:, _A], rows[:, 7:] * c, out=out[:, _THETA])
        if alpha is not None:
            np.multiply(alpha, rows[:, _A], out=out[:, _M])

    expand_columns(b0[:7], table[:7])
    expand_columns(a * b0[_A] + c[:, None] * b0[7], table[_THETA])
    if alpha is not None:
        expand_columns(alpha * b0[_A], table[_M])
    return table.transpose(2, 0, 1)


def expected_table(vals: dict[str, np.ndarray], include_m: bool = True) -> np.ndarray:
    """(N, L, L) closed-form brackets over `table_labels` from the state's
    constants as given by `values`, the view of an (L, L, N) table: the algebra
    being verified,

        {E, anything} = 0                   {Theta_i, Theta_j} = 0
        {L_i, X_j} = eps_ijk X_k            for X in L, A, Theta, M
        {A_i, A_j} = -2E eps_ijk L_k        {M_i, M_j} = -sgn(E) eps_ijk L_k
        {A_i, M_j} = -sgn(E) sqrt(2|E|) eps_ijk L_k
        {A_i, Theta_j} = 2E/|A| ((Theta x L)_i Theta_j - eps_ijk L_k)
        {M_i, Theta_j} = {A_i, Theta_j}/sqrt(2|E|),

    each block below the diagonal being minus the transpose of its mirror.  Each eps_ijk X_k
    block is one (9, 3) @ (3, N) product.
    """
    e, theta, keys = vals["E"], vals["Theta"].T, ("L", "A", "Theta", "M")[: 4 if include_m else 3]
    eps_l, eps_a, eps_t, *eps_m = ((_EPS.reshape(9, 3) @ vals[key].T).reshape(3, 3, -1) for key in keys)
    theta_x_l = np.empty_like(theta)
    _cross_components(theta, vals["L"].T, theta_x_l)
    a_theta = (2.0 * e / vals["A_mag"]) * (theta_x_l[:, None] * theta - eps_l)
    blocks = [
        (_L, _L, eps_l), (_L, _A, eps_a), (_L, _THETA, eps_t),
        (_A, _A, -2.0 * e * eps_l), (_A, _THETA, a_theta),
    ]
    if include_m:
        sgn, scale = np.sign(e), np.sqrt(2.0 * np.abs(e))
        blocks += [
            (_L, _M, eps_m[0]), (_M, _M, -sgn * eps_l),
            (_A, _M, -sgn * scale * eps_l), (_M, _THETA, a_theta / scale),
        ]
    n = len(table_labels(include_m))
    table = np.zeros((n, n, len(e)))
    for rows, cols, block in blocks:
        table[rows, cols] = block
        table[cols, rows] = -block.transpose(1, 0, 2)
    return table.transpose(2, 0, 1)


def bracket(grads: dict[str, tuple[np.ndarray, np.ndarray]], left: str, right: str) -> np.ndarray:
    """{left, right} = dF/dr . dG/dv - dG/dr . dF/dv: one entry of `bracket_table`."""
    labels = table_labels("M1" in grads)
    return bracket_table(grads)[:, labels.index(left), labels.index(right)]


def expected_bracket(left: str, right: str, vals: dict[str, np.ndarray]) -> np.ndarray:
    """Closed-form value of {left, right}: one entry of `expected_table`."""
    include_m = left[0] == "M" or right[0] == "M"
    labels = table_labels(include_m)
    return expected_table(vals, include_m)[:, labels.index(left), labels.index(right)]
