"""Two-stage eigenvalue reduction for the coupling family E(eps) = E0 + kappa E1.

E0 is unitary, hence semi-simple, so the classical reduction machinery
applies at every eigenvalue mu: with P the spectral projector, S_mu the
reduced resolvent sum_{zeta != mu} (zeta - mu)^{-1} P_zeta, and X = E1,

  stage 1:  A1 = P X P  restricted to Ran(P)      -> eigenvalues mu1,
  stage 2:  A2 = -P1 X S_mu X P1  on Ran(P1)      -> eigenvalues mu2,

giving the branch expansion mu(kappa) = mu + kappa mu1 + kappa^2 mu2 + o(kappa^2).
The total projection of the perturbed group expands as
P(kappa) = P + kappa P^(1) + kappa^2 P^(2) + kappa^3 P^(3) + o(kappa^3); the
coefficients are produced by full slot enumeration (the compact textbook
displays drop symmetric terms that matter beyond second order):

  P^(k) = (-1)^(k+1) * sum over (e_0..e_k), e_i >= -1, sum e_i = -1 of
          F(e_0) X F(e_1) X ... X F(e_k),   F(-1) = -P, F(n>=0) = S_mu^(n+1).

The graph-side expressions of the first/second order matrices (boundary
Gram matrices of T-eigenvectors) live here as well, cross-validated against
the arc-space operators they are claimed to represent.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .coin_evolution import kappa
from .internal_spectral import (
    InternalMatrix,
    SpectralData,
    _schur_projection,
    spectral_decompose,
)
from .scattering import SigmaEvaluator
from .smt_laplacian import (
    LaplacianT,
    build_operators,
    joukowsky,
    lift,
    persistent_basis,
    t_eigenbasis_split,
)
from .tailed_graph import TailedGraph

__all__ = [
    "GroupEscapedContour",
    "Stage1NotSemisimple",
    "AssumptionViolated",
    "Branch",
    "ReductionLedger",
    "FirstSecondOrderMatrices",
    "AssumptionReport",
    "ResonantLimitRecord",
    "assumption_report",
    "total_projection",
    "projection_expansion",
    "reduce_eigenvalue",
    "build_M1",
    "build_M2",
    "mu2_bound_check",
    "puiseux_prediction",
    "resonance_asymptote",
    "resonant_sigma_limit",
    "fit_loglog_slope",
]


class GroupEscapedContour(RuntimeError):
    """The perturbed eigenvalue group cannot be isolated by any admissible contour."""


class Stage1NotSemisimple(RuntimeError):
    """First-stage reduced operator has a nontrivial nilpotent part."""


class AssumptionViolated(RuntimeError):
    """A hypothesis needed for the resonant-limit formula failed numerically."""


def _onb_of_projection(P: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a (numerical) projection matrix."""
    U, s, _ = np.linalg.svd(P)
    rank = int(np.sum(s > 0.5))
    return U[:, :rank]


def _reduced_resolvent(sd0: SpectralData, mu: complex) -> np.ndarray:
    S = np.zeros_like(sd0.matrix)
    for c in sd0.clusters:
        if abs(c.value - mu) < 1e-9:
            continue
        S = S + c.projection / (c.value - mu)
    return S


def total_projection(
    im: InternalMatrix,
    eps: float,
    mu0: complex,
    sd0: SpectralData | None = None,
    return_members: bool = False,
):
    """Total projection of the eps-group of eigenvalues continuing mu0.

    The group is delimited by an adaptive circle around mu0: starting from
    half the distance to the nearest other unperturbed cluster, the radius
    is shrunk until no eigenvalue of E(eps) falls in the guard annulus
    [0.8 r, 1.25 r].  If no radius isolates a group of the unperturbed
    multiplicity, the group has escaped (eps too large for perturbative
    tracking) and :class:`GroupEscapedContour` is raised.
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    base = sd0.cluster_near(mu0)
    r0 = _group_radius(sd0, mu0)
    E_eps = im.at(eps).E
    vals = np.linalg.eigvals(E_eps)
    for shrink in (1.0, 0.75, 0.5, 0.35, 0.25):
        r = r0 * shrink
        dist = np.abs(vals - base.value)
        inside = dist < 0.8 * r
        guard = (dist >= 0.8 * r) & (dist <= 1.25 * r)
        if not np.any(guard) and int(np.sum(inside)) == base.mult:
            members = vals[inside]
            others_v = vals[~inside]
            P = _schur_projection(E_eps, members, others_v)
            if return_members:
                return P, members
            return P
    raise GroupEscapedContour(
        f"no contour around {mu0:.4f} isolates a group of multiplicity "
        f"{base.mult} at eps={eps}"
    )


def projection_expansion(
    im: InternalMatrix,
    mu0: complex,
    order: int = 3,
    sd0: SpectralData | None = None,
) -> list[np.ndarray]:
    """Taylor coefficients [P, P^(1), .., P^(order)] of the total projection.

    Full slot enumeration over resolvent exponents; exact for semi-simple
    unperturbed eigenvalues (our E0 is unitary).
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    P = sd0.cluster_near(mu0).projection
    S = _reduced_resolvent(sd0, sd0.cluster_near(mu0).value)
    X = im.E1
    n = P.shape[0]
    Spow = {0: np.eye(n, dtype=complex)}
    for p in range(1, order + 1):
        Spow[p] = Spow[p - 1] @ S

    def F(e: int) -> np.ndarray:
        # slots run over e <= order - 1, so Spow[e + 1] always exists
        return -P if e == -1 else Spow[e + 1]

    coeffs = [P]
    for k in range(1, order + 1):
        acc = np.zeros((n, n), dtype=complex)
        for slots in itertools.product(range(-1, k), repeat=k + 1):
            if sum(slots) != -1:
                continue
            term = F(slots[0])
            for e in slots[1:]:
                term = term @ X @ F(e)
            acc = acc + term
        coeffs.append((-1.0) ** (k + 1) * acc)
    return coeffs


@dataclass
class Branch:
    mu1: complex
    mu2: complex
    multiplicity: int
    persistent: bool
    P2: np.ndarray
    eta1: float | None = None
    hosts_resonance: bool | None = None


@dataclass
class ReductionLedger:
    mu: complex
    m: int
    gamma: float
    branches: list[Branch]
    P: np.ndarray
    stage1_values: list[complex]

    def to_json_dict(self) -> dict:
        return {
            "mu": [self.mu.real, self.mu.imag],
            "m": self.m,
            "branches": [
                {
                    "mu1": [b.mu1.real, b.mu1.imag],
                    "mu2": [b.mu2.real, b.mu2.imag],
                    "multiplicity": b.multiplicity,
                    "persistent": b.persistent,
                }
                for b in self.branches
            ],
        }


def _gamma_scalar(mu: complex) -> float:
    """gamma in A1 = gamma mu M1: 1 at mu = +-1, 1/2 at every other mu."""
    return 1.0 if min(abs(mu - 1.0), abs(mu + 1.0)) < 1e-9 else 0.5


def reduce_eigenvalue(
    im: InternalMatrix,
    mu0: complex,
    sd0: SpectralData | None = None,
    stage_tol: float = 1e-8,
    semisimple_tol: float = 1e-7,
) -> ReductionLedger:
    """Two-stage reduction at the unperturbed eigenvalue mu0.

    Branches are labelled by (mu1, mu2); each carries the full-space
    projection P2 onto its second-stage eigenspace and its multiplicity.
    Persistence is decided by range containment in the persistent subspace
    of mu0 (lifted boundary-vanishing states plus birth states).
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    cl = sd0.cluster_near(mu0)
    mu = cl.value
    P = cl.projection
    Q = _onb_of_projection(P)
    X = im.E1
    A1 = Q.conj().T @ X @ Q
    # floor the scale: a purely persistent group has A1 = 0 to rounding, and
    # its ~1e-32 nilpotent noise must not read as a genuine Jordan block
    scale1 = max(float(np.linalg.norm(A1)), 1e-12)
    sd1 = spectral_decompose(A1, cluster_tol=stage_tol)
    for c1 in sd1.clusters:
        if c1.nilpotent_norm > semisimple_tol * scale1:
            raise Stage1NotSemisimple(
                f"stage-1 nilpotent norm {c1.nilpotent_norm:.2e} at mu={mu:.4f}, "
                f"mu1={c1.value:.4e}"
            )

    Sred = _reduced_resolvent(sd0, mu)
    per = persistent_basis(im.tg, mu)
    gamma = _gamma_scalar(mu)

    branches: list[Branch] = []
    stage1_values: list[complex] = []
    for c1 in sd1.clusters:
        mu1 = c1.value
        stage1_values.append(mu1)
        P1_full = Q @ c1.projection @ Q.conj().T
        Q1 = _onb_of_projection(P1_full)
        E2 = -(Q1.conj().T @ X @ Sred @ X @ Q1)
        sd2 = spectral_decompose(E2, cluster_tol=stage_tol)
        for c2 in sd2.clusters:
            P2_full = Q1 @ c2.projection @ Q1.conj().T
            if per.shape[1]:
                leak = float(
                    np.linalg.norm(P2_full - per @ (per.conj().T @ P2_full))
                ) / max(float(np.linalg.norm(P2_full)), 1e-30)
                is_per = leak < 1e-6
            else:
                is_per = False
            eta1 = None
            if abs(mu1) > 1e-12:
                e = mu1 / (gamma * mu)
                if abs(e.imag) < 1e-7 * max(1.0, abs(e.real)):
                    eta1 = float(e.real)
            branches.append(
                Branch(
                    mu1=mu1,
                    mu2=c2.value,
                    multiplicity=c2.mult,
                    persistent=is_per,
                    P2=P2_full,
                    eta1=eta1,
                )
            )
    return ReductionLedger(
        mu=mu, m=cl.mult, gamma=gamma, branches=branches, P=P,
        stage1_values=stage1_values,
    )


@dataclass
class FirstSecondOrderMatrices:
    """Graph-side first/second-order matrices at one unperturbed eigenvalue.

    M1[j,k] = -<D g_j, g_k>_W on the W-orthonormal basis {g_j} of
    Ker(T - phi(mu)) complementary to the boundary-vanishing part; its
    eigenvalues eta are real, negative, and >= -1/min n(v).  The lifted
    basis realises Ran(P_mu | lifted, non-persistent) in arc space, and the
    matrix of P X P there equals A1 = gamma mu M1 with gamma from
    :func:`_gamma_scalar`, so each stage-one eigenvalue is mu1 = gamma mu eta.
    """

    mu: complex
    gamma: float
    M1: np.ndarray
    eta1: np.ndarray
    lifted_basis: np.ndarray
    direct_matrix: np.ndarray
    direct_residual: float


def _boundary_gram(lt: LaplacianT, G_row: np.ndarray, G_col: np.ndarray) -> np.ndarray:
    """-<D g_col_j, g_row_k>_W as a matrix (rows k, cols j)."""
    wD = lt.weights * np.diag(lt.Dw)
    return -(G_row.conj().T * wD[None, :]) @ G_col


def _lifted_eigendata(lt: LaplacianT, t: float) -> np.ndarray:
    """Non-persistent T-eigenbasis at t, empty when the eigenvalue at
    phi^{-1}(t) has no lifted part (birth-only, e.g. -1 on a non-bipartite
    graph) — then every Gram matrix built from it is a 0-column factor and
    the product identities degenerate to 0 = 0 instead of failing."""
    try:
        _, G = t_eigenbasis_split(lt, t)
    except KeyError:
        G = np.zeros((lt.T.shape[0], 0))
    return G


def build_M1(tg: TailedGraph, mu0: complex, im: InternalMatrix | None = None) -> FirstSecondOrderMatrices:
    lt = build_operators(tg)
    mu = complex(mu0)
    t = joukowsky(mu).real
    G = _lifted_eigendata(lt, t)
    M1 = _boundary_gram(lt, G, G)
    M1 = (M1 + M1.conj().T) / 2.0
    U = np.stack([lift(lt, mu, G[:, j]) for j in range(G.shape[1])], axis=1) \
        if G.shape[1] else np.zeros((tg.num_arcs, 0), dtype=complex)
    gamma = _gamma_scalar(mu)
    if im is None:
        from .internal_spectral import build_E

        im = build_E(tg, 0.0)
    if U.shape[1]:
        direct = U.conj().T @ im.E1 @ U
        resid = float(np.linalg.norm(direct - gamma * mu * M1))
    else:
        direct = np.zeros((0, 0), dtype=complex)
        resid = 0.0
    eta = np.linalg.eigvalsh(M1) if M1.size else np.zeros(0)
    return FirstSecondOrderMatrices(
        mu=mu, gamma=gamma, M1=M1, eta1=eta, lifted_basis=U,
        direct_matrix=direct, direct_residual=resid,
    )


def build_M2(tg: TailedGraph, mu0: complex, zeta: complex) -> np.ndarray:
    """Second-order boundary Gram matrix between the mu and zeta eigendata.

    Shape (s(zeta), s(mu)); adjoint symmetry build_M2(mu, zeta) =
    build_M2(zeta, mu)^* holds by construction of the weighted Gram form.
    """
    lt = build_operators(tg)
    Gm = _lifted_eigendata(lt, joukowsky(complex(mu0)).real)
    Gz = _lifted_eigendata(lt, joukowsky(complex(zeta)).real)
    return _boundary_gram(lt, Gz, Gm)


def _omega(z: complex) -> float:
    if abs(z - 1.0) < 1e-9:
        return -1.0
    if abs(z + 1.0) < 1e-9:
        return 1.0
    return float(np.sign(np.sin(np.angle(z)))) / np.sqrt(2.0)


def mu2_bound_check(
    im: InternalMatrix,
    mu0: complex,
    ledger: ReductionLedger | None = None,
    sd0: SpectralData | None = None,
) -> dict:
    """Second-order magnitude bound plus the graph-side cross validation.

    Checks |mu2| <= gap^{-1} (#sigma_p - 1) (min_boundary n)^{-2} for every
    branch, and validates, for every other eigenvalue zeta, the product
    identity  [P X P_zeta X P]_lifted = mu zeta w_mu^2 w_zeta^2 M2* M2,
    which ties the arc-space operators to the boundary Gram matrices.
    """
    tg = im.tg
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    ledger = ledger if ledger is not None else reduce_eigenvalue(im, mu0, sd0)
    mu = ledger.mu
    others = [c for c in sd0.clusters if abs(c.value - mu) > 1e-9]
    gap = min(abs(c.value - mu) for c in others)
    bd = list(tg.boundary_vertices)
    minn = min(int(tg.total_deg[v]) for v in bd)
    bound = (1.0 / gap) * (len(sd0.clusters) - 1) * minn ** (-2)
    max_mu2 = max(abs(b.mu2) for b in ledger.branches)

    fo = build_M1(tg, mu, im)
    U = fo.lifted_basis
    X = im.E1
    cross = {}
    for c in others:
        zeta = c.value
        arc_side = U.conj().T @ X @ c.projection @ X @ U if U.shape[1] else np.zeros((0, 0))
        M2 = build_M2(tg, mu, zeta)
        graph_side = mu * zeta * _omega(mu) ** 2 * _omega(zeta) ** 2 * (M2.conj().T @ M2)
        resid = float(np.linalg.norm(arc_side - graph_side))
        norm_ok = float(np.linalg.norm(M2.conj().T @ M2, 2)) <= minn ** (-2) + 1e-12
        cross[complex(zeta)] = {"residual": resid, "norm_bound_ok": norm_ok}
    return {
        "bound": bound,
        "max_mu2": max_mu2,
        "bound_ok": bool(max_mu2 <= bound + 1e-12),
        "cross_checks": cross,
        "max_cross_residual": max(v["residual"] for v in cross.values()) if cross else 0.0,
    }


def puiseux_prediction(
    mu: complex, gamma: float, eta1: float, mu2: complex, eps: float
) -> complex:
    """Second-order eigenvalue asymptotics in the physical parameter eps.

    mu_eps = mu e^{-i pi gamma eta1 eps}
             + (pi^2 eps^2 / 2)(mu (gamma eta1)^2 + gamma mu eta1 - 2 mu2) + o(eps^2).
    """
    ge = gamma * eta1
    return mu * np.exp(-1j * np.pi * ge * eps) + (np.pi**2 * eps**2 / 2.0) * (
        mu * ge**2 + gamma * mu * eta1 - 2.0 * mu2
    )


def fit_loglog_slope(eps_values, residuals) -> float:
    """Least-squares slope of log residual against log eps."""
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    A = np.vstack([x, np.ones_like(x)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def _group_radius(sd0: SpectralData, mu: complex) -> float:
    base = sd0.cluster_near(mu)
    others = [c.value for c in sd0.clusters if c is not base]
    return 0.5 * min(abs(z - base.value) for z in others) if others else 0.5


def resonance_asymptote(
    im: InternalMatrix,
    ledger: ReductionLedger,
    eps_values,
    sd0: SpectralData | None = None,
) -> dict:
    """Predicted vs. true eigenvalue motion for every branch of one group.

    True eigenvalues of E(eps) inside the group disk are matched to
    branches by nearest distance *after subtracting the first-order term*
    (branch capacity = multiplicity), which disambiguates branches that
    only separate at second order.  Returns CSV-ready rows plus per-branch
    residual ladders for slope fitting.
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    mu = ledger.mu
    radius = _group_radius(sd0, mu)
    rows = []
    per_branch = {
        i: {"eps": [], "first_resid": [], "second_resid": [], "puiseux_resid": []}
        for i in range(len(ledger.branches))
    }
    for eps in eps_values:
        k = kappa(eps)
        vals = np.linalg.eigvals(im.at(eps).E)
        group = vals[np.abs(vals - mu) < radius]
        # nearest-neighbour matching on the first-order-corrected residual
        pairs = []
        for zi, z in enumerate(group):
            for bi, b in enumerate(ledger.branches):
                pairs.append((abs(z - (mu + k * b.mu1)), zi, bi))
        pairs.sort(key=lambda p: p[0])
        cap = {bi: b.multiplicity for bi, b in enumerate(ledger.branches)}
        assigned: dict[int, int] = {}
        for _, zi, bi in pairs:
            if zi in assigned or cap[bi] == 0:
                continue
            assigned[zi] = bi
            cap[bi] -= 1
        for zi, z in enumerate(group):
            bi = assigned[zi]
            b = ledger.branches[bi]
            pred = mu + k * b.mu1 + k**2 * b.mu2
            rows.append(
                {
                    "epsilon": float(eps),
                    "re_true": z.real,
                    "im_true": z.imag,
                    "re_pred": pred.real,
                    "im_pred": pred.imag,
                    "abs_err": abs(z - pred),
                }
            )
            rec = per_branch[bi]
            if rec["eps"] and rec["eps"][-1] == float(eps):
                # keep the worst representative per eps for multiplicity > 1
                rec["first_resid"][-1] = max(rec["first_resid"][-1], abs(z - (mu + k * b.mu1)))
                rec["second_resid"][-1] = max(rec["second_resid"][-1], abs(z - pred))
                if b.eta1 is not None:
                    pp = puiseux_prediction(mu, ledger.gamma, b.eta1, b.mu2, eps)
                    rec["puiseux_resid"][-1] = max(rec["puiseux_resid"][-1], abs(z - pp))
            else:
                rec["eps"].append(float(eps))
                rec["first_resid"].append(abs(z - (mu + k * b.mu1)))
                rec["second_resid"].append(abs(z - pred))
                if b.eta1 is not None:
                    pp = puiseux_prediction(mu, ledger.gamma, b.eta1, b.mu2, eps)
                    rec["puiseux_resid"].append(abs(z - pp))
                else:
                    rec["puiseux_resid"].append(abs(z - pred))
    return {"rows": rows, "per_branch": per_branch}


@dataclass
class AssumptionReport:
    """Numerical verdicts for the hypotheses behind the resonant limit.

    a1: perturbed group eigenspaces line up with the stage-2 projections
        (subspace angle at the smallest eps below 0.2 rad).
    a2: stage-2 projections resolve the unperturbed eigenspace.
    a3: the global smallness inequality (reported, not gated on: it fails
        on all small desk fixtures while the limit formula still holds).
    x_nonzero / mu1_nonzero: non-degeneracy of the branch data.
    """

    a1: bool
    a2: bool
    a3: bool
    x_nonzero: bool
    mu1_nonzero: bool
    details: dict = field(default_factory=dict)

    @property
    def gate(self) -> bool:
        return self.a1 and self.a2 and self.x_nonzero and self.mu1_nonzero

    def require(self) -> None:
        if not self.gate:
            raise AssumptionViolated(f"resonant-limit hypotheses failed: {self.details}")


@dataclass
class ResonantLimitRecord:
    mu: complex
    mu1: complex
    gamma: float
    eta1: float
    lam_eps: list[float]
    norms: list[float]
    sigma01: np.ndarray
    verdicts: AssumptionReport
    caveat: bool


def _family(ledger: ReductionLedger, mu1: complex) -> tuple[list[Branch], float, float, complex]:
    fam = [b for b in ledger.branches if abs(b.mu1 - mu1) < 1e-8]
    if not fam:
        raise ValueError(f"no branch with mu1 = {mu1} at mu = {ledger.mu}")
    eta1 = fam[0].eta1 if fam[0].eta1 is not None else 0.0
    ge = ledger.gamma * eta1
    Xs = ledger.mu * ge * (ge + 1.0)
    for b in fam:
        radial = (ge**2 + ge - 2.0 * (b.mu2 / ledger.mu)).real
        b.hosts_resonance = bool(radial < -1e-12 and not b.persistent)
    return fam, eta1, ge, Xs


def assumption_report(
    im: InternalMatrix,
    ledger: ReductionLedger,
    mu1: complex,
    eps_min: float,
    sd0: SpectralData | None = None,
) -> AssumptionReport:
    """Numerically evaluate the resonant-limit hypotheses for one (mu, mu1) family.

    a1 compares, at the probe value eps_min, the actual perturbed eigenvectors
    of each hosting branch against the range of its stage-2 projection; a2
    checks the stage-2 projections resolve the whole unperturbed eigenspace;
    a3 evaluates the global smallness inequality with the best constant the
    first-order matrix provides (reported, not gated on).
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    mu = ledger.mu
    fam, _eta1, _ge, Xs = _family(ledger, mu1)
    hosts = [b for b in fam if b.hosts_resonance]
    details: dict = {}

    x_ok = abs(Xs) > 1e-12
    for b in hosts:
        if abs(Xs - 2.0 * b.mu2) < 1e-10 * max(abs(Xs), abs(b.mu2), 1e-30):
            x_ok = False
    details["x_scalar"] = complex(Xs)

    Psum = sum((b.P2 for b in ledger.branches), np.zeros_like(ledger.P))
    a2_resid = float(np.linalg.norm(Psum - ledger.P)) / max(1.0, float(np.linalg.norm(ledger.P)))
    a2 = a2_resid < 1e-8
    details["a2_residual"] = a2_resid

    k = kappa(eps_min)
    w, V = np.linalg.eig(im.at(eps_min).E)
    a1 = True
    angles = []
    for b in hosts:
        pred = mu + k * b.mu1 + k**2 * b.mu2
        idx = np.argsort(np.abs(w - pred))[: b.multiplicity]
        Vb = np.linalg.qr(V[:, idx])[0]
        P2o = _onb_of_projection(b.P2)
        sines = np.linalg.svd(Vb - P2o @ (P2o.conj().T @ Vb), compute_uv=False)
        ang = float(np.max(sines)) if sines.size else 0.0
        angles.append(ang)
        if ang > 0.2 or P2o.shape[1] != b.multiplicity:
            a1 = False
    details["a1_max_sine"] = max(angles) if angles else 0.0

    bd = list(im.tg.boundary_vertices)
    nu_minus = min(int(im.tg.total_deg[v]) for v in bd)
    nu_plus = max(int(im.tg.total_deg[v]) for v in bd)
    others = [c.value for c in sd0.clusters if abs(c.value - mu) > 1e-9]
    gap = min(abs(z - mu) for z in others)
    fo = build_M1(im.tg, mu, im)
    lam_min = float(np.min(-fo.eta1)) if fo.eta1.size else 0.0
    c_surrogate = 1.0 / (nu_plus * lam_min) if lam_min > 0 else np.inf
    lhs = 2.0 * (1.0 / gap) * (len(sd0.clusters) - 1) * nu_minus ** (-2)
    rhs = (1.0 / (2.0 * c_surrogate)) * (1.0 / nu_plus) * (1.0 - 1.0 / nu_minus) \
        if np.isfinite(c_surrogate) else 0.0
    a3 = bool(nu_minus >= 3 and lhs < rhs)
    details.update({"a3_lhs": lhs, "a3_rhs": rhs, "a3_nu": (nu_minus, nu_plus),
                    "a3_c_surrogate": c_surrogate})

    return AssumptionReport(
        a1=a1, a2=a2, a3=a3, x_nonzero=x_ok,
        mu1_nonzero=abs(mu1) > 1e-9, details=details,
    )


def resonant_sigma_limit(
    im: InternalMatrix,
    ledger: ReductionLedger,
    mu1: complex,
    evaluators: Mapping[float, SigmaEvaluator],
    sd0: SpectralData | None = None,
) -> ResonantLimitRecord:
    """Limit form of the scattering matrix along the resonant frequency path.

    At lam(eps) with e^{-i lam} = mu e^{-i pi gamma eta1 eps}, the
    scattering matrix converges to I + Sigma01 where Sigma01 sums, over the
    resonance-hosting second-stage branches of the (mu, mu1) family,

        [2 / (Xs - 2 mu2)] * B_out1 P2 B_in1,   Xs = mu ge (ge + 1),

    with ge = gamma eta1.  The coefficient is the scalar limit of
    kappa^2 / (z_eps - nu(kappa)): along the path, z_eps - nu(kappa) =
    kappa^2 (Xs/2 - mu2) + o(kappa^2), one simple pole per semi-simple
    branch — a degenerate branch enters through the rank of P2 only, not
    through any power of rho = -2 mu2/(Xs - 2 mu2) (writing the coefficient
    as 2(1 - rho)/Xs is the same thing; geometric rho-series factors are
    not, and fail numerically for rank-2 branches).

    Branches host resonances when the predicted second-order radial motion
    points inward and the branch is not persistent.  Computation always
    completes; hypothesis failures only set ``caveat`` (and the verdicts
    carry details), so callers can decide what to gate.

    ``evaluators`` maps each eps of the ladder, in ladder order, to
    ``SigmaEvaluator(im.at(eps))``; callers running several families on one
    ladder share it, so each E(eps) is decomposed once, not once per family.
    """
    sd0 = sd0 if sd0 is not None else spectral_decompose(im.E0)
    mu = ledger.mu
    fam, eta1, ge, Xs = _family(ledger, mu1)
    verdicts = assumption_report(im, ledger, mu1, float(min(evaluators)), sd0)

    N = im.tg.num_ports
    sigma01 = np.zeros((N, N), dtype=complex)
    for b in fam:
        if not b.hosts_resonance:
            continue
        denom = Xs - 2.0 * b.mu2
        if abs(denom) < 1e-10 * max(abs(Xs), abs(b.mu2), 1e-30):
            continue
        sigma01 = sigma01 + (2.0 / denom) * (im.B_out1 @ b.P2 @ im.B_in1)

    lam_list = []
    norms = []
    for eps, ev in evaluators.items():
        lam = float(-np.angle(mu) + np.pi * ge * eps)
        s = ev.sigma(lam)
        lam_list.append(lam)
        norms.append(float(np.linalg.norm(s - np.eye(N) - sigma01, 2)))
    return ResonantLimitRecord(
        mu=mu, mu1=complex(mu1), gamma=ledger.gamma, eta1=float(eta1),
        lam_eps=lam_list, norms=norms, sigma01=sigma01,
        verdicts=verdicts, caveat=not verdicts.gate,
    )
