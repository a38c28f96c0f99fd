"""The boundary matrix E and its spectral decomposition.

E is the compression of the one-step walk to the internal arcs.  Together
with the port coupling blocks it determines everything downstream:

    full step on (internal arcs + ports):   [ E     B_in ]
                                            [ B_out B_bb ]

where B_in maps incoming port amplitudes to internal arcs, B_out reads the
first outgoing tail arc, and B_bb is the direct port-to-port block.  E is a
compression of a unitary, so spec(E) lives in the closed unit disk; the
eigenvalues strictly inside are the resonances.

Spectral projections use the dense eigendecomposition only to *locate*
clusters.  The projectors come from one complex Schur form of E per
decomposition: for each cluster LAPACK ``ztrsen`` reorders it so the
cluster leads, and ``ztrsyl`` solves the triangular Sylvester equation
that splits it off.  This is well-conditioned even for defective clusters.
A contour-integral projector is provided as an independent test oracle and
is not used in any production path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsen, ztrsyl

from .coin_evolution import CoinFamily, WalkOperator, kappa
from .tailed_graph import TailedGraph

__all__ = [
    "ClusterAmbiguity",
    "NotAResonance",
    "InternalMatrix",
    "SpectralCluster",
    "SpectralData",
    "build_E",
    "build_E_split",
    "spectral_decompose",
    "projection_contour_oracle",
    "resonances",
    "verify_outgoing",
]


class ClusterAmbiguity(RuntimeError):
    """Eigenvalue clusters too close to separate at the requested tolerance."""


class NotAResonance(ValueError):
    """Requested an outgoing extension for an eigenvalue on the unit circle."""


@dataclass
class InternalMatrix:
    """Boundary matrix and port blocks at one coupling value, plus the exact
    kappa-linear splitting  X(eps) = X0 + kappa(eps) * X1  of every block.

    B_in and B_out vanish at eps = 0 (their zeroth-order parts are zero) and
    B_bb0 = I: at zero coupling each port reflects into itself and the
    interior decouples.
    """

    tg: TailedGraph
    eps: float
    E: np.ndarray
    B_in: np.ndarray
    B_out: np.ndarray
    B_bb: np.ndarray
    E0: np.ndarray
    E1: np.ndarray
    B_in1: np.ndarray
    B_out1: np.ndarray
    B_bb1: np.ndarray

    def at(self, eps: float) -> "InternalMatrix":
        """Same graph, different coupling (cheap: blocks are kappa-linear)."""
        k = kappa(eps)
        N = self.tg.num_ports
        return InternalMatrix(
            tg=self.tg,
            eps=float(eps),
            E=self.E0 + k * self.E1,
            B_in=k * self.B_in1,
            B_out=k * self.B_out1,
            B_bb=np.eye(N, dtype=complex) + k * self.B_bb1,
            E0=self.E0,
            E1=self.E1,
            B_in1=self.B_in1,
            B_out1=self.B_out1,
            B_bb1=self.B_bb1,
        )


def build_E(tg: TailedGraph, eps: float = 0.0) -> InternalMatrix:
    """Assemble E and the port blocks from the per-vertex coins."""
    M = tg.num_arcs
    N = tg.num_ports
    coins = CoinFamily(tg)

    E0 = np.zeros((M, M), dtype=complex)
    E1 = np.zeros((M, M), dtype=complex)
    B_in1 = np.zeros((M, N), dtype=complex)
    B_out1 = np.zeros((N, M), dtype=complex)
    B_bb1 = np.zeros((N, N), dtype=complex)

    for v in range(tg.graph.num_vertices):
        ins = tg.arcs_into(v)
        pids = tg.ports_at(v)
        n_i = len(ins)
        c0 = coins.coin0(v)
        c1 = coins.coin1(v)
        rows_int = [int(tg.reversal[a]) for a in ins]
        for r, row_arc in enumerate(rows_int):
            for s, col_arc in enumerate(ins):
                E0[row_arc, col_arc] = c0[r, s]
                E1[row_arc, col_arc] = c1[r, s]
            for s, pj in enumerate(pids):
                B_in1[row_arc, pj] = c1[r, n_i + s]
        for r, pi in enumerate(pids):
            for s, col_arc in enumerate(ins):
                B_out1[pi, col_arc] = c1[n_i + r, s]
            for s, pj in enumerate(pids):
                B_bb1[pi, pj] = c1[n_i + r, n_i + s]

    k = kappa(eps)
    return InternalMatrix(
        tg=tg,
        eps=float(eps),
        E=E0 + k * E1,
        B_in=k * B_in1,
        B_out=k * B_out1,
        B_bb=np.eye(N, dtype=complex) + k * B_bb1,
        E0=E0,
        E1=E1,
        B_in1=B_in1,
        B_out1=B_out1,
        B_bb1=B_bb1,
    )


def build_E_split(tg: TailedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Independent assembly of (E0, E1) through the vertex operators.

    E0 = S (2 d* d - I) and E1 = -S d* D d, where d averages arc amplitudes
    into their terminal vertex with weight 1/n_i, d* copies a vertex value
    onto its incoming arcs, S is the arc reversal, and D is the diagonal
    boundary weight N_j(v) / n(v).  Cross-checked against :func:`build_E`
    in the test suite; the two routes share no code.
    """
    M = tg.num_arcs
    nv = tg.graph.num_vertices
    d = np.zeros((nv, M))
    dstar = np.zeros((M, nv))
    for i, (_, t) in enumerate(tg.arcs):
        d[t, i] = 1.0 / tg.deg_int[t]
        dstar[i, t] = 1.0
    S = np.zeros((M, M))
    S[np.arange(M), tg.reversal] = 1.0
    Dw = np.diag(tg.tails_at / tg.total_deg)
    E0 = S @ (2.0 * dstar @ d - np.eye(M))
    E1 = -S @ dstar @ Dw @ d
    return E0.astype(complex), E1.astype(complex)


@dataclass
class SpectralCluster:
    value: complex
    mult: int
    projection: np.ndarray
    nilpotent: np.ndarray
    nilpotent_norm: float
    on_circle: bool
    members: np.ndarray


@dataclass
class SpectralData:
    matrix: np.ndarray
    clusters: list[SpectralCluster]
    reconstruction_residual: float
    cluster_tol: float
    circle_tol: float

    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.clusters])

    def cluster_near(self, z: complex, tol: float | None = None) -> SpectralCluster:
        dists = [abs(c.value - z) for c in self.clusters]
        i = int(np.argmin(dists))
        if tol is not None and dists[i] > tol:
            raise KeyError(f"no cluster within {tol} of {z}")
        return self.clusters[i]


def _greedy_clusters(vals: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group eigenvalues by transitive tol-closeness (connected components)."""
    close = np.abs(vals[:, None] - vals[None, :]) < tol
    np.fill_diagonal(close, True)  # each eigenvalue joins its own group, even at tol = NaN
    label = np.arange(len(vals))
    while True:  # spread each component's smallest index through it
        nxt = np.where(close, label, len(vals)).min(axis=1)
        if np.array_equal(nxt, label):
            break
        label = nxt
    out = [np.flatnonzero(label == g) for g in np.unique(label)]
    # deterministic order: by (real, imag) of the group mean
    out.sort(key=lambda ix: (np.mean(vals[ix]).real, np.mean(vals[ix]).imag))
    return out


def _schur_projection(
    E: np.ndarray,
    members: np.ndarray,
    others: np.ndarray,
    schur: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Spectral projector for the cluster from one complex Schur form of E.

    ``schur`` is a precomputed ``(T0, Z0)`` with E = Z0 T0 Z0*, so a caller
    projecting every cluster factors E once.  A diagonal entry of T0 is
    selected when its nearest precomputed eigenvalue is a member; LAPACK
    ``ztrsen`` moves the selected entries to the leading block (Bai &
    Demmel), ``ztrsyl`` solves the triangular Sylvester equation
    T11 X - X T22 = T12 (Bartels-Stewart), and P = Z1 (Z1* + X Z2*).
    A selection of the wrong size, a rejected swap or near-common
    eigenvalues of T11 and T22 raise :class:`ClusterAmbiguity`.
    """
    m = len(members)
    if m == E.shape[0]:
        return np.eye(m, dtype=complex)
    T0, Z0 = schur if schur is not None else scipy.linalg.schur(E, output="complex")
    d = np.diag(T0)[:, None]
    select = np.min(np.abs(d - members), axis=1) < np.min(np.abs(d - others), axis=1)
    T, Z, _, sdim, _, _, info = ztrsen(select, T0, Z0, job="N")
    if info or sdim != m:
        raise ClusterAmbiguity(
            f"ztrsen moved {sdim} eigenvalues for a cluster of {m} (info={info})"
        )
    X, scale, info = ztrsyl(T[:m, :m], T[m:, m:], T[:m, m:], isgn=-1)
    if info:
        raise ClusterAmbiguity(
            f"ztrsyl: the cluster and the rest of the spectrum nearly share eigenvalues "
            f"(info={info})"
        )
    Z1 = Z[:, :m]
    return Z1 @ (Z1.conj().T + (X / scale) @ Z[:, m:].conj().T)


def spectral_decompose(
    E: np.ndarray,
    cluster_tol: float = 1e-7,
    circle_tol: float = 1e-8,
) -> SpectralData:
    """Eigenvalue clusters of E with spectral projectors and nilpotents.

    Raises :class:`ClusterAmbiguity` when two distinct clusters sit closer
    than 10x the clustering tolerance — separating them would be numerically
    meaningless, so the caller must choose a coarser tolerance.
    """
    E = np.asarray(E, dtype=complex)
    vals = np.linalg.eigvals(E)
    groups = _greedy_clusters(vals, cluster_tol)

    reps = np.array([np.mean(vals[ix]) for ix in groups])
    near = np.argwhere(np.triu(np.abs(reps[:, None] - reps[None, :]) < 10 * cluster_tol, 1))
    if len(near):
        i, j = near[0]
        raise ClusterAmbiguity(
            f"clusters at {reps[i]:.3e} and {reps[j]:.3e} are closer than "
            f"10*cluster_tol = {10 * cluster_tol:.1e}"
        )

    schur = scipy.linalg.schur(E, output="complex")
    clusters = []
    recon = np.zeros_like(E)
    for ix, rep in zip(groups, reps.tolist()):
        members = vals[ix]
        others = np.delete(vals, ix)
        P = _schur_projection(E, members, others, schur)
        Dn = (E - rep * np.eye(E.shape[0])) @ P
        nn = float(np.linalg.norm(Dn))
        clusters.append(
            SpectralCluster(
                value=rep,
                mult=len(ix),
                projection=P,
                nilpotent=Dn,
                nilpotent_norm=nn,
                on_circle=bool(abs(rep) >= 1.0 - circle_tol),
                members=members,
            )
        )
        recon = recon + rep * P + Dn
    resid = float(np.linalg.norm(recon - E) / max(np.linalg.norm(E), 1e-300))
    return SpectralData(
        matrix=E,
        clusters=clusters,
        reconstruction_residual=resid,
        cluster_tol=cluster_tol,
        circle_tol=circle_tol,
    )


def projection_contour_oracle(
    E: np.ndarray, center: complex, radius: float, nodes: int = 64
) -> np.ndarray:
    """Contour-integral spectral projector (test oracle only).

    Trapezoidal quadrature of (2 pi i)^{-1} \\oint (z - E)^{-1} dz on a circle;
    exponentially accurate in ``nodes`` when no eigenvalue is near the
    contour.  Equals the sum of projectors of all eigenvalues enclosed.
    """
    if nodes < 64:
        raise ValueError("oracle quadrature uses at least 64 nodes")
    E = np.asarray(E, dtype=complex)
    n = E.shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for k in range(nodes):
        th = 2.0 * np.pi * k / nodes
        z = center + radius * np.exp(1j * th)
        acc += np.exp(1j * th) * np.linalg.inv(z * np.eye(n) - E)
    return (radius / nodes) * acc


def resonances(sd: SpectralData, circle_tol: float = 1e-8) -> list[SpectralCluster]:
    """Clusters strictly inside the unit disk (|value| < 1 - circle_tol)."""
    return [c for c in sd.clusters if abs(c.value) < 1.0 - circle_tol]


def verify_outgoing(
    tg: TailedGraph,
    eps: float,
    mu: complex,
    vec: np.ndarray,
    depth: int = 20,
) -> float:
    """Sup-norm residual of the outgoing extension on a truncated system.

    Extends an internal eigenvector (E v = mu v) to a generalized
    eigenfunction of the full walk: zero on incoming tail arcs, geometric
    profile psi(out port j, distance l) = mu^{-(l-1)} psi(out, 1) with
    psi(out, 1) = (B_out v)_j / mu.  Returns max |(U - mu) psi| over the
    truncation after normalising psi to unit sup norm.  Raises
    :class:`NotAResonance` for |mu| >= 1 (the extension grows along the
    tails only for genuine resonances, where it is the outgoing state).
    """
    if abs(mu) >= 1.0:
        raise NotAResonance(f"|mu| = {abs(mu):.6f} is not strictly inside the disk")
    im = build_E(tg, eps)
    v = np.asarray(vec, dtype=complex)
    walk = WalkOperator(tg, eps, depth + 2)
    psi = np.zeros(walk.dim, dtype=complex)
    psi[: tg.num_arcs] = v
    first_out = im.B_out @ v / mu
    for j, t in enumerate(walk.tails):
        for l in range(1, depth + 3):
            psi[t.out_arc(l)] = mu ** (-(l - 1)) * first_out[j]
    scale = np.max(np.abs(psi))
    if scale == 0.0:
        raise ValueError("zero vector cannot be verified")
    psi /= scale
    r = walk.matrix @ psi - mu * psi
    ok = ~walk.invalid_rows
    # rows whose stencil reads the out-arc beyond the truncation don't exist;
    # every existing row is exact because incoming arcs vanish identically.
    return float(np.max(np.abs(r[ok])))
