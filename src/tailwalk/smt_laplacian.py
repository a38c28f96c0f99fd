"""Vertex Laplacian, spectral mapping, and persistent eigenvalues.

The unperturbed boundary matrix E0 is completely described by a weighted
vertex operator: with d the arc-to-vertex average (weight 1/n_i), d* its
adjoint for the n_i-weighted vertex inner product, and S the arc reversal,

    E0 = S (2 d* d - I),       T = d S d*   (self-adjoint in the weight).

Eigenvalues of E0 on the lifted subspace L = Ran d* + Ran S d* arise from
sigma(T) through the Joukowsky map phi(z) = (z + 1/z)/2: every T-eigenvalue
t in (-1, 1) yields the conjugate pair on the unit circle, t = +-1 yield
+-1.  The complement L-perp contributes only the *birth* eigenvalues +-1
with multiplicities fixed by the cycle structure.  Eigenvectors whose
T-eigenfunction vanishes on the boundary vertices — and all birth states —
survive the coupling unchanged for every eps: the persistent eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tailed_graph import TailedGraph

__all__ = [
    "LaplacianT",
    "EigenClassification",
    "build_operators",
    "build_E_split",
    "joukowsky_preimages",
    "joukowsky",
    "classify",
    "lift",
    "unit_sign",
    "birth_basis",
]


def joukowsky(z: complex) -> complex:
    return (z + 1.0 / z) / 2.0


def unit_sign(z: complex) -> int:
    """Which of +-1 z sits at, to 1e-9: 1 or -1, and 0 anywhere else.

    These are the two points where the Joukowsky pair collapses, the lift
    is a plain copy and birth states live.
    """
    if abs(z - 1.0) < 1e-9:
        return 1
    if abs(z + 1.0) < 1e-9:
        return -1
    return 0


def joukowsky_preimages(t: float) -> tuple[complex, ...]:
    """Unit-circle preimages of t under phi(z) = (z + 1/z)/2.

    Requires t in [-1, 1], to 1e-12; the pair collapses to a single point
    within 1e-12 of t = +-1.
    """
    if abs(t) > 1.0 + 1e-12:
        raise ValueError(f"{t} is outside [-1, 1]; no unit-circle preimage")
    t = min(1.0, max(-1.0, float(t)))
    if abs(t - 1.0) < 1e-12:
        return (1.0 + 0.0j,)
    if abs(t + 1.0) < 1e-12:
        return (-1.0 + 0.0j,)
    s = np.sqrt(1.0 - t * t)
    return (complex(t, s), complex(t, -s))


# A singular value of F[bd], F a T-eigenbasis, at or below this is zero: that
# direction vanishes on the boundary.  Absolute, as F is W-orthonormal (a cut
# relative to the largest one counts a block of pure rounding as full rank).
# On 3 x 300 random graphs plus 11 presets: zero <= 9.4e-16, nonzero >= 4.4e-3.
_BOUNDARY_RANK_CUT = 1e-9


@dataclass
class LaplacianT:
    """The graph's vertex operators.  T's spectrum and its grouped,
    boundary-split eigenspaces are computed once, on first use, so every
    consumer of one graph shares a single diagonalisation."""

    tg: TailedGraph
    d: np.ndarray
    dstar: np.ndarray
    S: np.ndarray
    Dw: np.ndarray  # boundary weight N_j(v)/n(v) per vertex
    T: np.ndarray
    weights: np.ndarray  # n_i(v), the vertex inner-product weights

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and W-orthonormal eigenvectors of T (ascending).

        T is self-adjoint only in the weighted inner product, so diagonalise
        the symmetrised W^{1/2} T W^{-1/2} and pull the basis back.
        """
        rw = np.sqrt(self.weights.astype(float))
        A = (rw[:, None] * self.T) / rw[None, :]
        vals, vecs = np.linalg.eigh((A + A.T) / 2.0)
        return vals, vecs / rw[:, None]

    @cached_property
    def eigenspaces(self) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """(t, F, per, rest) per eigenvalue t of T: the ascending values
        split into runs where a step is at least 1e-9, t a run's mean.

        F is a W-orthonormal basis of Ker(T - t); per spans its
        boundary-vanishing (persistent) directions and rest their complement
        in Ker(T - t).  One full SVD F[bd] = U s Vh gives both: with r the
        count of s above ``_BOUNDARY_RANK_CUT``, per = F Vh[r:]* and
        rest = F Vh[:r]*.  Both are F times orthonormal coefficients, so both
        are W-orthonormal and W-orthogonal to each other.
        """
        vals, vecs = self.spectrum
        cuts = np.flatnonzero(np.diff(vals) >= 1e-9) + 1
        bd = list(self.tg.boundary_vertices)
        out = []
        for ts, F in zip(np.split(vals, cuts), np.split(vecs, cuts, axis=1)):
            t = float(np.mean(ts))
            # with no boundary, F[bd] is 0 x k and numpy returns Vh = I
            s, Vh = np.linalg.svd(F[bd, :])[1:]
            r = int(np.sum(s > _BOUNDARY_RANK_CUT))
            out.append((t, F, F @ Vh[r:].conj().T, F @ Vh[:r].conj().T))
        return out

    def eigenspace(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(per, rest) of Ker(T - t), t matched to 1e-8.  Both have no
        columns when t is not an eigenvalue of T."""
        for tv, _, per, rest in self.eigenspaces:
            if abs(tv - t) < 1e-8:
                return per, rest
        empty = np.zeros((self.T.shape[0], 0))
        return empty, empty

    def boundary_gram(self, mu: complex) -> np.ndarray:
        """First-order boundary Gram matrix M1 at the unperturbed eigenvalue
        mu, symmetrised: M1[j,k] = -<D g_j, g_k>_W on the W-orthonormal
        basis {g_j} of Ker(T - phi(mu)) complementary to the
        boundary-vanishing part; 0 x 0 where mu has no lifted part
        (birth-only, e.g. -1 on a non-bipartite graph).

        Its eigenvalues eta1 are real, negative, and >= -1/min n(v).  Lifted
        to arc space, the basis spans Ran(P_mu | lifted, non-persistent),
        and the matrix of P E1 P there is A1 = gamma mu M1, gamma = 1 at
        mu = +-1 and 1/2 elsewhere: the graph-side route to the reduction's
        stage one.
        """
        G = self.eigenspace(joukowsky(complex(mu)).real)[1]
        M1 = _boundary_gram(self, G, G)
        return (M1 + M1.conj().T) / 2.0


def _boundary_gram(lt: LaplacianT, G_row: np.ndarray, G_col: np.ndarray) -> np.ndarray:
    """-<D g_col_j, g_row_k>_W as a matrix (rows k, cols j)."""
    wD = lt.weights * lt.Dw
    return -(G_row.conj().T * wD[None, :]) @ G_col


def build_operators(tg: TailedGraph) -> LaplacianT:
    M = tg.num_arcs
    nv = tg.graph.num_vertices
    d = np.zeros((nv, M))
    dstar = np.zeros((M, nv))
    for i, (_, t) in enumerate(tg.arcs):
        d[t, i] = 1.0 / tg.deg_int[t]
        dstar[i, t] = 1.0
    S = np.zeros((M, M))
    S[np.arange(M), tg.reversal] = 1.0
    Dw = tg.tails_at / tg.total_deg
    T = d @ S @ dstar
    return LaplacianT(tg=tg, d=d, dstar=dstar, S=S, Dw=Dw, T=T,
                      weights=tg.deg_int.astype(float))


def build_E_split(tg: TailedGraph) -> tuple[np.ndarray, ...]:
    """Independent assembly of the kappa-linear parts (E0, E1, B_in1,
    B_out1, B_bb1) of E and the port blocks through the vertex operators.

    With D the diagonal boundary weight N_j(v) / n(v), n the total degrees
    and Pi the vertex-port incidence:

        E0 = S (2 d* d - I),       E1 = -S d* D d,
        B_in1 = S d* n^-1 Pi,      B_out1 = Pi^T n^-1 d*^T,
        B_bb1 = Pi^T n^-1 Pi - I.

    Cross-checked against :func:`build_E` in the test suite; the two
    routes share no code.
    """
    lt = build_operators(tg)
    Pi = np.zeros((tg.graph.num_vertices, tg.num_ports))
    Pi[[v for v, _ in tg.ports], np.arange(tg.num_ports)] = 1.0
    nPi = Pi / tg.total_deg[:, None]
    blocks = (
        lt.S @ (2.0 * lt.dstar @ lt.d - np.eye(tg.num_arcs)),
        -(lt.S @ lt.dstar * lt.Dw) @ lt.d,
        lt.S @ lt.dstar @ nPi,
        nPi.T @ lt.dstar.T,
        Pi.T @ nPi - np.eye(tg.num_ports),
    )
    return tuple(X.astype(complex) for X in blocks)


def lift(lt: LaplacianT, lam: complex, f: np.ndarray) -> np.ndarray:
    """Isometric lift of a T-eigenfunction, or a basis of them as columns,
    to E0-eigenvectors at lam (d* and S have one nonzero per row, so a
    basis lifts to the bits of its columns lifted one at a time).

    For lam not at +-1 this is (1 - lam S) d* f normalised by
    sqrt(2)|sin(arg lam)|; at +-1 the plain copy d* f is already isometric
    (S acts as multiplication by lam on it).
    """
    lam = complex(lam)
    df = lt.dstar @ f
    if unit_sign(lam):
        return df
    u = df - lam * (lt.S @ df)
    return u / (np.sqrt(2.0) * abs(np.sin(np.angle(lam))))


def birth_multiplicities(tg: TailedGraph) -> tuple[int, int]:
    """(M_+1, M_-1): eigenvalue multiplicities of E0 on the non-lifted part.

    M_1 = max(0, #A/2 - #V + 1) counts independent cycles; M_-1 swaps the
    +1 of the Euler count for 1 exactly when the graph is bipartite.
    """
    half_arcs = tg.num_arcs // 2
    nv = tg.graph.num_vertices
    m1 = max(0, half_arcs - nv + 1)
    m_minus = max(0, half_arcs - nv + (1 if tg.graph.bipartite else 0))
    return m1, m_minus


def birth_basis(lt: LaplacianT, lam: float) -> np.ndarray:
    """Orthonormal basis of the birth eigenspace at lam = +-1.

    Birth states satisfy d u = 0 together with S u = -lam u, so they are
    the null space of [d; S + lam I], by ``scipy.linalg.null_space``'s rule
    at ``rcond=1e-9``.
    """
    if lam not in (1, -1, 1.0, -1.0):
        raise ValueError("birth eigenvalues exist only at +-1")
    stack = np.vstack([lt.d, lt.S + lam * np.eye(lt.S.shape[0])])
    _, s, vh = np.linalg.svd(stack)
    return vh[np.count_nonzero(s > s.max(initial=0.0) * 1e-9) :].T.conj()


@dataclass
class EigenClassification:
    """One point of sigma_p(E0) with its provenance.

    ``inherited_mult`` is the dimension lifted from T, ``birth_mult`` the
    non-lifted dimension (only at +-1), and ``persistent_mult`` the
    dimension surviving every coupling value.
    """

    value: complex
    inherited_mult: int
    birth_mult: int
    persistent_mult: int

    @property
    def total_mult(self) -> int:
        return self.inherited_mult + self.birth_mult


def classify(lt: LaplacianT) -> list[EigenClassification]:
    """Classification of sigma_p(E0) into inherited/birth/persistent parts:
    one entry per T-eigenspace and Joukowsky preimage; the birth states at
    +-1 join the entry there, or stand alone where T lifts to none."""
    out = [
        EigenClassification(lam, F.shape[1], 0, per.shape[1])
        for t, F, per, _ in lt.eigenspaces
        for lam in joukowsky_preimages(t)
    ]
    for sign, m in zip((1, -1), birth_multiplicities(lt.tg)):
        if m == 0:
            continue
        e = next((x for x in out if unit_sign(x.value) == sign), None)
        if e is None:
            out.append(EigenClassification(complex(sign), 0, m, m))
        else:
            e.birth_mult = m
            e.persistent_mult += m  # birth states persist
    out.sort(key=lambda e: (np.angle(e.value), abs(e.value)))
    return out


def persistent_basis(lt: LaplacianT, lam: complex) -> np.ndarray:
    """Orthonormal arc-space basis of the persistent eigenspace at lam:
    the lifted boundary-vanishing T-eigenvectors plus, at +-1, the birth
    states, orthonormalised by ``scipy.linalg.orth``'s rule."""
    per, _ = lt.eigenspace(joukowsky(complex(lam)).real)
    cols = [lift(lt, lam, per)]
    sign = unit_sign(lam)
    if sign:
        cols.append(birth_basis(lt, sign))
    u, s, vh = np.linalg.svd(np.hstack(cols).astype(complex), full_matrices=False)
    cut = s.max(initial=0.0) * np.finfo(float).eps * max(len(u), vh.shape[1])
    return u[:, : np.count_nonzero(s > cut)]
