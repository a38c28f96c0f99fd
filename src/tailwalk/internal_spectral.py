"""The boundary matrix E and its spectral decomposition.

E is the compression of the one-step walk to the internal arcs.  Together
with the port coupling blocks it determines everything downstream:

    full step on (internal arcs + ports):   [ E     B_in ]
                                            [ B_out B_bb ]

where B_in maps incoming port amplitudes to internal arcs, B_out reads the
first outgoing tail arc, and B_bb is the direct port-to-port block.  E is a
compression of a unitary, so spec(E) lives in the closed unit disk; the
eigenvalues strictly inside are the resonances.

One complex Schur form E = Z T Z* per decomposition is the only dense
eigensolver: its diagonal, copied before anything moves, gives the
eigenvalues that are clustered and reported.  E is a contraction, so an
eigenvalue on the unit circle has a zero off-diagonal row and column in T
(its unitary part is a reducing subspace, Sz.-Nagy & Foias 1970).  So a
near-circle cluster is embedded, on the circle, exactly when its rows and
columns are zero to rounding, and the embedded clusters split off by a
permutation: R = Z[:, J], L = Z[:, J]* and N = T_JJ - mu, with no
reorder and no solve, and ||R N L||_F = ||N||_F needs no Gram matrix.  The
rest keeps its relative order, so its block of T is upper triangular, and
it is block-diagonalised (Bavely & Stewart 1979): one ``ztrsen`` reorder
per cluster not already contiguous on its diagonal (none for a simple
spectrum), then ``ztrsyl`` Sylvester solves that give a unit
block-upper-triangular Y with T Y = Y blockdiag(T_jj).  Each of its
clusters is kept as R = (Z Y)[:, J], L = (Y^-1 Z*)[J, :] and N.  So P = R L
and (E - mu) P = R N L cost O(n m) memory per cluster instead of O(n^2).
The whole decomposition holds about four n x n arrays at its peak, R and L
among them: the Schur workspace query is freed before the Schur form is
made, Z is permuted once, T and Z are freed after their last use, no
n x n distance matrix groups the eigenvalues, and the reconstruction
check runs over slices of columns.  This is
well-conditioned even for defective clusters, and a basis too
ill-conditioned to trust is refused.  A contour-integral projector is
provided as an independent test oracle and is not used in any production
path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .coin_evolution import kappa, linearize
from .tailed_graph import TailedGraph


def _lapack(*routines: str) -> list:
    """LAPACK routines from scipy's compiled module, loaded under its own name,
    which ``scipy.linalg`` then shares, without importing ``scipy.linalg``."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        root = importlib.util.find_spec("scipy")
        spec = root and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "linalg") for path in root.submodule_search_locations])
        if spec is None:
            raise ImportError(f"tailwalk needs scipy: {name} was not found", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return [getattr(sys.modules[name], routine) for routine in routines]


zgees, ztrsen, ztrsyl, ztrtrs = _lapack("zgees", "ztrsen", "ztrsyl", "ztrtrs")

# eigenvalues closer than CLUSTER_TOL form one cluster by default, as under
# the CLI's --tol-cluster.  CLUSTER_TOL is also the smallest accepted:
# rounding spreads an exact multiplicity of E0 over up to 1.7e-14 (cycle:128,
# tails 0-3).  A coarser one merges distinct resonances unseen: a pair d apart
# has ||N^2||_F = 0.35 d^2, below _MAX_NILPOTENT_POWER for d up to 1.7e-5
# (cycle:12 tails 0,1,2 has four pairs 6.7e-8 apart at eps 0.00075)
CLUSTER_TOL = 1e-12
_LOG_BLOCK = 6
_BLOCK = 1 << _LOG_BLOCK  # time-iteration steps advanced per product with H^_BLOCK
# the port Krylov basis keeps singular values above this: measured, every kept
# one is >= 0.59 and every dropped one <= 1e-14
_KRYLOV_TOL = 1e-12
_OUTGOING_DEPTH = 20  # verify_outgoing's truncation keeps this many tail arcs plus two
_OUTGOING_FLOOR = np.finfo(float).max ** (-1 / (_OUTGOING_DEPTH + 2))  # below it mu^-D overflows
# ||R||_1 ||L||_1 above this: the projectors would have lost half the working digits
_MAX_BLOCK_CONDITION = 1e8
# ||N^m||_F above this: a cluster of m > 1 is not one eigenvalue, and the closed
# form's Laurent series would drop that term (measured <= 4.9e-16)
_MAX_NILPOTENT_POWER = 1e-10
# a cluster is on the circle, and splits off by a permutation, when it lies
# within CIRCLE_TOL of it and its members' rows and columns of T are below
# _DECOUPLED times ||E||_F off the diagonal.  Embedded states measure at most
# 1.2e-15 over 400 random 3-8 vertex graphs (eps in [0.01, 1]), 3.6e-16 on
# cycle:64 and 1.3e-16 on complete:16/24.  The coupled near-circle resonances
# of cycle:4 tails 0,1,2 measure 1.9e-9 at eps 1e-4 and 1.9e-11 at 1e-5.  A
# resonance split off by mistake is refused by SigmaEvaluator's coupling
# guard; an embedded state kept by mistake enters Sigma as a term whose pole
# lies on the circle.  The bound sits a decade above the noise.  CIRCLE_TOL
# keeps decoupled resonances inside the disk with the rest (complete:3 with
# a tail at every vertex has one at eps 0.5)
CIRCLE_TOL = 1e-8
_DECOUPLED = 1e-14
# columns per slice of the reconstruction check: an n x _SLICE product per
# slice in place of two n x n arrays
_SLICE = 64

__all__ = [
    "ClusterAmbiguity",
    "NotAResonance",
    "InternalMatrix",
    "IterationBasis",
    "SpectralCluster",
    "SpectralData",
    "build_E",
    "spectral_decompose",
    "projection_contour_oracle",
    "verify_outgoing",
]


class ClusterAmbiguity(RuntimeError):
    """Eigenvalue clusters whose spectral projectors cannot be trusted."""


class NotAResonance(ValueError):
    """Requested an outgoing extension for |mu| outside [_OUTGOING_FLOOR, 1)."""


@dataclass
class InternalMatrix:
    """Boundary matrix and port blocks at one coupling value, plus the exact
    kappa-linear splitting  X(eps) = X0 + kappa(eps) * X1  of every block.

    E's coupling part E1 = U1 V1^T has rank r, one column per tailed vertex
    v: ``U1`` (n x r) is -N_v / (n_v n_i) on the arcs leaving v and ``V1``
    (n x r) is 1 on the arcs entering v, where N_v, n_v and n_i count v's
    tails, all its arcs and its internal ones.  No dense E1 is kept.

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
    U1: np.ndarray
    V1: np.ndarray
    B_in1: np.ndarray
    B_out1: np.ndarray
    B_bb1: np.ndarray

    def at(self, eps: float) -> "InternalMatrix":
        """Same graph, different coupling (cheap: blocks are kappa-linear).

        E = E0 + kappa U1 V1^T is one copy of E0 with kappa times each
        tailed vertex's block added in place (the blocks are disjoint); at
        kappa = 0 exactly, E is the read-only E0 itself."""
        k = kappa(eps)
        E = self.E0
        if k != 0:
            index, values = self._coupling_entries
            E = self.E0.copy()
            E.reshape(-1)[index] += k * values
        return replace(
            self,
            eps=float(eps),
            E=E,
            B_in=k * self.B_in1,
            B_out=k * self.B_out1,
            B_bb=np.eye(self.tg.num_ports, dtype=complex) + k * self.B_bb1,
        )

    @cached_property
    def _coupling_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries of U1 V1^T inside the tailed vertices' blocks, as flat
        indices into E and their values, formed on the first ``at``."""
        index = [np.zeros(0, dtype=np.intp)]
        values = [np.zeros(0, dtype=complex)]
        for u, v in zip(self.U1.T, self.V1.T):
            (rows,), (cols,) = u.nonzero(), v.nonzero()
            index.append((rows[:, None] * len(v) + cols).ravel())
            values.append(np.outer(u[rows], v[cols]).ravel())
        return np.concatenate(index), np.concatenate(values)

    @cached_property
    def iteration_basis(self) -> "IterationBasis":
        """The coordinates the time iteration runs in, chosen on first use
        and kept (see :class:`IterationBasis`)."""
        V = _port_krylov_basis(self.E, self.B_in)
        if V is None:
            return IterationBasis(None, self.E, self.B_in, self.B_out)
        Vh = V.conj().T
        return IterationBasis(V, Vh @ (self.E @ V), Vh @ self.B_in, self.B_out @ V)


@dataclass
class IterationBasis:
    """The blocks the time iteration steps, in the basis it runs in.

    ``V`` (n x d) is an orthonormal basis of the port Krylov subspace, the
    smallest E-invariant subspace containing Ran B_in, which the inflow's
    orbit E^j B_in alpha never leaves.  The iteration steps ``H = V* E V``
    (d x d) from ``B_in = V* B_in`` and reads out through ``B_out =
    B_out V``.  H compresses E to an invariant subspace, so
    ||H||_2 <= ||E||_2 <= 1.  ``V`` is None when the subspace has more than
    n/2 dimensions, or E or B_in is not finite: ``H``, ``B_in`` and
    ``B_out`` are then the InternalMatrix's own E, B_in and B_out, in arc
    coordinates.

    ``walk`` builds every block of ``_BLOCK`` steps.  What the iteration
    derives from these blocks does not depend on lambda, so it is formed on
    first use and kept: one ladder of squares ``H^(2^k)``, which ``walk``
    reads below ``H^_BLOCK`` (``_LOG_BLOCK`` d x d rungs) and ``power``
    from it on.
    ``InternalMatrix.at`` returns a new object, so no coupling serves another.
    """

    V: np.ndarray | None
    H: np.ndarray
    B_in: np.ndarray
    B_out: np.ndarray
    _squares: list[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def _square(self, k: int) -> np.ndarray:
        """H^(2^k), each rung the square of the one before, built in order."""
        squares = self._squares
        if not squares:
            squares.append(self.H)
        while len(squares) <= k:
            squares.append(squares[-1] @ squares[-1])
        return squares[k]

    def walk(self, x: np.ndarray) -> np.ndarray:
        """x, H x, ..., H^(_BLOCK-1) x along a new second axis of x (d or d x N),
        by doubling: steps m..2m-1 are H^m times steps 0..m-1, for m = 1, 2,
        ..., _BLOCK/2, in _LOG_BLOCK products with the ladder's squares."""
        W = np.empty((x.shape[0], _BLOCK) + x.shape[1:], dtype=complex)
        W[:, 0] = x
        width = math.prod(x.shape[1:])  # step j is columns j*width..(j+1)*width-1
        flat = W.reshape(len(W), _BLOCK * width)
        for k in range(_LOG_BLOCK):
            cols = width << k
            np.matmul(self._square(k), flat[:, :cols], out=flat[:, cols:2 * cols])
        return W

    def power(self, level: int) -> np.ndarray:
        """H^(_BLOCK 2^level), the ladder's rung _LOG_BLOCK + level: level 0
        advances the time iteration _BLOCK steps per product, and each later
        level, the square of the one before, jumps 2^level blocks.  Level 0
        is (H^(_BLOCK/2))^2, bit for bit np.linalg.matrix_power(H, _BLOCK)."""
        return self._square(_LOG_BLOCK + level)


def _port_krylov_basis(E: np.ndarray, B_in: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the smallest E-invariant subspace containing
    Ran B_in, by block Arnoldi, or None once it would have more than n/2
    columns.

    Each new block is E times the last one, orthogonalised against every
    column kept by two Gram-Schmidt passes; the left singular vectors of
    what is left, for singular values above _KRYLOV_TOL, are the next block
    (the first is B_in's own, above _KRYLOV_TOL times its largest).  The
    subspace is complete when a block adds no column.  No eigensolver runs.
    """
    n = E.shape[0]
    if not (np.isfinite(E).all() and np.isfinite(B_in).all()):
        return None
    U, s, _ = np.linalg.svd(B_in, full_matrices=False)
    keep = s > _KRYLOV_TOL * s.max(initial=0.0)
    # columns are contiguous, so each block and each prefix is a BLAS operand
    V = np.empty((n, n // 2), dtype=complex, order="F")
    lo, d = 0, int(keep.sum())
    while 2 * d <= n:
        V[:, lo:d] = U[:, keep]
        if lo == d:
            return V[:, :d].copy()
        W = E @ V[:, lo:d]
        for _ in range(2):  # V* W as conj(V^T conj(W)): no conjugate copy of V
            W -= V[:, :d] @ (V[:, :d].T @ W.conj()).conj()
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        keep = s > _KRYLOV_TOL
        lo, d = d, d + int(keep.sum())
    return None


def build_E(tg: TailedGraph, eps: float = 0.0) -> InternalMatrix:
    """Assemble E and the port blocks from the per-vertex coins: the one
    per-vertex assembly of the walk step, which every other consumer reads.
    E0 is returned read-only, as ``at`` shares it at zero coupling."""
    M = tg.num_arcs
    N = tg.num_ports

    E0 = np.zeros((M, M), dtype=complex)
    U1 = np.zeros((M, len(tg.boundary_vertices)), dtype=complex)
    V1 = np.zeros_like(U1)
    B_in1 = np.zeros((M, N), dtype=complex)
    B_out1 = np.zeros((N, M), dtype=complex)
    B_bb1 = np.zeros((N, N), dtype=complex)

    column = {v: j for j, v in enumerate(tg.boundary_vertices)}  # U1's and V1's
    for v in range(tg.graph.num_vertices):
        ins, pids = tg.arcs_into(v), tg.ports_at(v)
        n_i = len(ins)
        c0, c1 = linearize(int(tg.total_deg[v]), n_i)
        rows = tg.reversal[ins]  # the arcs leaving v, in the order of those entering
        E0[np.ix_(rows, ins)] = c0[:n_i, :n_i]
        if v in column:  # c1's internal block is c1[0, 0] J, of rank one
            U1[rows, column[v]] = c1[0, 0]
            V1[ins, column[v]] = 1.0
            B_in1[np.ix_(rows, pids)] = c1[:n_i, n_i:]
            B_out1[np.ix_(pids, ins)] = c1[n_i:, :n_i]
            B_bb1[np.ix_(pids, pids)] = c1[n_i:, n_i:]
    E0.flags.writeable = False

    # the exact eps = 0 blocks (B_in0 = B_out0 = 0, B_bb0 = I); ``at`` forms E(eps)
    zeroth = InternalMatrix(tg, 0.0, E0, np.zeros_like(B_in1), np.zeros_like(B_out1),
                            np.eye(N, dtype=complex), E0, U1, V1, B_in1, B_out1, B_bb1)
    return zeroth.at(eps)


@dataclass
class SpectralCluster:
    """One eigenvalue cluster, held as factors of its spectral projector.

    ``P = R L`` and ``(E - value) P = R N L``: ``R`` (n x m) and ``L``
    (m x n) are views into the ``R`` and ``L`` of :class:`SpectralData`
    (columns and rows ``span``), and ``N`` is the cluster's m x m diagonal
    block of the Schur form minus ``value``.  ``on_circle`` marks an
    embedded cluster, one the Schur form decouples from the rest; it is
    split off by a permutation, so ``R`` is m orthonormal Schur vectors,
    ``L = R*`` and ``nilpotent_norm``, ``||R N L||_F``, is ``||N||_F``.  The
    n x n ``projection`` is formed on first use only.
    """

    value: complex
    mult: int
    R: np.ndarray
    L: np.ndarray
    N: np.ndarray
    span: slice
    nilpotent_norm: float
    on_circle: bool

    @cached_property
    def projection(self) -> np.ndarray:
        return self.R @ self.L


@dataclass
class SpectralData:
    """Clusters of one matrix, with the eigenvalues they were grouped from:
    its complex Schur diagonal before any reorder, in ``zgees``'s order.

    ``R`` and ``L = R^-1`` block-diagonalise the matrix,
    ``E = R blockdiag(T_jj) L``; each cluster owns a contiguous block of
    their columns and rows.  The clusters split off by a permutation come
    first, in cluster order, as Schur vectors (``R = Z[:, J]``, ``L = R*``);
    the rest follow as ``R = Z Y`` and ``L = Y^-1 Z*`` of their own block.
    ``R`` is C-ordered and ``L`` Fortran-ordered: a cluster's columns of
    ``R`` and rows of ``L`` are strided views.
    ``block_condition = ||R||_1 ||L||_1`` bounds how much of the working
    precision the projectors lost.  ``reconstruction_residual`` is
    ``||R blockdiag(T_jj) L - E||_F / ||E||_F``.
    """

    eigenvalues: np.ndarray
    clusters: list[SpectralCluster]
    R: np.ndarray
    L: np.ndarray
    reconstruction_residual: float
    block_condition: float

    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.clusters])

    @cached_property
    def column_values(self) -> np.ndarray:
        """Each column of ``R`` (row of ``L``) mapped to its cluster's value."""
        by_span = sorted(self.clusters, key=lambda c: c.span.start)
        return np.repeat([c.value for c in by_span], [c.mult for c in by_span])

    def distances(self, z: complex) -> np.ndarray:
        """|value - z| of each cluster, bit for bit as ``abs`` of a complex."""
        d = self.values() - z
        return np.hypot(d.real, d.imag)

    def cluster_near(self, z: complex, tol: float | None = None) -> SpectralCluster:
        dists = self.distances(z)
        i = int(np.argmin(dists))
        if tol is not None and dists[i] > tol:
            raise KeyError(f"no cluster within {tol} of {z}")
        return self.clusters[i]


def _greedy_clusters(vals: np.ndarray, tol: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Group eigenvalues by transitive tol-closeness (connected components).

    ``tol`` is positive, so each eigenvalue is close to itself.  Returns
    the groups, each an ascending index array into ``vals``, and their
    representatives, the means of their members, sorted by the (real,
    imag) of the representative.
    """
    n = len(vals)
    index = np.arange(n)
    label = index.copy()
    # two values closer than tol have real parts closer than tol, so values
    # whose real parts lie at least tol from their neighbours' are alone, and
    # each run of linked neighbours in real order holds whole components: the
    # closure runs within each run, with no n x n matrix
    by_re = vals.real.argsort(kind="stable")
    real = vals.real[by_re]
    linked = np.zeros(n + 1, dtype=bool)  # linked[i]: by_re[i - 1] and by_re[i] may be close
    linked[1:n] = real[1:] - real[:-1] < tol
    bounds = np.flatnonzero(linked[1:] != linked[:-1]).tolist()  # each run's first and last
    for a, b in zip(bounds[::2], bounds[1::2]):
        run = by_re[a : b + 1]
        r = vals[run]
        close = np.abs(r[:, None] - r) < tol
        lab = run
        while True:  # spread each component's smallest index through it
            nxt = np.where(close, lab, n).min(axis=1)
            if (nxt == lab).all():
                break
            lab = nxt
        label[run] = lab
    (heads,) = (label == index).nonzero()  # each group's smallest index, ascending
    sizes = np.bincount(label)[heads]
    order = label.argsort(kind="stable")  # the groups' members, ascending, group by group
    ends = sizes.cumsum()
    starts = ends - sizes
    # the mean of a one-member group, bit for bit: np.mean sums from +0, so a
    # -0.0 part becomes +0.0, and its division by 1 changes nothing else.  A
    # larger group's is np.mean's own sum and division
    reps = vals[heads] + 0.0
    for g in (sizes > 1).nonzero()[0].tolist():
        reps[g] = vals[order[starts[g] : ends[g]]].sum() / sizes[g]
    key = reps.argsort(kind="stable")  # numpy orders complex numbers by (real, imag)
    groups = [order[a:b] for a, b in zip(starts[key].tolist(), ends[key].tolist())]
    return groups, reps[key]


def _schur_form(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E's complex Schur form (T, Z), from one ``zgees`` call made as
    ``scipy.linalg.schur(E, output="complex")`` makes it, a non-finite E
    refused with its ``ValueError``.  The workspace query's copies of E and
    of Z are freed before that call: two n x n arrays fewer at its peak.
    """
    E = np.asarray_chkfinite(E)
    lwork = zgees(lambda x: None, E, lwork=-1)[-2][0].real.astype(np.int_)
    T, _, _, Z, _, info = zgees(lambda x: None, E, lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return T, Z


def _contiguous_schur(
    T: np.ndarray, Z: np.ndarray, groups: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Schur form Z T Z* reordered so that each cluster (``groups``
    index T's diagonal) is contiguous, and each group's first index.  Z
    may have more rows than T has: it spans an invariant subspace.

    Clusters are laid out in the order their first entries appear; one
    that is not yet contiguous is gathered by ``ztrsen``, selecting it
    together with the clusters already placed, which sit in front and so
    do not move.  The gathers' unitary Q is accumulated and Z Q formed
    once.  When every cluster is contiguous already (always so for a
    spectrum of simple eigenvalues) nothing is reordered.
    """
    if all(ix[-1] - ix[0] < len(ix) for ix in groups):
        return T, Z, np.array([ix[0] for ix in groups], dtype=int)
    n = T.shape[0]
    mults = [len(ix) for ix in groups]
    label = np.empty(n, dtype=int)
    label[np.concatenate(groups)] = np.arange(len(groups)).repeat(mults)
    label = label.tolist()
    start = np.empty(len(groups), dtype=int)
    Q = np.eye(n, dtype=complex, order="F")
    p = 0
    while p < n:
        g = label[p]
        m = mults[g]
        if label[p : p + m].count(g) < m:
            select = np.equal(label, g)
            select[:p] = True
            T, Q, _, sdim, _, _, info = ztrsen(select, T, Q, job="N")
            if info or sdim != p + m:
                raise ClusterAmbiguity(
                    f"ztrsen moved {sdim - p} eigenvalues for a cluster of {m} (info={info})"
                )
            rest = label[p:]
            label[p:] = [x for x in rest if x == g] + [x for x in rest if x != g]
        start[g] = p
        p += m
    return T, Z @ Q, start


def _block_diagonaliser(T: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Unit block-upper-triangular Y with T Y = Y blockdiag(T_jj).

    T is upper triangular, its diagonal blocks end at the ascending
    ``cuts``.  Split at the cut nearest the middle (the lower one of two
    as near), T = [[Ta, Tab], [0, Tb]]: the Sylvester equation
    Ta X - X Tb = -Tab (``ztrsyl``) decouples the halves, and with Ya, Yb
    for the halves, Y = [[Ya, X Yb], [0, Yb]].  Y is unique, so this is the
    matrix that one solve per block row, bottom-up, also gives, in the same
    number of solves but with no trailing block copied per row.
    """
    Y = np.eye(T.shape[0], dtype=complex)

    def split(lo: int, hi: int, a: int, b: int) -> None:
        # the cuts strictly inside (lo, hi) are cuts[a:b]
        if a == b:
            return
        i = bisect_left(cuts, (lo + hi) / 2, a, b)
        if i == b or (i > a and lo + hi - 2 * cuts[i - 1] <= 2 * cuts[i] - lo - hi):
            i -= 1
        h = cuts[i]
        split(lo, h, a, i)
        split(h, hi, i + 1, b)
        X, scale, info = ztrsyl(T[lo:h, lo:h], T[h:hi, h:hi], T[lo:h, h:hi], isgn=-1)
        if info:
            raise ClusterAmbiguity(
                f"ztrsyl: two clusters nearly share eigenvalues (info={info})"
            )
        Y[lo:h, h:hi] = (X / -scale) @ Y[h:hi, h:hi]

    split(0, T.shape[0], 0, max(len(cuts) - 1, 0))
    del split  # it refers to itself: a cycle that would keep T alive until a gc pass
    return Y


def _unitary_part(
    T: np.ndarray, groups: list[np.ndarray], reps: np.ndarray, scale: float
) -> list[int]:
    """The clusters on the circle, as indices into ``groups``: those whose
    representative in ``reps`` lies within ``CIRCLE_TOL`` of it and whose
    members' rows and columns of the Schur form T are zero off the
    diagonal, to ``_DECOUPLED * scale``.  They split off T by a permutation.

    In a contraction an eigenvalue t_jj with |t_jj| = 1 has such a row and
    column, as ||e_j* T|| and ||T e_j|| are at most 1: the unitary part is
    a reducing subspace.  A resonance near the circle couples to the rest,
    and is kept with it.
    """
    cand = np.flatnonzero(np.abs(reps) >= 1.0 - CIRCLE_TOL).tolist()
    if not cand:
        return []
    off = np.abs(T)
    off.flat[:: T.shape[0] + 1] = 0.0
    coupling = np.maximum(off.max(axis=0), off.max(axis=1))
    return [g for g in cand if coupling[groups[g]].max() <= _DECOUPLED * scale]


def spectral_decompose(E: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> SpectralData:
    """Eigenvalue clusters of E with factored spectral projectors.

    Eigenvalues closer than ``cluster_tol`` form one cluster; clusters
    however close are kept apart as long as their projectors can be
    trusted.  A cluster is on the circle exactly when the Schur form
    already decouples it there (:func:`_unitary_part`); those split off by a
    permutation, with R = Z[:, J] and L = Z[:, J]*, and only the rest is
    reordered and block-diagonalised.
    Raises :class:`ValueError` for a ``cluster_tol`` below the default
    ``CLUSTER_TOL`` (or NaN), and :class:`ClusterAmbiguity` when the
    block-diagonalising basis is so ill-conditioned (``block_condition``
    above ``_MAX_BLOCK_CONDITION``) that the projectors would have lost
    half the working digits, when a cluster of m > 1 eigenvalues is not one
    eigenvalue (``||N^m||_F`` above ``_MAX_NILPOTENT_POWER``), as a coarse
    tolerance can make it, and when ``ztrsen`` or ``ztrsyl`` fails.

    Besides E, at most about four n x n arrays are live at once, in turn:
    T and Z (``zgees``'s workspace query is freed before they are made,
    :func:`_schur_form`); Z, the rest's block of T and its Y; Z, Y, R and
    the rest's rows of L; R and L.  The rest's block of T is sliced before
    Z's columns are permuted, once, T and Z are freed after their last use,
    eigenvalues are grouped with no n x n distance matrix
    (:func:`_greedy_clusters`), and the reconstruction residual
    ``||R blockdiag(T_jj) L - E||_F / ||E||_F`` is summed over slices of
    ``_SLICE`` columns.  A split-off cluster's ``nilpotent_norm`` is
    ``||N||_F``, exactly, since its R is orthonormal and L = R*; the
    others' come from m x m Gram matrices.
    """
    if not cluster_tol >= CLUSTER_TOL:
        raise ValueError(f"cluster_tol must be at least {CLUSTER_TOL:.0e}, got {cluster_tol}")
    E = np.asarray(E, dtype=complex)
    n = E.shape[0]
    norm_E = float(np.sqrt(np.vdot(E, E).real))
    T, Z = _schur_form(E)
    vals = T.diagonal().copy()
    groups, reps = _greedy_clusters(vals, cluster_tol)
    mults = [len(ix) for ix in groups]
    split = _unitary_part(T, groups, reps, norm_E)

    # the split-off clusters lead, in cluster order; the rest keeps its
    # relative order, so its block of T stays upper triangular.  Each n x n
    # array's name is rebound or deleted after its last use, which frees it:
    # T and Z go before L is allocated
    chosen = set(split)
    others = [g for g in range(len(groups)) if g not in chosen]
    blocks = {g: T[groups[g][:, None], groups[g]] for g in split if mults[g] > 1}  # the T_jj
    start = np.empty(len(groups), dtype=int)
    head = np.zeros(0, dtype=int)
    rest_groups = groups
    if split:
        head = np.concatenate([groups[g] for g in split])
        start[split] = np.cumsum([0] + [mults[g] for g in split[:-1]])
        in_rest = np.ones(n, dtype=bool)
        in_rest[head] = False
        pos = in_rest.cumsum() - 1  # an index's position among the rest
        (rest,) = in_rest.nonzero()
        # the rest's block of T in one gather, before Z is permuted: the full T
        # is freed first, and no intermediate block of rows is made
        T = T[np.ix_(rest, rest)]
        Z = Z[:, np.concatenate([head, rest])]  # Z's one permutation
        rest_groups = [pos[groups[g]] for g in others]
    k = len(head)
    T, Zr, rest_start = _contiguous_schur(T, Z[:, k:], rest_groups)
    Y = _block_diagonaliser(T, sorted(s + mults[g] for g, s in zip(others, rest_start.tolist())))
    start[others] = k + rest_start
    for g, s in zip(others, rest_start.tolist()):
        if mults[g] > 1:
            blocks[g] = T[s : s + mults[g], s : s + mults[g]].copy()
    diag = np.concatenate([vals[head], T.diagonal()])
    del T
    Lr = np.conjugate(Zr.T, order="F")  # the rest's rows of L, solved in place below
    R = np.empty((n, n), dtype=complex)
    R[:, :k] = Z[:, :k]
    np.matmul(Zr, Y, out=R[:, k:])
    del Z, Zr
    if k < n:  # LAPACK refuses an empty triangle
        Lr, _ = ztrtrs(Y, Lr, unitdiag=1, overwrite_b=1)  # unit diagonal: never singular
    del Y
    L = np.empty((n, n), dtype=complex, order="F")
    np.conjugate(R[:, :k].T, out=L[:k])
    L[k:] = Lr
    del Lr
    cond = float(np.abs(R).sum(axis=0).max() * np.abs(L).sum(axis=0).max())  # ||R||_1 ||L||_1
    if not cond <= _MAX_BLOCK_CONDITION:
        raise ClusterAmbiguity(
            f"block-diagonalising basis has condition {cond:.1e} > {_MAX_BLOCK_CONDITION:.0e}: "
            f"eigenvectors of distinct clusters are nearly parallel"
        )

    # N = T_jj - value I is exactly 0 when m = 1
    N1 = (diag[start] - reps)[:, None, None]
    clusters = []
    for g, (rep, s, m, N) in enumerate(zip(reps.tolist(), start.tolist(), mults, N1)):
        sp = slice(s, s + m)
        Rj, Lj = R[:, sp], L[sp]
        nn = 0.0
        if m > 1:
            N = blocks[g] - rep * np.eye(m)
            if np.linalg.norm(N) > _MAX_NILPOTENT_POWER ** (1.0 / m):  # ||N^m|| <= ||N||^m
                npow = float(np.linalg.norm(np.linalg.matrix_power(N, m)))
                if not npow <= _MAX_NILPOTENT_POWER:
                    raise ClusterAmbiguity(
                        f"cluster at {rep:.3e} of multiplicity {m} is not one eigenvalue: "
                        f"||N^{m}||_F = {npow:.2e} > {_MAX_NILPOTENT_POWER:.0e}, so "
                        f"cluster_tol = {cluster_tol:.1e} merged distinct eigenvalues"
                    )
            if g in chosen:  # R is orthonormal and L = R*: ||R N L||_F = ||N||_F
                nn = float(np.linalg.norm(N))
            else:  # ||R N L||_F^2 = tr(N* (R* R) N (L L*)), from m x m Gram matrices
                nn2 = np.vdot(N, (Rj.conj().T @ Rj) @ N @ (Lj @ Lj.conj().T)).real
                nn = float(np.sqrt(max(nn2, 0.0)))
        clusters.append(
            SpectralCluster(
                value=rep,
                mult=m,
                R=Rj,
                L=Lj,
                N=N,
                span=sp,
                nilpotent_norm=nn,
                on_circle=g in chosen,
            )
        )
    multi = [(slice(start[g], start[g] + mults[g]), Tjj) for g, Tjj in blocks.items()]
    resid = _reconstruction_error(E, R, L, diag, multi) / max(norm_E, 1e-300)
    return SpectralData(
        eigenvalues=vals,
        clusters=clusters,
        R=R,
        L=L,
        reconstruction_residual=resid,
        block_condition=cond,
    )


def _reconstruction_error(
    E: np.ndarray, R: np.ndarray, L: np.ndarray, diag: np.ndarray, multi: list
) -> float:
    """||R blockdiag(T_jj) L - E||_F, summed over slices of ``_SLICE`` columns
    so that no n x n product is formed.  blockdiag(T_jj) is the row scaling
    ``diag`` but for the blocks of m > 1, given as (span, T_jj) in ``multi``."""
    total = 0.0
    for c in range(0, E.shape[0], _SLICE):
        cols = slice(c, c + _SLICE)
        DL = diag[:, None] * L[:, cols]
        for sp, Tjj in multi:
            DL[sp] = Tjj @ L[sp, cols]
        D = R @ DL
        D -= E[:, cols]
        total += np.vdot(D, D).real
    return float(np.sqrt(total))


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


def verify_outgoing(im: InternalMatrix, mu, vec: np.ndarray) -> float | np.ndarray:
    """Sup-norm residual of the outgoing extension on a truncated system.

    Extends an internal eigenvector (E v = mu v) of ``im.E`` to a generalized
    eigenfunction of the full walk: zero on incoming tail arcs, geometric
    profile psi(out port j, distance l) = mu^{-(l-1)} psi(out, 1) with
    psi(out, 1) = (B_out v)_j / mu.  Returns max |(U - mu) psi| over the
    truncation at ``_OUTGOING_DEPTH + 2`` arcs per tail after normalising
    psi to unit sup norm.  Raises :class:`NotAResonance` for |mu| >= 1 (the
    extension grows along the tails only for genuine resonances, where it is
    the outgoing state) and below ``_OUTGOING_FLOOR`` (9.7e-15), where a unit
    state's profile overflows (mu = 0, or a nilpotent block of E rounded).

    ``mu`` may be an array of k eigenvalues, with their eigenvectors as the
    columns of ``vec``: the k residuals come back as an array, each as the
    one-state call gives it.

    The residual is read off the walk's structure, with no truncated walk
    (:class:`~tailwalk.coin_evolution.WalkOperator`) built.  Incoming tail
    arcs vanish, so every row of (U - mu) psi that reads them reads zero,
    and each outgoing row past the first is a shift, psi(out, l) -
    mu psi(out, l + 1) = 0.  That leaves two kinds of row: the internal
    ones, (E - mu) v, and each tail's first outgoing arc, (B_out v)_j -
    mu psi(out, 1).  With |mu| < 1 the profile grows along the tail, so
    max |psi| is the larger of max |v| and the last outgoing arc's
    max |psi(out, 1)| |mu|^-(D - 1), D = ``_OUTGOING_DEPTH + 2``.
    """
    mus = np.asarray(mu, dtype=complex).ravel()
    for m in mus.tolist():
        if not _OUTGOING_FLOOR <= abs(m) < 1.0:
            raise NotAResonance(f"|mu| = {abs(m):.3g} is not in [{_OUTGOING_FLOOR:.1e}, 1)")
    V = np.asarray(vec, dtype=complex).reshape(im.tg.num_arcs, len(mus))
    # the products column by column, each as its one-state call forms it; the
    # rest is elementwise and per-column maxima, the same bits for any k
    EV = np.empty_like(V)
    out = np.empty((im.tg.num_ports, len(mus)), dtype=complex)
    for j, v in enumerate(V.T):
        EV[:, j] = im.E @ v
        out[:, j] = im.B_out @ v
    first_out = out / mus
    last_out = np.abs(first_out).max(axis=0, initial=0.0) * np.abs(mus) ** -(_OUTGOING_DEPTH + 1)
    scale = np.maximum(np.abs(V).max(axis=0, initial=0.0), last_out)
    if not scale.all():
        raise ValueError("zero vector cannot be verified")
    internal = np.abs(EV - mus * V).max(axis=0, initial=0.0)
    ports = np.abs(out - mus * first_out).max(axis=0, initial=0.0)
    res = np.maximum(internal, ports) / scale
    return float(res[0]) if np.ndim(mu) == 0 else res
