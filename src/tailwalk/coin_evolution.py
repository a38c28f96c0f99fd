"""Coins and the (truncated) one-step evolution operator.

Interior internal vertices carry the Grover coin of their degree and never
depend on the coupling parameter.  A boundary vertex with n_i internal and
N tail slots carries the tunable product coin

    g_eps = blockdiag(G(n_i, eps), I_N) @ G(n, 1 - eps),     n = n_i + N,

where G(n, eps) = J/n - exp(-i*pi*eps)*(I - J/n).  At eps = 0 the tails
decouple (g_0 = blockdiag(grover(n_i), I_N)); at eps = 1 the coin is the
full Grover coin of size n.  Writing kappa = 1 - exp(i*pi*eps), every block
of g_eps is *exactly* linear in kappa; :func:`linearize` returns the two
coefficient matrices, from which :func:`~tailwalk.internal_spectral.build_E`
assembles E and the port blocks; all other machinery reads those.

Tail vertices (degree 2) carry grover(2) = [[0, 1], [1, 0]], i.e. free
shift dynamics along the tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "grover",
    "tunable_block",
    "boundary_coin",
    "linearize",
    "kappa",
    "WalkOperator",
]


def grover(n: int) -> np.ndarray:
    """Grover diffusion coin (2/n)J - I of size n."""
    return (2.0 / n) * np.ones((n, n)) - np.eye(n)


def tunable_block(n: int, eps: float) -> np.ndarray:
    """G(n, eps) = J/n - exp(-i pi eps)(I - J/n); G(n,0) = grover(n), G(n,1) = I."""
    J = np.ones((n, n), dtype=complex) / n
    return J - np.exp(-1j * np.pi * eps) * (np.eye(n) - J)


def kappa(eps: float) -> complex:
    """Coupling parameter kappa = 1 - exp(i pi eps)."""
    return 1.0 - np.exp(1j * np.pi * eps)


def boundary_coin(n: int, n_i: int, eps: float) -> np.ndarray:
    """Tunable coin at a boundary vertex, internal slots first.

    ``n`` is the total degree, ``n_i`` the internal degree; N = n - n_i is
    the number of tails.  With N = 0 this collapses to grover(n) for every
    eps (the two tunable factors multiply to the plain Grover coin).
    """
    if not (0 < n_i <= n):
        raise ValueError(f"need 0 < n_i <= n, got n_i={n_i}, n={n}")
    N = n - n_i
    left = np.zeros((n, n), dtype=complex)
    left[:n_i, :n_i] = tunable_block(n_i, eps)
    left[n_i:, n_i:] = np.eye(N)
    return left @ tunable_block(n, 1.0 - eps)


def linearize(n: int, n_i: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact decomposition boundary_coin(n, n_i, eps) = C0 + kappa(eps) * C1.

    C0 is the decoupled coin blockdiag(grover(n_i), I_N).  C1 has the block
    form (J denotes the all-ones matrix of the indicated shape)

        [ -(N/(n*n_i)) J_{n_i}      (1/n) J_{n_i x N} ]
        [  (1/n) J_{N x n_i}        (1/n) J_N - I_N   ]

    The kappa-conjugate contributions of the two factors cancel identically,
    so the decomposition is exact for every eps, not an expansion.
    """
    if not (0 < n_i <= n):
        raise ValueError(f"need 0 < n_i <= n, got n_i={n_i}, n={n}")
    N = n - n_i
    C0 = np.zeros((n, n), dtype=complex)
    C0[:n_i, :n_i] = grover(n_i)
    C0[n_i:, n_i:] = np.eye(N)
    C1 = np.zeros((n, n), dtype=complex)
    if N:
        C1[:n_i, :n_i] = -(N / (n * n_i)) * np.ones((n_i, n_i))
        C1[:n_i, n_i:] = np.ones((n_i, N)) / n
        C1[n_i:, :n_i] = np.ones((N, n_i)) / n
        C1[n_i:, n_i:] = np.ones((N, N)) / n - np.eye(N)
    return C0, C1


@dataclass
class _TailIndex:
    """Arc numbering of one truncated tail (port j, depth D).

    Incoming arcs flow toward the graph; in_arc(k) is the arc from tail
    vertex k+1 to tail vertex k (k = 0 enters the boundary vertex).
    Outgoing arcs flow away; out_arc(l) is the arc from vertex l-1 to l,
    l = 1..D.
    """

    base: int
    depth: int

    def in_arc(self, k: int) -> int:
        return self.base + k

    def out_arc(self, l: int) -> int:
        return self.base + self.depth + (l - 1)


class WalkOperator:
    """One walk step on the internal graph plus depth-truncated tails.

    The full step [[E, B_in], [B_out, B_bb]] of ``im``, an
    :class:`~tailwalk.internal_spectral.InternalMatrix`, acts on the
    internal arcs and the first arcs of the tails; beyond them the tail
    vertices' swap coin shifts each tail arc one step.  The matrix is exact
    away from the truncation edge: rows whose coin stencil pokes outside
    the truncation are recorded in ``invalid_rows`` (their entries read
    absent arcs as zero).  For a T-step evolution use depth >= T + 2 so
    the light cone never touches garbage.  It is the dense reference that
    :func:`~tailwalk.internal_spectral.verify_outgoing`, which reads the
    same residual off this structure, is tested against.
    """

    def __init__(self, im, depth: int):
        if depth < 2:
            raise ValueError("depth must be at least 2")
        M = im.E.shape[0]
        self.tails = [_TailIndex(M + j * 2 * depth, depth) for j in range(im.B_bb.shape[0])]
        self.dim = M + 2 * depth * len(self.tails)
        U = np.zeros((self.dim, self.dim), dtype=complex)
        invalid = np.zeros(self.dim, dtype=bool)

        first_in = [t.in_arc(0) for t in self.tails]
        first_out = [t.out_arc(1) for t in self.tails]
        U[:M, :M] = im.E
        U[:M, first_in] = im.B_in
        U[first_out, :M] = im.B_out
        U[np.ix_(first_out, first_in)] = im.B_bb

        # tail vertices carry the swap coin: outgoing moves out, incoming in
        for t in self.tails:
            for k in range(1, depth + 1):
                # vertex k outputs: out_arc(k+1) <- out_arc(k), in_arc(k-1) <- in_arc(k)
                if k + 1 <= depth:
                    U[t.out_arc(k + 1), t.out_arc(k)] = 1.0
                if k <= depth - 1:
                    U[t.in_arc(k - 1), t.in_arc(k)] = 1.0
                else:
                    invalid[t.in_arc(k - 1)] = True  # reads the absent in_arc(depth)
        self.matrix = U
        self.invalid_rows = invalid
