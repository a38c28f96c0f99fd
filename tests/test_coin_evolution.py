"""Coins, their exact kappa splitting, and the truncated walk operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tailwalk import build_E, build_E_split
from tailwalk.coin_evolution import (
    WalkOperator,
    boundary_coin,
    grover,
    kappa,
    linearize,
    tunable_block,
)


def _is_unitary(M, tol=1e-12):
    n = M.shape[0]
    return np.linalg.norm(M.conj().T @ M - np.eye(n)) < tol


def test_grover_small_cases():
    assert_allclose(grover(2), [[0, 1], [1, 0]])
    assert_allclose(grover(3), 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3))


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_grover_is_a_reflection(n):
    G = grover(n)
    assert_allclose(G @ G, np.eye(n), atol=1e-14)
    assert_allclose(G, G.T)


def test_kappa_endpoints():
    assert kappa(0.0) == 0.0
    assert_allclose(kappa(1.0), 2.0, atol=1e-15)
    assert_allclose(kappa(0.5), 1.0 - 1.0j, atol=1e-15)
    for e in np.linspace(0, 1, 7):
        assert_allclose(abs(kappa(e)), 2 * np.sin(np.pi * e / 2), atol=1e-14)


def test_tunable_block_interpolates():
    for n in (2, 3, 5):
        assert_allclose(tunable_block(n, 0.0), grover(n), atol=1e-14)
        assert_allclose(tunable_block(n, 1.0), np.eye(n), atol=1e-14)
        for e in (0.1, 0.25, 0.9):
            assert _is_unitary(tunable_block(n, e))


@pytest.mark.parametrize("n,n_i", [(3, 2), (4, 2), (5, 3), (6, 2)])
def test_boundary_coin_unitary_and_endpoints(n, n_i):
    N = n - n_i
    for e in (0.0, 0.1, 0.25, 0.5, 0.77, 1.0):
        assert _is_unitary(boundary_coin(n, n_i, e))
    g0 = boundary_coin(n, n_i, 0.0)
    expect0 = np.zeros((n, n), dtype=complex)
    expect0[:n_i, :n_i] = grover(n_i)
    expect0[n_i:, n_i:] = np.eye(N)
    assert_allclose(g0, expect0, atol=1e-14)
    assert_allclose(boundary_coin(n, n_i, 1.0), grover(n), atol=1e-14)


def test_boundary_coin_without_tails_is_plain_grover():
    for e in (0.0, 0.3, 1.0):
        assert_allclose(boundary_coin(3, 3, e), grover(3), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_linearize_is_exact_not_an_expansion(n_i, N, eps):
    n = n_i + N
    C0, C1 = linearize(n, n_i)
    direct = boundary_coin(n, n_i, eps)
    assert np.max(np.abs(direct - (C0 + kappa(eps) * C1))) < 5e-15


@pytest.mark.parametrize("n,n_i", [(3, 2), (4, 3), (4, 2), (5, 3)])
def test_boundary_coin_tail_block_moves_at_first_order(n, n_i):
    """Each tail's reflection is 1/n + e^{i pi eps}(1 - 1/n) = 1 + kappa(1/n - 1):
    the direct port-to-port block leaves the identity at first order in eps,
    whatever the internal graph, and C1's tail block is (1/n) J_N - I_N."""
    N = n - n_i
    _, C1 = linearize(n, n_i)
    assert_allclose(C1[n_i:, n_i:], np.ones((N, N)) / n - np.eye(N), atol=1e-15)
    for e in (0.01, 0.25, 0.7):
        tail = boundary_coin(n, n_i, e)[n_i:, n_i:]
        assert_allclose(np.diag(tail), 1 + kappa(e) * (1 / n - 1), atol=1e-14)


def test_interior_coin_is_eps_independent():
    # a vertex without tails (here of degree 2) keeps its plain Grover coin,
    # the swap, for every eps: its C1 vanishes
    for e in (0.0, 0.25, 1.0):
        assert_allclose(boundary_coin(2, 2, e), [[0, 1], [1, 0]], atol=1e-15)
    C0, C1 = linearize(2, 2)
    assert_allclose(C0, [[0, 1], [1, 0]], atol=1e-16)
    assert_allclose(C1, 0, atol=1e-16)


class TestWalkOperator:
    def test_shape_and_invalid_rows(self, c4a):
        w = WalkOperator(build_E(c4a, 0.25), depth=6)
        assert w.dim == c4a.num_arcs + 2 * 6 * 3
        # exactly one garbage row per truncated tail
        assert int(w.invalid_rows.sum()) == c4a.num_ports

    def test_norm_preserved_inside_light_cone(self, k4a):
        rng = np.random.default_rng(7)
        depth = 9
        w = WalkOperator(build_E(k4a, 0.25), depth=depth)
        psi = np.zeros(w.dim, dtype=complex)
        psi[: k4a.num_arcs] = rng.standard_normal(k4a.num_arcs) + 1j * rng.standard_normal(
            k4a.num_arcs
        )
        psi /= np.linalg.norm(psi)
        for _ in range(1, depth - 1):
            psi = w.matrix @ psi
            assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)

    def test_apply_matches_matrix_power_and_guards_depth(self, c4a):
        with pytest.raises(ValueError):
            WalkOperator(build_E(c4a, 0.4), depth=1)

    @pytest.mark.parametrize("eps", [0.1, 0.25])
    def test_restriction_reproduces_port_blocks(self, k4a, k4_multi, eps):
        """The boundary matrix and port blocks read off the truncated walk
        must coincide with the vertex-operator ones, which share no code
        with build_E."""
        k = kappa(eps)
        for tg in (k4a, k4_multi):
            E0, E1, B_in1, B_out1, B_bb1 = build_E_split(tg)
            w = WalkOperator(build_E(tg, eps), depth=5)
            M = tg.num_arcs
            internal = np.arange(M)
            first_in = [t.in_arc(0) for t in w.tails]
            first_out = [t.out_arc(1) for t in w.tails]
            U = w.matrix
            assert_allclose(U[np.ix_(internal, internal)], E0 + k * E1, atol=1e-15)
            assert_allclose(U[np.ix_(internal, first_in)], k * B_in1, atol=1e-15)
            assert_allclose(U[np.ix_(first_out, internal)], k * B_out1, atol=1e-15)
            assert_allclose(U[np.ix_(first_out, first_in)], np.eye(tg.num_ports) + k * B_bb1,
                            atol=1e-15)
