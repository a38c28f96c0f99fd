"""Boundary matrix assembly and its spectral bookkeeping."""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import tailwalk
from tailwalk import attach_tails, build_E, internal_spectral, preset_graph
from tailwalk.coin_evolution import linearize
from tailwalk.internal_spectral import (
    ClusterAmbiguity,
    NotAResonance,
    _greedy_clusters,
    build_E_split,
    projection_contour_oracle,
    resonances,
    spectral_decompose,
    verify_outgoing,
)
from tailwalk.perturbation import total_projection


def test_zero_coupling_decouples(im_c4a):
    im0 = im_c4a.at(0.0)
    assert_allclose(im0.E, im0.E0, atol=1e-15)
    assert_allclose(im0.B_in, 0, atol=1e-15)
    assert_allclose(im0.B_out, 0, atol=1e-15)
    assert_allclose(im0.B_bb, np.eye(3), atol=1e-15)


def test_blocks_are_exactly_kappa_linear(k4a, im_k4a):
    """Direct assembly at eps and the linear form at eps must agree to
    rounding; the splitting is an identity, not a truncation."""
    for eps in (0.03, 0.25, 0.8, 1.0):
        direct = build_E(k4a, eps)
        linear = im_k4a.at(eps)
        for name in ("E", "B_in", "B_out", "B_bb"):
            assert_allclose(
                getattr(direct, name), getattr(linear, name), atol=2e-15, err_msg=name
            )


def test_direct_port_block_is_the_coin_tail_block(suite_graphs, k4_multi):
    """B_bb1 couples only ports on one vertex, through C1's tail block."""
    for name, tg in {**suite_graphs, "k4-multi": k4_multi}.items():
        B_bb1 = build_E(tg).B_bb1
        expect = np.zeros_like(B_bb1)
        for v in range(tg.graph.num_vertices):
            pids = tg.ports_at(v)
            if not pids:
                continue
            n_i = int(tg.deg_int[v])
            _, C1 = linearize(int(tg.total_deg[v]), n_i)
            expect[np.ix_(pids, pids)] = C1[n_i:, n_i:]
        assert_allclose(B_bb1, expect, atol=1e-15, err_msg=name)


def test_split_assembly_agrees_with_coin_assembly(suite_graphs):
    # two routes to (E0, E1) that share no code
    for name, tg in suite_graphs.items():
        im = build_E(tg)
        E0, E1 = build_E_split(tg)
        assert_allclose(im.E0, E0, atol=1e-13, err_msg=name)
        assert_allclose(im.E1, E1, atol=1e-13, err_msg=name)


def test_boundary_matrix_is_a_contraction(suite_graphs):
    for tg in suite_graphs.values():
        for eps in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            E = build_E(tg, eps).E
            assert np.linalg.norm(E, 2) <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def sd(im_k4a):
    return spectral_decompose(im_k4a.at(0.25).E)


class TestSpectralDecompose:
    def test_projections_resolve_identity(self, sd):
        n = sd.matrix.shape[0]
        total = sum(c.projection for c in sd.clusters)
        assert_allclose(total, np.eye(n), atol=1e-11)
        for c in sd.clusters:
            assert_allclose(c.projection @ c.projection, c.projection, atol=1e-11)
        for i, a in enumerate(sd.clusters):
            for b in sd.clusters[i + 1 :]:
                assert np.linalg.norm(a.projection @ b.projection) < 1e-11

    def test_multiplicities_and_reconstruction(self, sd):
        assert sum(c.mult for c in sd.clusters) == sd.matrix.shape[0]
        assert sd.reconstruction_residual < 1e-11
        for c in sd.clusters:
            assert c.nilpotent_norm < 1e-10

    def test_cluster_near(self, sd):
        c = sd.cluster_near(1.0 + 0j)
        assert abs(c.value - 1.0) < 1e-9
        with pytest.raises(KeyError):
            sd.cluster_near(0.123 + 0.456j, tol=1e-6)


def test_on_circle_split_at_working_coupling(im_c4a):
    # the two persistent states stay on the circle, everything else moves in
    sd = spectral_decompose(im_c4a.at(0.25).E)
    on = [c for c in sd.clusters if c.on_circle]
    assert sorted(np.round(c.value, 9) for c in on) == [-1.0, 1.0]
    assert len(resonances(sd)) == len(sd.clusters) - 2


def test_schur_projector_matches_contour_oracle(im_c4a, im_k4a):
    # E0 of both graphs has clusters of multiplicity >= 2
    for E, top_mult in ((im_c4a.at(0.25).E, 1), (im_c4a.E0, 2), (im_k4a.E0, 2)):
        sd = spectral_decompose(E)
        assert max(c.mult for c in sd.clusters) >= top_mult
        vals = sd.values()
        for c in sd.clusters:
            gaps = [abs(c.value - v) for v in vals if abs(v - c.value) > 1e-9]
            r = 0.4 * min(gaps)
            P_ref = projection_contour_oracle(E, c.value, r, nodes=96)
            assert np.linalg.norm(c.projection - P_ref) < 1e-7


def test_defective_cluster_recovers_the_jordan_block():
    # E = V J V^-1 with J = [[a, 1], [0, a]] (+) diag(b, c): the projector and
    # the nilpotent of the Jordan block are known in closed form
    rng = np.random.default_rng(5)
    V = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Vinv = np.linalg.inv(V)
    a = 0.5 + 0.2j
    J = np.diag([a, a, -0.4 + 0.1j, 0.1 - 0.6j])
    J[0, 1] = 1.0
    P_true = V @ np.diag([1.0, 1.0, 0.0, 0.0]) @ Vinv
    N_true = V[:, :1] @ Vinv[1:2, :]
    # the double eigenvalue splits by ~sqrt(rounding) in eigvals
    sd = spectral_decompose(V @ J @ Vinv, cluster_tol=1e-6)
    assert [c.mult for c in sd.clusters].count(2) == 1 and len(sd.clusters) == 3
    jb = sd.cluster_near(a, tol=1e-6)
    assert_allclose(jb.projection, P_true, atol=1e-12)
    assert_allclose(jb.nilpotent, N_true, atol=1e-12)
    for c in sd.clusters:
        assert_allclose(c.projection @ c.projection, c.projection, atol=1e-12)
        for d in sd.clusters:
            if d is not c:
                assert np.linalg.norm(c.projection @ d.projection) < 1e-12
    assert sd.reconstruction_residual < 1e-14


@pytest.mark.parametrize("routine", ["ztrsen", "ztrsyl"])
def test_lapack_failure_is_a_cluster_ambiguity(monkeypatch, im_c4a, routine):
    real = getattr(internal_spectral, routine)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(internal_spectral, routine, failing)
    with pytest.raises(ClusterAmbiguity, match=routine):
        spectral_decompose(im_c4a.at(0.25).E)


@pytest.fixture
def schur_calls(monkeypatch):
    calls = []
    real = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    return calls


def test_one_schur_form_per_decomposition(schur_calls, c4a):
    tg16 = attach_tails(preset_graph("cycle:16"), (0, 1, 2, 3))
    for tg in (c4a, tg16):
        schur_calls.clear()
        sd = spectral_decompose(build_E(tg, 0.25).E)
        assert len(sd.clusters) > 2
        assert schur_calls == [(tg.num_arcs, tg.num_arcs)]


def test_one_schur_form_per_total_projection(schur_calls, im_c4a):
    sd0 = spectral_decompose(im_c4a.E0)
    schur_calls.clear()
    total_projection(im_c4a, 0.1, 1 + 0j, sd0)
    assert len(schur_calls) == 1


def test_no_sylvester_solver_left_in_the_package():
    src = Path(tailwalk.__file__).parent
    assert not [p.name for p in src.rglob("*.py") if "solve_sylvester" in p.read_text()]


def _union_find_clusters(vals, tol):
    """Reference: the pairwise union-find loop _greedy_clusters replaced."""
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(vals)):
        groups.setdefault(find(i), []).append(i)
    out = list(groups.values())
    out.sort(key=lambda ix: (np.mean(vals[ix]).real, np.mean(vals[ix]).imag))
    return out


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 0.03, 0.0, float("nan")]),
)
def test_greedy_clusters_match_union_find(points, seed, tol):
    # points on a coarse grid plus jitter below and near the tolerance, so
    # chains, duplicates and near-misses all occur; a zero or NaN tolerance
    # must leave every eigenvalue in a group of its own
    rng = np.random.default_rng(seed)
    vals = np.array([complex(x, y) * 0.08 for x, y in points])
    vals = vals + rng.uniform(-0.02, 0.02, len(vals)) + 1j * rng.uniform(-0.02, 0.02, len(vals))
    got = [ix.tolist() for ix in _greedy_clusters(vals, tol)]
    assert got == _union_find_clusters(vals, tol)


def test_contour_oracle_rejects_coarse_quadrature(im_c4a):
    with pytest.raises(ValueError):
        projection_contour_oracle(im_c4a.E0, 1.0, 0.5, nodes=32)


def test_cluster_ambiguity_is_raised_not_papered_over(im_c4a):
    # gaps in sigma(E0) are sqrt(2); a tolerance of 0.2 leaves the clusters
    # distinct but within the 10x safety margin
    with pytest.raises(ClusterAmbiguity):
        spectral_decompose(im_c4a.E0, cluster_tol=0.2)


def test_outgoing_extension_of_a_resonance(c4a):
    eps = 0.25
    E = build_E(c4a, eps).E
    vals, vecs = np.linalg.eig(E)
    inside = np.where(np.abs(vals) < 1 - 1e-6)[0]
    assert inside.size > 0
    k = inside[np.argmin(np.abs(vals[inside]))]
    res = verify_outgoing(c4a, eps, vals[k], vecs[:, k], depth=20)
    assert res < 1e-8


def test_outgoing_extension_rejects_circle_points(c4a):
    v = np.ones(c4a.num_arcs, dtype=complex)
    with pytest.raises(NotAResonance):
        verify_outgoing(c4a, 0.25, 1.0 + 0j, v)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_confinement_property(eps):
    # eigenvalues never leave the closed unit disk, for any coupling
    from tailwalk import attach_tails, preset_graph

    tg = attach_tails(preset_graph("complete:4"), (0, 1, 2))
    vals = np.linalg.eigvals(build_E(tg, eps).E)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-10
