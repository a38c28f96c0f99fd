"""Two-stage reduction, eigenvalue asymptotics, and the resonant limit.

The numeric targets in here were frozen from contour-integral and
brute-force eigenvalue computations before the reduction code existed;
they are inputs to the tests, not snapshots of their output.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from test_tailed_graph import connected_graphs

from tailwalk import perturbation
from tailwalk.coin_evolution import kappa
from tailwalk.internal_spectral import (
    ClusterAmbiguity,
    build_E,
    projection_contour_oracle,
    spectral_decompose,
)
from tailwalk.perturbation import (
    AssumptionReport,
    Coupling,
    Family,
    GroupEscapedContour,
    assumption_report,
    fit_loglog_slope,
    projection_expansion,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
    total_projection,
)
from tailwalk.scattering import unitarity_defect
from tailwalk.smt_laplacian import (
    _boundary_gram,
    build_operators,
    classify,
    joukowsky,
    lift,
    unit_sign,
)
from tailwalk.tailed_graph import attach_tails, build_internal, preset_graph

MU_K4 = complex(-1 / 3, 2 * np.sqrt(2) / 3)  # e^{i theta}, cos theta = -1/3


# --------------------------------------------------------------------------
# the graph-side cross-check of the reduction: M1 and M2 against arc space
# --------------------------------------------------------------------------

def lifted_basis(lt, mu):
    """boundary_gram's basis lifted to arc space: it spans Ran(P_mu | lifted,
    non-persistent), where the matrix of P X P is gamma mu M1."""
    return lift(lt, mu, lt.eigenspace(joukowsky(mu).real)[1])


def direct_residual(im, mu):
    """||U* X U - gamma mu M1|| on the lifted basis U: the arc-space route to
    A1 against the graph-side one, with gamma the arc side's."""
    lt = build_operators(im.tg)
    U = lifted_basis(lt, mu)
    X = im.U1 @ im.V1.T
    gamma = perturbation._gamma_scalar(mu)
    return float(np.linalg.norm(U.conj().T @ X @ U - gamma * mu * lt.boundary_gram(mu)))


def build_M2(lt, mu, zeta):
    """Second-order boundary Gram matrix between the mu and zeta eigendata.

    Shape (s(zeta), s(mu)); adjoint symmetry build_M2(mu, zeta) =
    build_M2(zeta, mu)^* holds by construction of the weighted Gram form.
    """
    Gm = lt.eigenspace(joukowsky(mu).real)[1]
    Gz = lt.eigenspace(joukowsky(zeta).real)[1]
    return _boundary_gram(lt, Gz, Gm)


def _omega(z):
    sign = unit_sign(z)
    if sign:
        return float(-sign)
    return float(np.sign(np.sin(np.angle(z)))) / np.sqrt(2.0)


def mu2_bound_check(base, ledger):
    """Second-order magnitude bound plus the graph-side cross validation.

    Checks |mu2| <= gap^{-1} (#sigma_p - 1) (min_boundary n)^{-2} for every
    branch, and validates, for every other eigenvalue zeta, the product
    identity  [P X P_zeta X P]_lifted = mu zeta w_mu^2 w_zeta^2 M2* M2,
    which ties the arc-space operators to the boundary Gram matrices.
    """
    tg = base.im.tg
    lt = build_operators(tg)
    mu = ledger.mu
    cl = base.sd.cluster_near(mu)
    minn = min(int(tg.total_deg[v]) for v in tg.boundary_vertices)
    gap = min((abs(c.value - mu) for c in base.sd.clusters if c is not cl), default=1.0)
    bound = (1.0 / gap) * (len(base.sd.clusters) - 1) * minn ** (-2)
    max_mu2 = max(abs(b.mu2) for b in ledger.branches)
    U = lifted_basis(lt, mu)
    X = base.im.U1 @ base.im.V1.T
    cross = {}
    for c in base.sd.clusters:
        if c is cl:
            continue
        zeta = c.value
        arc_side = (U.conj().T @ X @ c.R) @ (c.L @ X @ U)
        M2 = build_M2(lt, mu, zeta)
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


def coupling(im, eps):
    """E(eps) factored at the default tolerances."""
    return Coupling(im.at(eps), spectral_decompose(im.at(eps).E))


def couplings(im, eps_values):
    """{eps: Coupling} in the given order."""
    return {e: coupling(im, e) for e in eps_values}


@pytest.fixture(scope="module")
def sd_c4(im_c4a):
    return spectral_decompose(im_c4a.E0)


@pytest.fixture(scope="module")
def sd_k4(im_k4a):
    return spectral_decompose(im_k4a.E0)


@pytest.fixture(scope="module")
def base_c4(im_c4a, sd_c4):
    """The unperturbed problem of c4-3tails-a: E0 decomposed, T's eigenspaces."""
    return Coupling(im_c4a, sd_c4)


@pytest.fixture(scope="module")
def base_k4(im_k4a, sd_k4):
    return Coupling(im_k4a, sd_k4)


class TestTotalProjection:
    def test_matches_contour_oracle(self, im_c4a, base_c4):
        P = total_projection(coupling(im_c4a, 0.1), reduce_eigenvalue(base_c4, 1 + 0j))
        P_ref = projection_contour_oracle(im_c4a.at(0.1).E, 1.0, 0.4, nodes=96)
        assert np.linalg.norm(P - P_ref) < 1e-10
        assert_allclose(P @ P, P, atol=1e-12)
        assert_allclose(np.trace(P), 2.0, atol=1e-12)  # moving branch + persistent state

    def test_continuity_towards_zero_coupling(self, im_c4a, base_c4):
        led = reduce_eigenvalue(base_c4, 1j)
        P0 = led.cluster.projection
        for eps in (0.02, 0.005):
            P = total_projection(coupling(im_c4a, eps), led)
            assert np.linalg.norm(P - P0) < 3.0 * abs(kappa(eps))

    def test_full_coupling_group_is_answered(self, im_c4a, base_c4):
        # at eps 1.0 the moving eigenvalue has gone 1 -> 0.4224, 0.817 of the
        # way to the disk's edge, and the persistent one stays at 1: the disk
        # holds the group, and a circle between it and the rest agrees
        cpl = coupling(im_c4a, 1.0)
        P = total_projection(cpl, reduce_eigenvalue(base_c4, 1 + 0j))
        assert_allclose(np.trace(P), 2.0, atol=1e-12)
        P_ref = projection_contour_oracle(cpl.im.E, 1.0, 0.85, nodes=128)
        assert np.linalg.norm(P - P_ref) < 1e-12

    def test_escape_is_reported_not_guessed(self):
        # two E0 eigenvalues 7.2e-3 apart: at eps 0.02 the disk of one of
        # them holds two eigenvalues for multiplicity one, and the other's
        # none, so neither group is guessed
        g = build_internal(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 6), (2, 5), (2, 6),
                               (4, 5)])
        im = build_E(attach_tails(g, (4, 6, 4, 5)))
        base = Coupling(im, spectral_decompose(im.E0))
        cpl = coupling(im, 0.02)
        counts = []
        for mu0 in (-0.7452 - 0.6668j, -0.75 - 0.6614j):
            led = reduce_eigenvalue(base, mu0)
            assert led.cluster.mult == 1 and 7e-3 < led.gap < 7.3e-3
            counts.append(int(np.sum(np.abs(cpl.sd.eigenvalues - led.mu) < led.gap / 2)))
            with pytest.raises(GroupEscapedContour):
                total_projection(cpl, led)
        assert counts == [2, 0]

    def test_one_circle_of_half_the_gap(self):
        # at eps 0.2 the group of this simple eigenvalue (gap 0.188) is its
        # one eigenvalue at 0.183 r of r = gap / 2, and a neighbour lies at
        # 1.179 r, outside the disk: the group is answered, and a circle
        # between the two agrees
        g = build_internal(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (3, 4)])
        im = build_E(attach_tails(g, (0, 3, 0)))
        led = reduce_eigenvalue(Coupling(im, spectral_decompose(im.E0)), -0.6531 + 0.7573j)
        assert led.cluster.mult == 1 and 0.18 < led.gap < 0.19
        cpl = coupling(im, 0.2)
        d = np.sort(np.abs(cpl.sd.eigenvalues - led.mu) / (led.gap / 2))
        assert d[0] < 0.2 and 1.1 < d[1] < 1.25
        P = total_projection(cpl, led)
        assert_allclose(np.trace(P), 1.0, atol=1e-12)
        P_ref = projection_contour_oracle(cpl.im.E, led.mu, 0.06, nodes=128)
        assert np.linalg.norm(P - P_ref) < 1e-12


class TestReduceEigenvalue:
    """Frozen branch tables for the two reference graphs."""

    def test_c4_plus_one(self, base_c4):
        led = reduce_eigenvalue(base_c4, 1 + 0j)
        assert (led.cluster.mult, led.gamma) == (2, 1.0)
        moving = [b for b in led.branches if not b.persistent]
        frozen = [b for b in led.branches if b.persistent]
        assert len(moving) == 1 and len(frozen) == 1
        assert_allclose(moving[0].mu1, -0.25, atol=1e-10)
        assert_allclose(moving[0].mu2, -1 / 96, atol=1e-10)
        assert moving[0].eta1 is not None
        assert_allclose(moving[0].eta1, -0.25, atol=1e-10)
        assert_allclose(frozen[0].mu1, 0, atol=1e-10)
        assert_allclose(frozen[0].mu2, 0, atol=1e-10)

    def test_c4_minus_one_mirrors_plus_one(self, base_c4):
        led = reduce_eigenvalue(base_c4, -1 + 0j)
        assert led.gamma == 1.0
        moving = [b for b in led.branches if not b.persistent]
        assert_allclose(moving[0].mu1, 0.25, atol=1e-10)
        assert_allclose(moving[0].mu2, 1 / 96, atol=1e-10)
        # the boundary scalar is the same at both signs; mu1 = gamma mu eta1
        # picks up the sign of mu
        assert moving[0].eta1 is not None
        assert_allclose(moving[0].eta1, -0.25, atol=1e-10)

    def test_c4_imaginary_pair(self, base_c4):
        led = reduce_eigenvalue(base_c4, 1j)
        assert led.gamma == 0.5
        assert not any(b.persistent for b in led.branches)
        got = sorted(
            ((b.mu1, b.mu2) for b in led.branches), key=lambda p: abs(p[0])
        )
        assert_allclose(got[0][0], -1j / 12, atol=1e-10)
        assert_allclose(got[0][1], -1j / 96, atol=1e-10)
        assert_allclose(got[1][0], -1j / 6, atol=1e-10)
        assert_allclose(got[1][1], -1j / 72, atol=1e-10)
        # first-stage eigenvalues are the mu1 and eta = mu1/(gamma mu)
        assert_allclose(
            sorted(b.eta1 for b in led.branches), [-1 / 3, -1 / 6], atol=1e-10
        )

    def test_k4_plus_one(self, base_k4):
        led = reduce_eigenvalue(base_k4, 1 + 0j)
        assert led.cluster.mult == 4
        moving = [b for b in led.branches if not b.persistent]
        frozen = [b for b in led.branches if b.persistent]
        assert [b.multiplicity for b in moving] == [1]
        assert [b.multiplicity for b in frozen] == [3]
        assert_allclose(moving[0].mu1, -3 / 16, atol=1e-10)
        assert_allclose(moving[0].mu2, -3 / 512, atol=1e-10)

    def test_k4_purely_persistent_group(self, base_k4):
        # A1 = 0 to rounding here: the stage-one Hermitian bound is absolute,
        # so its floating-point noise passes it
        led = reduce_eigenvalue(base_k4, -1 + 0j)
        assert len(led.branches) == 1
        b = led.branches[0]
        assert b.persistent and b.multiplicity == 2
        assert abs(b.mu1) < 1e-12 and abs(b.mu2) < 1e-12

    def test_k4_complex_group_splits_one_plus_two(self, base_k4):
        led = reduce_eigenvalue(base_k4, MU_K4)
        assert led.cluster.mult == 3 and led.gamma == 0.5
        by_mult = {b.multiplicity: b for b in led.branches}
        assert set(by_mult) == {1, 2}
        assert_allclose(by_mult[1].mu1, -MU_K4 / 32, atol=1e-10)
        assert_allclose(by_mult[2].mu1, -MU_K4 / 8, atol=1e-10)
        assert_allclose(by_mult[2].mu2, -3j * np.sqrt(2) / 512, atol=1e-10)
        assert_allclose(by_mult[1].mu2, 3 / 1024 - 15j * np.sqrt(2) / 8192, atol=1e-10)
        assert_allclose(by_mult[1].eta1, -1 / 16, atol=1e-10)
        assert_allclose(by_mult[2].eta1, -1 / 4, atol=1e-10)
        # the conjugate group carries the conjugate data
        led_c = reduce_eigenvalue(base_k4, np.conj(MU_K4))
        got = sorted((b.mu1 for b in led_c.branches), key=abs)
        assert_allclose(got[0], np.conj(by_mult[1].mu1), atol=1e-10)
        assert_allclose(got[1], np.conj(by_mult[2].mu1), atol=1e-10)

    def test_branch_projections_resolve_the_group(self, im_k4a, base_k4):
        led = reduce_eigenvalue(base_k4, 1 + 0j)
        n = im_k4a.E0.shape[0]
        total = sum(b.P2 for b in led.branches)
        assert np.linalg.norm(total - base_k4.sd.cluster_near(led.mu).projection) < 1e-9
        for b in led.branches:
            # P2 is kept as factors and formed on demand
            assert b.basis.shape == b.left.shape[::-1] == (n, b.multiplicity)
            assert np.linalg.norm(b.P2 @ b.P2 - b.P2) < 1e-9
            assert np.linalg.norm((im_k4a.E0 - led.mu * np.eye(n)) @ b.P2) < 1e-9
            # stage-1 operator acts as mu1 on the branch range
            assert (
                np.linalg.norm(b.P2 @ (im_k4a.U1 @ im_k4a.V1.T) @ b.P2 - b.mu1 * b.P2) < 1e-8
            )

    def test_families_partition_the_moving_branches(self, suite_graphs):
        for name, tg in suite_graphs.items():
            base = Coupling(im := build_E(tg), spectral_decompose(im.E0))
            for cl in base.sd.clusters:
                led = reduce_eigenvalue(base, cl.value)
                moving = [b for b in led.branches if abs(b.mu1) >= 1e-10]
                assert [b for f in led.families for b in f.branches] == moving, name
                for f in led.families:
                    assert all(b.mu1 == f.mu1 for b in f.branches), name

    @pytest.mark.parametrize("preset,tails", [("cycle:12", (0, 1, 2)), ("cycle:48", (0, 1, 2))])
    def test_order_survives_a_change_of_basis(self, preset, tails):
        # at mu = +-i, Re mu1 = gamma eta1 Re mu is rounding noise: families
        # come in ascending eta1, and their branches in an order that a
        # unitary change of the basis of Ran P does not flip
        im = build_E(attach_tails(preset_graph(preset), tails))
        base = Coupling(im, spectral_decompose(im.E0))
        rng = np.random.default_rng(7)
        for mu0 in (1j, -1j):
            cl = base.sd.cluster_near(mu0)
            ref = reduce_eigenvalue(base, mu0)
            etas = [f.eta1 for f in ref.families]
            assert len(etas) >= 2 and etas == sorted(etas)
            for _ in range(4):
                G = rng.standard_normal((cl.mult, cl.mult * 2)).view(complex)
                U = np.linalg.qr(G)[0]
                # turn the decomposition's R and L, whose views the clusters are
                R, L = base.sd.R.copy(), base.sd.L.copy()
                R[:, cl.span] = R[:, cl.span] @ U
                L[cl.span] = U.conj().T @ L[cl.span]
                clusters = [replace(c, R=R[:, c.span], L=L[c.span]) for c in base.sd.clusters]
                sd = replace(base.sd, clusters=clusters, R=R, L=L)
                led = reduce_eigenvalue(replace(base, sd=sd), mu0)
                assert_allclose([f.eta1 for f in led.families], etas, atol=1e-12)
                assert_allclose([b.mu1 for b in led.branches], [b.mu1 for b in ref.branches],
                                atol=1e-12)
                assert_allclose([b.mu2 for b in led.branches], [b.mu2 for b in ref.branches],
                                atol=1e-12)
                # the branches are read through the turned basis: a reduction
                # that mixed it with an unturned one would misplace each P2
                for b, b_ref in zip(led.branches, ref.branches, strict=True):
                    assert np.linalg.norm(b.P2 - b_ref.P2) <= 1e-12

    @pytest.mark.parametrize("preset,tails,sizes", [
        ("cycle:4", (0, 1, 2), []),  # every stage-one group has one member or is persistent
        ("complete:16", (0, 0, 1, 2), []),  # persistent groups of up to 105
        ("cycle:12", (0, 1, 2), [2, 2, 2, 2]),  # two branches share mu1 at e^{+-2 pi i/3}
    ])
    def test_stage_two_decomposes_only_moving_groups_of_two(
        self, preset, tails, sizes, count_factorisations
    ):
        im = build_E(attach_tails(preset_graph(preset), tails))
        base = Coupling(im, spectral_decompose(im.E0))
        with count_factorisations() as seen:
            for cl in base.sd.clusters:
                reduce_eigenvalue(base, cl.value)
        assert sorted(n for _, n in seen["decompose"]) == sizes

    def test_takes_no_qr_of_an_arc_sized_matrix(self, monkeypatch):
        # E0's clusters come orthonormal (L = R*), so Ran P needs no QR of its
        # own: stage two's QR of an m x m matrix is the only one
        im = build_E(attach_tails(preset_graph("complete:16"), (0, 0, 1, 2)))
        base = Coupling(im, spectral_decompose(im.E0))
        rows = []
        real_qr = np.linalg.qr

        def qr(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr)
        for cl in base.sd.clusters:
            reduce_eigenvalue(base, cl.value)
        assert max(rows, default=0) < im.E0.shape[0]

    def test_bare_reduction_finds_no_gap_and_no_a3(self, monkeypatch):
        # a ledger forms gap and a3 on first use: an all-cluster reduction
        # that never reads them pays for neither
        im = build_E(attach_tails(preset_graph("cycle:12"), (0, 1, 2)))
        base = Coupling(im, spectral_decompose(im.E0))
        gaps = []
        real_gap = perturbation._gap
        monkeypatch.setattr(perturbation, "_gap", lambda *a: gaps.append(a) or real_gap(*a))
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
        assert len(ledgers) == 12 and gaps == []
        assert not any({"gap", "a3"} & vars(led).keys() for led in ledgers)
        led = ledgers[0]
        first = (led.a3, led.gap)  # a3 reads gap: one _gap call for both
        assert (led.a3, led.gap) == first and len(gaps) == 1


class TestGraphSideMatrices:
    def test_m1_eigenvalues_c4_imaginary(self, c4a, im_c4a):
        M1 = build_operators(c4a).boundary_gram(1j)
        assert_allclose(np.linalg.eigvalsh(M1), [-1 / 3, -1 / 6], atol=1e-12)
        # arc-space route P X P and graph-side route gamma mu M1 agree
        assert direct_residual(im_c4a, 1j) < 1e-12
        assert_allclose(M1, M1.conj().T, atol=1e-14)

    @pytest.mark.parametrize("mu", [1 + 0j, -1 + 0j], ids=["plus1", "minus1"])
    def test_m1_eigenvalue_c4_at_plus_minus_one(self, c4a, im_c4a, mu):
        eta1 = np.linalg.eigvalsh(build_operators(c4a).boundary_gram(mu))
        assert_allclose(eta1, [-0.25], atol=1e-12)
        assert direct_residual(im_c4a, mu) < 1e-12

    def test_m1_spectral_range(self, suite_graphs):
        for name, tg in suite_graphs.items():
            lt_min = min(int(tg.total_deg[v]) for v in tg.boundary_vertices)
            lt = build_operators(tg)
            for mu in (1 + 0j, 1j):
                eta1 = np.linalg.eigvalsh(lt.boundary_gram(mu))
                if eta1.size == 0:
                    continue
                assert np.all(eta1 <= 1e-12), name
                assert np.all(eta1 >= -1.0 / lt_min - 1e-12), name

    def test_m2_adjoint_symmetry(self, k4a):
        lt = build_operators(k4a)
        A = build_M2(lt, 1 + 0j, MU_K4)
        B = build_M2(lt, MU_K4, 1 + 0j)
        assert_allclose(A, B.conj().T, atol=1e-14)

    def test_mu2_bound_and_product_identity(self, base_c4):
        out = mu2_bound_check(base_c4, reduce_eigenvalue(base_c4, 1j))
        assert out["bound_ok"]
        assert_allclose(out["max_mu2"], 1 / 72, atol=1e-10)
        assert out["bound"] > out["max_mu2"]
        # arc-space [P X P_zeta X P] against mu zeta w^2 w^2 M2* M2, per zeta
        assert out["max_cross_residual"] < 1e-12
        assert all(v["norm_bound_ok"] for v in out["cross_checks"].values())

    def test_mu2_bound_on_k4(self, base_k4):
        out = mu2_bound_check(base_k4, reduce_eigenvalue(base_k4, MU_K4))
        assert out["bound_ok"]
        assert out["max_cross_residual"] < 1e-11


# --------------------------------------------------------------------------
# persistence: the reduction's mu1 = 0 against the graph side's classify
# --------------------------------------------------------------------------

# two tails on vertex 6, where T's eigenfunction at t = -1/4 is 6.3e-17: the
# whole eigenspace vanishes on the boundary, to rounding
VANISHING = attach_tails(
    build_internal(7, [(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (3, 4), (3, 6)]),
    [6, 6],
)


def test_eigenspace_vanishing_to_rounding_is_persistent():
    im = build_E(VANISHING)
    base = Coupling(im, spectral_decompose(im.E0))
    lt = build_operators(VANISHING)
    per, rest = lt.eigenspace(-0.25)
    assert (per.shape[1], rest.shape[1]) == (1, 0)
    entries = classify(lt)
    for mu in (complex(-0.25, np.sqrt(15) / 4), complex(-0.25, -np.sqrt(15) / 4)):
        [entry] = [e for e in entries if abs(e.value - mu) < 1e-9]
        assert entry.persistent_mult == 1
        [b] = reduce_eigenvalue(base, mu).branches
        assert b.persistent


@st.composite
def tailed_graphs(draw):
    g = draw(connected_graphs())
    tails = draw(
        st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=2 * g.num_vertices)
    )
    return attach_tails(g, tails)


@settings(max_examples=25, deadline=None)
@given(tailed_graphs())
@example(VANISHING)
def test_unperturbed_clusters_are_orthonormal_on_random_graphs(tg):
    """E0 is unitary, so every cluster splits off by a permutation: R holds
    orthonormal Schur vectors and L = R* exactly, the premise on which the
    reduction reads Ran P's basis straight from R."""
    sd = spectral_decompose(build_E(tg).E0)
    assert np.array_equal(sd.L, sd.R.conj().T)
    assert np.linalg.norm(sd.L @ sd.R - np.eye(sd.R.shape[1])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(tailed_graphs())
@example(VANISHING)
def test_persistence_routes_agree_on_random_graphs(tg):
    """At every E0 cluster, the graph side's persistent multiplicity
    (boundary-vanishing T-eigenvectors plus birth states) is the ledger's
    mu1 = 0 multiplicity, and each persistent branch lies in Ker E1, where
    E2 = 0: its mu2 is exactly 0 and its projection orthogonal."""
    im = build_E(tg)
    base = Coupling(im, spectral_decompose(im.E0))
    entries = classify(build_operators(tg))
    for cl in base.sd.clusters:
        [entry] = [e for e in entries if abs(e.value - cl.value) < 1e-8]
        persistent = [b for b in reduce_eigenvalue(base, cl.value).branches if b.persistent]
        assert sum(b.multiplicity for b in persistent) == entry.persistent_mult
        for b in persistent:
            assert np.linalg.norm(im.U1 @ (im.V1.T @ b.basis)) <= 1e-12
            assert b.mu2 == 0
            assert np.array_equal(b.left, b.basis.conj().T)


@settings(max_examples=25, deadline=None)
@given(tailed_graphs())
@example(VANISHING)
def test_stage_one_routes_agree_on_random_graphs(tg):
    """At every E0 cluster, the graph side's M1 has the ledger's moving
    eta1 for eigenvalues, each as often as its branches' multiplicities
    add up to: criterion 12's two routes, away from its one fixture."""
    im = build_E(tg)
    base = Coupling(im, spectral_decompose(im.E0))
    lt = build_operators(tg)
    for cl in base.sd.clusters:
        led = reduce_eigenvalue(base, cl.value)
        moving = sorted(f.eta1 for f in led.families for b in f.branches
                        for _ in range(b.multiplicity))
        graph = np.linalg.eigvalsh(lt.boundary_gram(cl.value))
        assert len(graph) == len(moving)
        assert_allclose(graph, moving, rtol=0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(tailed_graphs())
@example(VANISHING)
def test_simple_branch_mu2_matches_dense_reference(tg):
    """Every branch of multiplicity one has mu2 = -(q* X S_mu X q), with
    q its basis vector, X = E1 and S_mu the reduced resolvent, both formed
    densely here: whether stage two decomposed its group or not."""
    im = build_E(tg)
    base = Coupling(im, spectral_decompose(im.E0))
    X = im.U1 @ im.V1.T
    for cl in base.sd.clusters:
        S = sum(((c.R / (c.value - cl.value)) @ c.L for c in base.sd.clusters if c is not cl),
                np.zeros_like(X))
        for b in reduce_eigenvalue(base, cl.value).branches:
            if b.multiplicity == 1:
                q = b.basis[:, 0]
                assert abs(b.mu2 + q.conj() @ X @ S @ X @ q) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(tailed_graphs(), st.sampled_from([0.01, 0.6]))
@example(VANISHING, 0.01)
@example(attach_tails(preset_graph("complete:6"), [*range(6)] * 2), 0.6)  # a3 holds
def test_ledger_holds_what_each_family_recomputed(tg, eps):
    """A ledger finds its group's gap, a2 and a3 once; each is what the
    per-call formulas, written out here, find again from ``base``: the gap
    from a loop over E0's clusters, a2 from the arc-side sum of the
    branches' P2 and a3 from the smallness inequality, with a1 and
    x_nonzero per family at the probe E(eps): a1 from the probe's columns
    within gap / 2 of mu only, where the eps = 0.6 probes are the ones at
    which that restriction changes a verdict."""
    im = build_E(tg)
    try:
        base, probe = coupling(im, 0.0), coupling(im, eps)
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
    except (ClusterAmbiguity, np.linalg.LinAlgError):
        assume(False)
    nu = min(int(tg.total_deg[v]) for v in tg.boundary_vertices)
    k = kappa(probe.im.eps)
    for led in ledgers:
        cl = base.sd.cluster_near(led.mu)
        assert led.cluster is cl
        gap = min((abs(c.value - cl.value) for c in base.sd.clusters if c is not cl), default=1.0)
        assert led.gap == gap
        assert np.linalg.norm(sum(b.P2 for b in led.branches) - cl.projection) <= 1e-9
        K = sum((cl.L @ b.basis) @ (b.left @ cl.R) for b in led.branches)
        a2 = float(np.linalg.norm(K - np.eye(cl.mult))) < 1e-8 * cl.mult**0.5
        for fam in led.families:
            lam_min = min(-f.eta1 for f in led.families)
            lhs = 2.0 * ((1.0 / gap) * (len(base.sd.clusters) - 1) * nu ** (-2))
            a3 = bool(nu >= 3 and lhs < lam_min * (1.0 - 1.0 / nu) / 2.0)
            ge = led.gamma * fam.eta1
            Xs = led.mu * ge * (ge + 1.0)
            hosts = [b for b in fam.branches if b.hosts_resonance]
            x_nonzero = abs(Xs) > 1e-12 and all(
                abs(Xs - 2.0 * b.mu2) >= 1e-10 * max(abs(Xs), abs(b.mu2), 1e-30) for b in hosts)
            # a1 looks only among the columns within gap / 2 of mu, and is
            # false where that disk holds other than the group's multiplicity
            radius = gap / 2
            cols = np.flatnonzero(np.abs(probe.sd.column_values - cl.value) < radius)
            a1 = bool(np.sum(np.abs(probe.sd.eigenvalues - cl.value) < radius) == cl.mult)
            for b in hosts if a1 else ():
                pred = led.mu + k * b.mu1 + k**2 * b.mu2
                idx = cols[np.argsort(np.abs(probe.sd.column_values[cols] - pred), kind="stable")]
                Vb = np.linalg.qr(probe.sd.R[:, idx[: b.multiplicity]])[0]
                sines = np.linalg.svd(Vb - b.basis @ (b.basis.conj().T @ Vb), compute_uv=False)
                a1 = a1 and not (sines.size and sines.max() > 0.2)
            assert assumption_report(led, fam, probe) == AssumptionReport(
                a1=a1, a2=a2, a3=a3, x_nonzero=x_nonzero)


def continued_groups(im, mus, eps, steps=300):
    """The eigenvalues of E(eps) that continue each of ``mus`` from eps = 0:
    ``np.linalg.eigvals`` on a uniform eps path, matched step to step by
    ``linear_sum_assignment``; at eps = 0 each eigenvalue starts the group
    of its nearest mu.  No code is shared with ``spectral_decompose``."""
    vals = np.linalg.eigvals(im.E0)
    label = np.abs(vals[:, None] - mus).argmin(axis=1)
    for t in np.linspace(0.0, eps, steps + 1)[1:]:
        nxt = np.linalg.eigvals(im.at(t).E)
        vals = nxt[linear_sum_assignment(np.abs(vals[:, None] - nxt))[1]]
    return [vals[label == i] for i in range(len(mus))]


@settings(max_examples=40, deadline=None)
@given(tailed_graphs(), st.floats(min_value=1e-3, max_value=0.01))
@example(VANISHING, 0.01)
def test_group_is_the_continuation_of_its_cluster(tg, eps):
    """At small eps, ledger.group(E(eps)) holds exactly the eigenvalues that
    continuation from the ledger's mu reaches; a disk that holds no group
    is refused, never guessed."""
    im = build_E(tg)
    try:
        base, cpl = coupling(im, 0.0), coupling(im, eps)
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
    except (ClusterAmbiguity, np.linalg.LinAlgError):
        assume(False)
    answered = 0
    for led, want in zip(ledgers, continued_groups(im, base.sd.values(), eps)):
        try:
            got = led.group(cpl)
        except GroupEscapedContour:
            continue
        assert len(got) == len(want) == led.cluster.mult
        rows, cols = linear_sum_assignment(np.abs(got[:, None] - want))
        assert np.abs(got[rows] - want[cols]).max() <= 1e-9
        answered += 1
    assert answered > 0


# a 7-vertex graph whose family at mu = e^{-2 pi i/5} passes the gate with
# norms that do not decrease along the ladder 0.04/0.02/0.01
NONMONOTONE = attach_tails(
    build_internal(7, [(0, 3), (0, 6), (1, 6), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]),
    [2],
)


@settings(max_examples=40, deadline=None)
@given(tailed_graphs())
@example(NONMONOTONE)
def test_resonant_limit_is_unitary_on_random_graphs(tg):
    """Sigma(lam_eps) is unitary at every eps and converges to I + Sigma01,
    so every family's limit is unitary; a refused decomposition or
    reduction is not a failure."""
    im = build_E(tg)
    try:
        base = Coupling(im, spectral_decompose(im.E0))
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
        recs = resonant_sigma_limit(ledgers, couplings(im, (0.04, 0.02, 0.01)))
    except (ClusterAmbiguity, np.linalg.LinAlgError):
        assume(False)
    eye = np.eye(tg.num_ports)
    for rec in recs:
        assert unitarity_defect(eye + rec.sigma01) <= 1e-10


def assert_per_record_limits(recs, ladder):
    """Each record's norms and limit defect, from one stacked SVD per eps and
    one stacked eigvalsh, are bit for bit those of its own matrices: the
    2-norm of Sigma(lam_eps) - I - Sigma01 per eps, at the call's Sigma
    evaluation, and unitarity_defect(I + Sigma01)."""
    for i, cpl in enumerate(ladder.values()):
        stack = cpl.sigma.sigma(np.array([rec.lam_eps[i] for rec in recs]))
        for rec, s in zip(recs, stack):
            assert rec.norms[i] == float(np.linalg.norm(s - np.eye(len(s)) - rec.sigma01, 2))
    for rec in recs:
        assert rec.unitarity_defect == unitarity_defect(np.eye(len(rec.sigma01)) + rec.sigma01)


@settings(max_examples=25, deadline=None)
@given(tailed_graphs())
@example(NONMONOTONE)
def test_limit_norms_are_the_per_record_norms_on_random_graphs(tg):
    im = build_E(tg)
    try:
        ladder = couplings(im, (0.04, 0.02, 0.01))
        base = Coupling(im, spectral_decompose(im.E0))
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
        recs = resonant_sigma_limit(ledgers, ladder)
    except (ClusterAmbiguity, np.linalg.LinAlgError):
        assume(False)
    assert_per_record_limits(recs, ladder)


def a1_reference(ledger, fam, probe):
    """Hypothesis a1 one hosting branch at a time, each with a QR and an SVD
    of its own: the reference the stacked ``_hosting_sines`` is checked
    against.  Returns the family's AssumptionReport and each hosting
    branch's largest principal-angle sine, None where no group continues
    the cluster at the probe."""
    Xs, weights = perturbation._pole_weights(ledger, fam)
    x_nonzero = abs(Xs) > 1e-12 and None not in weights.values()
    cols = perturbation._probe_columns(ledger, probe)
    largest = None
    if cols is not None:
        k = kappa(probe.im.eps)
        w = probe.sd.column_values[cols]
        largest = []
        for b in weights:
            pred = ledger.mu + k * b.mu1 + k**2 * b.mu2
            idx = cols[np.argsort(np.abs(w - pred), kind="stable")]
            Vb = np.linalg.qr(probe.sd.R[:, idx[: b.multiplicity]])[0]
            sines = np.linalg.svd(Vb - b.basis @ (b.basis.conj().T @ Vb), compute_uv=False)
            largest.append(float(sines.max()))
    a1 = largest is not None and all(s <= 0.2 for s in largest)
    report = AssumptionReport(a1=a1, a2=ledger.a2, a3=ledger.a3, x_nonzero=x_nonzero)
    return report, largest


def assert_a1_is_the_per_branch_reference(im, eps_values):
    """resonant_sigma_limit's verdicts for every family of every E0 cluster,
    and the public assumption_report's for each family, are the reference's
    (a1, a2, a3, x_nonzero and gate), and the largest sines each call
    computed agree with the reference's within 1e-12."""
    base = coupling(im, 0.0)
    ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
    ladder = couplings(im, eps_values)
    probe = ladder[min(ladder)]
    computed = []  # (family, sines) as each _hosting_sines call returned them
    real = perturbation._hosting_sines

    def recorded(probe, families):
        out = real(probe, families)
        computed.extend((fam, sines) for (_, fam, _), sines in zip(families, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturbation, "_hosting_sines", recorded)
        recs = resonant_sigma_limit(ledgers, ladder)
        reports = [assumption_report(led, fam, probe) for led in ledgers for fam in led.families]
    want = {}
    for led in ledgers:
        for fam in led.families:
            want[id(fam)] = a1_reference(led, fam, probe)
    assert [r.family for r in recs] == [f for led in ledgers for f in led.families]
    for rec, got in zip(recs, reports):
        ref, _ = want[id(rec.family)]
        for verdict in (rec.verdicts, got):
            assert verdict == ref and verdict.gate == ref.gate
    # one stacked call from resonant_sigma_limit, then one per family with a group
    with_group = [fam for fam in (r.family for r in recs) if want[id(fam)][1] is not None]
    assert [id(fam) for fam, _ in computed] == [id(fam) for fam in with_group * 2]
    for fam, sines in computed:
        assert_allclose(sines, want[id(fam)][1], rtol=0, atol=1e-12)
    return recs


@settings(max_examples=25, deadline=None)
@given(tailed_graphs(), st.sampled_from([(0.04, 0.02), (0.01,), (0.3,), (0.9,)]))
def test_a1_is_the_per_branch_reference_on_random_graphs(tg, eps_values):
    try:
        assert_a1_is_the_per_branch_reference(build_E(tg), eps_values)
    except (ClusterAmbiguity, np.linalg.LinAlgError):
        assume(False)


@pytest.mark.parametrize("im_name", ["im_c4a", "im_k4a"])
@pytest.mark.parametrize("eps_values", [(0.04, 0.02, 0.01), (0.6,), (0.9,)])
@pytest.mark.parametrize("stack", [1, 2, perturbation._SINES_STACK])
def test_a1_is_the_per_branch_reference_on_the_ladders(
    request, monkeypatch, im_name, eps_values, stack
):
    # near the unperturbed problem every hosting family passes a1; at eps 0.9
    # on c4 the eigenvectors have left the stage-2 ranges, so both verdicts
    # occur.  The ladders have a handful of hosting branches: stacks of 1
    # and 2 split them as a larger graph's are split
    monkeypatch.setattr(perturbation, "_SINES_STACK", stack)
    recs = assert_a1_is_the_per_branch_reference(request.getfixturevalue(im_name), eps_values)
    assert recs


def test_a1_keeps_each_branchs_largest_sine(im_k4a, base_k4):
    # the rank-two branch at MU_K4 with its basis tilted off the probe's
    # eigenvectors by two different angles: its sines differ, the largest
    # (about sin 0.4) fails a1 and the smallest (about sin 0.05) would not
    led = reduce_eigenvalue(base_k4, MU_K4)
    [fam] = [f for f in led.families if [b.multiplicity for b in f.branches] == [2]]
    [b] = fam.branches
    rng = np.random.default_rng(5)
    C = rng.standard_normal((len(b.basis), 2)) + 1j * rng.standard_normal((len(b.basis), 2))
    C = np.linalg.qr(C - b.basis @ (b.basis.conj().T @ C))[0]
    tilt = np.array([0.4, 0.05])
    tilted = Family(fam.mu1, fam.eta1, [replace(b, basis=b.basis * np.cos(tilt) + C * np.sin(tilt))])
    probe = coupling(im_k4a, 0.01)
    want, [largest] = a1_reference(led, tilted, probe)
    [got] = perturbation._hosting_sines(probe, [(led, tilted, perturbation._probe_columns(led, probe))])
    assert_allclose(got, [largest], rtol=0, atol=1e-12)
    assert 0.3 < largest < 0.45 and not want.a1
    assert assumption_report(led, tilted, probe) == want


class TestProjectionExpansion:
    def test_leading_coefficients(self, base_c4):
        coef = projection_expansion(reduce_eigenvalue(base_c4, 1 + 0j))[:3]
        P = base_c4.sd.cluster_near(1 + 0j).projection
        assert_allclose(coef[0], P, atol=1e-12)
        # P^(1) = -(P X S + S X P) is off-diagonal w.r.t. P: P P1 P = 0
        assert np.linalg.norm(P @ coef[1] @ P) < 1e-12

    def test_remainder_order(self, im_c4a, base_c4):
        led = reduce_eigenvalue(base_c4, 1 + 0j)
        coef = projection_expansion(led)
        errs = []
        for eps in (0.02, 0.01):
            k = kappa(eps)
            approx = sum(k**j * coef[j] for j in range(4))
            errs.append(np.linalg.norm(total_projection(coupling(im_c4a, eps), led) - approx))
        order = np.log(errs[0] / errs[1]) / np.log(abs(kappa(0.02)) / abs(kappa(0.01)))
        assert order > 3.7


def test_fit_loglog_slope_recovers_power_law():
    eps = np.array([0.04, 0.02, 0.01])
    assert_allclose(fit_loglog_slope(eps, 3.7 * eps**2.5), 2.5, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1.1, 4.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1e-16, 1e3)), min_size=n, max_size=n),
             min_size=1, max_size=8),
)))
def test_matrix_fit_is_the_per_column_fits(ladder):
    """One lstsq over a matrix of series gives each column's own slope, zero
    residuals included, on ladders of 3-10 points."""
    steps, columns = ladder
    eps = 0.1 / np.cumprod([1.0, *steps])
    got = fit_loglog_slope(eps, np.array(columns).T)
    want = [fit_loglog_slope(eps, c) for c in columns]
    assert all(type(w) is float for w in want) and got.shape == (len(columns),)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestResonanceAsymptote:
    def test_slopes_c4_imaginary_group(self, im_c4a, base_c4):
        led = reduce_eigenvalue(base_c4, 1j)
        out = resonance_asymptote(led, couplings(im_c4a, (0.02, 0.01, 0.005)))
        assert len(out["rows"]) == 6  # 2 eigenvalues x 3 eps
        assert len(out["slopes"]) == len(led.branches)
        for slopes in out["slopes"]:
            assert 1.8 < slopes["first_order"] < 2.2
            assert slopes["second_order"] > 2.7
        for row in out["rows"]:
            assert row["abs_err"] < 5e-4

    @pytest.mark.parametrize("ladder", [(0.04, 0.02, 0.01), (0.004, 0.002, 0.001)])
    @pytest.mark.parametrize("preset", ["cycle:12", "cycle:48"])
    def test_branches_sharing_mu1_are_matched_at_second_order(self, preset, ladder):
        # at mu = e^{+-2 pi i/3} two branches share mu1 and differ in mu2;
        # matched on mu + kappa mu1 alone they swap, and their second-order
        # residuals fall with slope 2 instead of 3
        im = build_E(attach_tails(preset_graph(preset), (0, 1, 2)))
        base = Coupling(im, spectral_decompose(im.E0))
        lad = couplings(im, ladder)
        shared = 0
        for cl in base.sd.clusters:
            led = reduce_eigenvalue(base, cl.value)
            slopes = resonance_asymptote(led, lad)["slopes"]
            for b, s in zip(led.branches, slopes):
                siblings = [o.mu2 for o in led.branches if o is not b and o.mu1 == b.mu1]
                if b.persistent or any(abs(b.mu2 - m2) < 1e-9 for m2 in siblings):
                    continue
                assert s["second_order"] > 2.5, (led.mu, b.mu1, b.mu2, s)
                shared += bool(siblings)
        assert shared > 0

    def test_degenerate_branch_matching_k4(self, im_k4a, base_k4):
        # the rank-2 branch only separates at second order; matching must
        # still assign two eigenvalues to it at every eps
        led = reduce_eigenvalue(base_k4, MU_K4)
        out = resonance_asymptote(led, couplings(im_k4a, (0.02, 0.01)))
        assert len(out["rows"]) == 6  # 3 eigenvalues x 2 eps
        assert len(out["slopes"]) == len(led.branches)
        for slopes in out["slopes"]:
            assert slopes["second_order"] > 2.5

    @pytest.mark.parametrize("mu0", [1 + 0j, -1 + 0j])
    def test_persistent_branch_carries_no_slope(self, im_c4a, base_c4, mu0):
        # a persistent branch's eigenvalues stay at mu to rounding: every
        # residual is zero, and a slope fitted to rounding would be noise
        led = reduce_eigenvalue(base_c4, mu0)
        out = resonance_asymptote(led, couplings(im_c4a, (0.02, 0.01, 0.005)))
        persistent = [s for b, s in zip(led.branches, out["slopes"]) if b.persistent]
        moving = [s for b, s in zip(led.branches, out["slopes"]) if not b.persistent]
        assert persistent == [{}]
        assert moving and all(set(s) == {"first_order", "second_order"} for s in moving)


class TestResonantLimit:
    def test_assumption_gate_c4(self, im_c4a, base_c4):
        led = reduce_eigenvalue(base_c4, 1 + 0j)
        [fam] = led.families
        assert_allclose(fam.mu1, -0.25, atol=1e-10)
        rep = assumption_report(led, fam, coupling(im_c4a, 0.005))
        assert rep.a1 and rep.a2 and rep.x_nonzero
        assert rep.gate
        # the global smallness inequality is strictly stronger than needed
        # and fails on every small fixture; it is reported, not gated on
        assert not rep.a3

    @pytest.mark.parametrize(
        "preset, tails, eps, want",
        [
            ("cycle:4", (0, 1, 2), 0.9, "FFFFFF"),
            ("cycle:4", (0, 1, 2), 0.005, "TTTTTT"),
            ("cycle:8", (0, 2, 4), 0.6, "FTTTTFFTTTTF"),
        ],
    )
    def test_a1_verdict_of_every_hosting_family(self, preset, tails, eps, want):
        # far from the unperturbed problem the perturbed eigenvectors leave
        # the stage-2 ranges: a1 turns false, and on cycle:8 for some
        # families only
        im = build_E(attach_tails(preset_graph(preset), tails))
        base, probe = coupling(im, 0.0), coupling(im, eps)
        got = ""
        for cl in base.sd.clusters:
            led = reduce_eigenvalue(base, cl.value)
            for fam in led.families:
                if any(b.hosts_resonance for b in fam.branches):
                    got += "T" if assumption_report(led, fam, probe).a1 else "F"
        assert got == want

    def test_gate_fails_for_the_persistent_eigenspace(self, im_c4a, base_c4):
        # the persistent stage-one eigenspace (mu1 = 0) is no ledger family;
        # its record, built by hand, has eta1 = 0, so Xs = 0 fails x_nonzero
        led = reduce_eigenvalue(base_c4, 1 + 0j)
        [b] = [b for b in led.branches if b.persistent]
        assert not b.hosts_resonance
        rep = assumption_report(led, Family(b.mu1, 0.0, [b]), coupling(im_c4a, 0.005))
        assert not rep.x_nonzero and not rep.gate

    def test_limit_c4_plus_one(self, im_c4a, base_c4):
        led = reduce_eigenvalue(base_c4, 1 + 0j)
        ladder = couplings(im_c4a, (0.02, 0.01, 0.005))
        [rec] = resonant_sigma_limit([led], ladder)
        assert rec.family is led.families[0]
        assert rec.verdicts.gate
        assert_allclose(rec.family.eta1, -0.25, atol=1e-10)
        # lambda path: -arg(mu) + pi gamma eta1 eps
        assert_allclose(rec.lam_eps[0], np.pi * 1.0 * (-0.25) * 0.02, atol=1e-12)
        assert_allclose(rec.norms, [0.041888, 0.020944, 0.010472], atol=2e-5)
        assert rec.norms[-1] < 0.3 * rec.norms[0]
        assert_allclose(np.linalg.norm(rec.sigma01, 2), 2.0, atol=1e-9)

    def test_limit_k4_rank_two_branch(self, im_k4a, base_k4):
        """The coefficient 2/(Xs - 2 mu2) must hold for a degenerate branch;
        a geometric rho-power factor would stall these norms near 0.35."""
        led = reduce_eigenvalue(base_k4, MU_K4)
        ladder = couplings(im_k4a, (0.04, 0.02, 0.01, 0.005))
        [rec] = [
            r for r in resonant_sigma_limit([led], ladder)
            if [b.multiplicity for b in r.family.branches] == [2]
        ]
        assert rec.verdicts.gate
        assert_allclose(
            rec.norms, [0.126898, 0.063146, 0.031495, 0.015728], atol=2e-4
        )
        assert all(a > b for a, b in zip(rec.norms, rec.norms[1:]))
        assert rec.norms[-1] < 0.2 * rec.norms[0]

    @pytest.mark.parametrize("im_name, sd_name, mu0", [
        ("im_c4a", "sd_c4", 1 + 0j), ("im_k4a", "sd_k4", MU_K4),
    ])
    def test_shared_evaluators_give_identical_norms(self, request, im_name, sd_name, mu0):
        """One mapping shared by every family gives the same norms, bit for
        bit, as a fresh mapping per family, in the mapping's eps order."""
        im = request.getfixturevalue(im_name)
        base = Coupling(im, request.getfixturevalue(sd_name))
        led = reduce_eigenvalue(base, mu0)
        ladder = (0.01, 0.04, 0.02)
        shared = couplings(im, ladder)
        for fam in led.families:
            sole = replace(led, families=[fam])
            [ref] = resonant_sigma_limit([sole], couplings(im, ladder))
            [rec] = resonant_sigma_limit([sole], shared)
            assert rec.norms == ref.norms
            assert rec.lam_eps == ref.lam_eps
            ge = led.gamma * fam.eta1
            assert_allclose(rec.lam_eps, [-np.angle(led.mu) + np.pi * ge * e for e in ladder],
                            atol=1e-14)

    @pytest.mark.parametrize("im_name, sd_name, mu0", [
        ("im_c4a", "sd_c4", 1 + 0j), ("im_k4a", "sd_k4", MU_K4),
    ])
    def test_all_families_in_one_call(self, request, im_name, sd_name, mu0):
        """Every ledger's families in one call, one Sigma evaluation per
        eps, give each family's record bit for bit, in ledger and family
        order, as a call per family."""
        im = request.getfixturevalue(im_name)
        base = Coupling(im, request.getfixturevalue(sd_name))
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
        ladder = couplings(im, (0.04, 0.02, 0.01))
        recs = resonant_sigma_limit(ledgers, ladder)
        assert [r.family for r in recs] == [f for led in ledgers for f in led.families]
        led = reduce_eigenvalue(base, mu0)
        for fam in led.families:
            sole = replace(led, families=[fam])
            [ref] = resonant_sigma_limit([sole], ladder)
            [rec] = [r for r in recs if r.mu == led.mu and r.family.mu1 == fam.mu1]
            assert rec.norms == ref.norms
            assert rec.lam_eps == ref.lam_eps
            assert np.array_equal(rec.sigma01, ref.sigma01)
            assert rec.verdicts == ref.verdicts
        assert resonant_sigma_limit([], ladder) == []

    @pytest.mark.parametrize("im_name, sd_name", [("im_c4a", "sd_c4"), ("im_k4a", "sd_k4")])
    def test_stacked_norms_are_the_per_record_norms(self, request, im_name, sd_name):
        im = request.getfixturevalue(im_name)
        base = Coupling(im, request.getfixturevalue(sd_name))
        ledgers = [reduce_eigenvalue(base, cl.value) for cl in base.sd.clusters]
        ladder = couplings(im, (0.04, 0.02, 0.01))
        recs = resonant_sigma_limit(ledgers, ladder)
        assert len(recs) > 1
        assert_per_record_limits(recs, ladder)
