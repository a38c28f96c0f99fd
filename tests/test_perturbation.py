"""Two-stage reduction, eigenvalue asymptotics, and the resonant limit.

The numeric targets in here were frozen from contour-integral and
brute-force eigenvalue computations before the reduction code existed;
they are inputs to the tests, not snapshots of their output.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tailwalk.coin_evolution import kappa
from tailwalk.internal_spectral import projection_contour_oracle, spectral_decompose
from tailwalk.perturbation import (
    AssumptionViolated,
    GroupEscapedContour,
    assumption_report,
    build_M1,
    build_M2,
    fit_loglog_slope,
    mu2_bound_check,
    projection_expansion,
    puiseux_prediction,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
    total_projection,
)
from tailwalk.scattering import SigmaEvaluator

MU_K4 = complex(-1 / 3, 2 * np.sqrt(2) / 3)  # e^{i theta}, cos theta = -1/3


@pytest.fixture(scope="module")
def sd_c4(im_c4a):
    return spectral_decompose(im_c4a.E0)


@pytest.fixture(scope="module")
def sd_k4(im_k4a):
    return spectral_decompose(im_k4a.E0)


class TestTotalProjection:
    def test_matches_contour_oracle(self, im_c4a, sd_c4):
        P, members = total_projection(im_c4a, 0.1, 1 + 0j, sd_c4, return_members=True)
        assert members.shape == (2,)  # moving branch plus the persistent state
        P_ref = projection_contour_oracle(im_c4a.at(0.1).E, 1.0, 0.4, nodes=96)
        assert np.linalg.norm(P - P_ref) < 1e-10
        assert_allclose(P @ P, P, atol=1e-12)
        assert_allclose(np.trace(P), 2.0, atol=1e-12)

    def test_continuity_towards_zero_coupling(self, im_c4a, sd_c4):
        P0 = sd_c4.cluster_near(1j).projection
        for eps in (0.02, 0.005):
            P = total_projection(im_c4a, eps, 1j, sd_c4)
            assert np.linalg.norm(P - P0) < 3.0 * abs(kappa(eps))

    def test_escape_is_reported_not_guessed(self, im_c4a, sd_c4):
        # at full coupling the group is gone; tracking it would be fiction
        with pytest.raises(GroupEscapedContour):
            total_projection(im_c4a, 1.0, 1 + 0j, sd_c4)


class TestReduceEigenvalue:
    """Frozen branch tables for the two reference graphs."""

    def test_c4_plus_one(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1 + 0j, sd0=sd_c4)
        assert (led.m, led.gamma) == (2, 1.0)
        moving = [b for b in led.branches if not b.persistent]
        frozen = [b for b in led.branches if b.persistent]
        assert len(moving) == 1 and len(frozen) == 1
        assert_allclose(moving[0].mu1, -0.25, atol=1e-10)
        assert_allclose(moving[0].mu2, -1 / 96, atol=1e-10)
        assert moving[0].eta1 is not None
        assert_allclose(moving[0].eta1, -0.25, atol=1e-10)
        assert_allclose(frozen[0].mu1, 0, atol=1e-10)
        assert_allclose(frozen[0].mu2, 0, atol=1e-10)

    def test_c4_minus_one_mirrors_plus_one(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, -1 + 0j, sd0=sd_c4)
        assert led.gamma == 1.0
        moving = [b for b in led.branches if not b.persistent]
        assert_allclose(moving[0].mu1, 0.25, atol=1e-10)
        assert_allclose(moving[0].mu2, 1 / 96, atol=1e-10)
        # the boundary scalar is the same at both signs; mu1 = gamma mu eta1
        # picks up the sign of mu
        assert moving[0].eta1 is not None
        assert_allclose(moving[0].eta1, -0.25, atol=1e-10)

    def test_c4_imaginary_pair(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1j, sd0=sd_c4)
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

    def test_k4_plus_one(self, im_k4a, sd_k4):
        led = reduce_eigenvalue(im_k4a, 1 + 0j, sd0=sd_k4)
        assert led.m == 4
        moving = [b for b in led.branches if not b.persistent]
        frozen = [b for b in led.branches if b.persistent]
        assert [b.multiplicity for b in moving] == [1]
        assert [b.multiplicity for b in frozen] == [3]
        assert_allclose(moving[0].mu1, -3 / 16, atol=1e-10)
        assert_allclose(moving[0].mu2, -3 / 512, atol=1e-10)

    def test_k4_purely_persistent_group(self, im_k4a, sd_k4):
        # A1 = 0 to rounding here; the stage-1 semisimplicity check must not
        # mistake its floating-point noise for a Jordan block
        led = reduce_eigenvalue(im_k4a, -1 + 0j, sd0=sd_k4)
        assert len(led.branches) == 1
        b = led.branches[0]
        assert b.persistent and b.multiplicity == 2
        assert abs(b.mu1) < 1e-12 and abs(b.mu2) < 1e-12

    def test_k4_complex_group_splits_one_plus_two(self, im_k4a, sd_k4):
        led = reduce_eigenvalue(im_k4a, MU_K4, sd0=sd_k4)
        assert led.m == 3 and led.gamma == 0.5
        by_mult = {b.multiplicity: b for b in led.branches}
        assert set(by_mult) == {1, 2}
        assert_allclose(by_mult[1].mu1, -MU_K4 / 32, atol=1e-10)
        assert_allclose(by_mult[2].mu1, -MU_K4 / 8, atol=1e-10)
        assert_allclose(by_mult[2].mu2, -3j * np.sqrt(2) / 512, atol=1e-10)
        assert_allclose(by_mult[1].mu2, 3 / 1024 - 15j * np.sqrt(2) / 8192, atol=1e-10)
        assert_allclose(by_mult[1].eta1, -1 / 16, atol=1e-10)
        assert_allclose(by_mult[2].eta1, -1 / 4, atol=1e-10)
        # the conjugate group carries the conjugate data
        led_c = reduce_eigenvalue(im_k4a, np.conj(MU_K4), sd0=sd_k4)
        got = sorted((b.mu1 for b in led_c.branches), key=abs)
        assert_allclose(got[0], np.conj(by_mult[1].mu1), atol=1e-10)
        assert_allclose(got[1], np.conj(by_mult[2].mu1), atol=1e-10)

    def test_branch_projections_resolve_the_group(self, im_k4a, sd_k4):
        led = reduce_eigenvalue(im_k4a, 1 + 0j, sd0=sd_k4)
        n = im_k4a.E0.shape[0]
        total = sum(b.P2 for b in led.branches)
        assert np.linalg.norm(total - led.P) < 1e-9
        for b in led.branches:
            assert np.linalg.norm(b.P2 @ b.P2 - b.P2) < 1e-9
            assert np.linalg.norm((im_k4a.E0 - led.mu * np.eye(n)) @ b.P2) < 1e-9
            # stage-1 operator acts as mu1 on the branch range
            assert (
                np.linalg.norm(b.P2 @ im_k4a.E1 @ b.P2 - b.mu1 * b.P2) < 1e-8
            )

    def test_json_round_trip(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1j, sd0=sd_c4)
        d = json.loads(json.dumps(led.to_json_dict()))
        assert d["m"] == 2
        assert len(d["branches"]) == 2


class TestGraphSideMatrices:
    def test_m1_eigenvalues_c4_imaginary(self, c4a, im_c4a):
        fo = build_M1(c4a, 1j, im_c4a)
        assert fo.gamma == 0.5
        assert_allclose(np.sort(fo.eta1), [-1 / 3, -1 / 6], atol=1e-12)
        # arc-space route P X P and graph-side route gamma mu M1 agree
        assert fo.direct_residual < 1e-12
        assert_allclose(fo.M1, fo.M1.conj().T, atol=1e-14)

    @pytest.mark.parametrize("mu", [1 + 0j, -1 + 0j], ids=["plus1", "minus1"])
    def test_m1_eigenvalue_c4_at_plus_minus_one(self, c4a, im_c4a, mu):
        fo = build_M1(c4a, mu, im_c4a)
        assert fo.gamma == 1.0
        assert_allclose(fo.eta1, [-0.25], atol=1e-12)
        assert fo.direct_residual < 1e-12

    def test_m1_spectral_range(self, suite_graphs):
        for name, tg in suite_graphs.items():
            lt_min = min(int(tg.total_deg[v]) for v in tg.boundary_vertices)
            for mu in (1 + 0j, 1j):
                fo = build_M1(tg, mu)
                if fo.eta1.size == 0:
                    continue
                assert np.all(fo.eta1 <= 1e-12), name
                assert np.all(fo.eta1 >= -1.0 / lt_min - 1e-12), name

    def test_m2_adjoint_symmetry(self, k4a):
        A = build_M2(k4a, 1 + 0j, MU_K4)
        B = build_M2(k4a, MU_K4, 1 + 0j)
        assert_allclose(A, B.conj().T, atol=1e-14)

    def test_mu2_bound_and_product_identity(self, im_c4a, sd_c4):
        out = mu2_bound_check(im_c4a, 1j, sd0=sd_c4)
        assert out["bound_ok"]
        assert_allclose(out["max_mu2"], 1 / 72, atol=1e-10)
        assert out["bound"] > out["max_mu2"]
        # arc-space [P X P_zeta X P] against mu zeta w^2 w^2 M2* M2, per zeta
        assert out["max_cross_residual"] < 1e-12
        assert all(v["norm_bound_ok"] for v in out["cross_checks"].values())

    def test_mu2_bound_on_k4(self, im_k4a, sd_k4):
        out = mu2_bound_check(im_k4a, MU_K4, sd0=sd_k4)
        assert out["bound_ok"]
        assert out["max_cross_residual"] < 1e-11


class TestProjectionExpansion:
    def test_leading_coefficients(self, im_c4a, sd_c4):
        coef = projection_expansion(im_c4a, 1 + 0j, order=2, sd0=sd_c4)
        P = sd_c4.cluster_near(1 + 0j).projection
        assert_allclose(coef[0], P, atol=1e-12)
        # P^(1) = -(P X S + S X P) is off-diagonal w.r.t. P: P P1 P = 0
        assert np.linalg.norm(P @ coef[1] @ P) < 1e-12

    def test_remainder_order(self, im_c4a, sd_c4):
        coef = projection_expansion(im_c4a, 1 + 0j, order=3, sd0=sd_c4)
        errs = []
        for eps in (0.02, 0.01):
            k = kappa(eps)
            approx = sum(k**j * coef[j] for j in range(4))
            errs.append(
                np.linalg.norm(total_projection(im_c4a, eps, 1 + 0j, sd_c4) - approx)
            )
        order = np.log(errs[0] / errs[1]) / np.log(abs(kappa(0.02)) / abs(kappa(0.01)))
        assert order > 3.7


def test_puiseux_prediction_formula():
    # at eps = 0 the prediction must return mu itself
    assert puiseux_prediction(1j, 0.5, -1 / 3, -1j / 72, 0.0) == 1j
    # first-order part moves along the circle: |mu e^{-i pi ge eps}| = 1
    p = puiseux_prediction(1 + 0j, 1.0, -0.25, 0.0, 0.3)
    q = 1.0 * np.exp(-1j * np.pi * 1.0 * (-0.25) * 0.3)
    assert abs(p - q) < np.pi**2 * 0.3**2  # second-order term only


def test_fit_loglog_slope_recovers_power_law():
    eps = np.array([0.04, 0.02, 0.01])
    assert_allclose(fit_loglog_slope(eps, 3.7 * eps**2.5), 2.5, atol=1e-12)


class TestResonanceAsymptote:
    def test_slopes_c4_imaginary_group(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1j, sd0=sd_c4)
        out = resonance_asymptote(im_c4a, led, (0.02, 0.01, 0.005), sd0=sd_c4)
        assert len(out["rows"]) == 6  # 2 eigenvalues x 3 eps
        for rec in out["per_branch"].values():
            s1 = fit_loglog_slope(rec["eps"], rec["first_resid"])
            s3 = fit_loglog_slope(rec["eps"], rec["puiseux_resid"])
            assert 1.8 < s1 < 2.2
            assert s3 > 2.7
        for row in out["rows"]:
            assert row["abs_err"] < 5e-4

    def test_degenerate_branch_matching_k4(self, im_k4a, sd_k4):
        # the rank-2 branch only separates at second order; matching must
        # still assign two eigenvalues to it at every eps
        led = reduce_eigenvalue(im_k4a, MU_K4, sd0=sd_k4)
        out = resonance_asymptote(im_k4a, led, (0.02, 0.01), sd0=sd_k4)
        assert len(out["rows"]) == 6  # 3 eigenvalues x 2 eps
        for bi, b in enumerate(led.branches):
            rec = out["per_branch"][bi]
            assert len(rec["eps"]) == 2
            s2 = fit_loglog_slope(rec["eps"], rec["second_resid"])
            assert s2 > 2.5


class TestResonantLimit:
    def test_assumption_gate_c4(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1 + 0j, sd0=sd_c4)
        rep = assumption_report(im_c4a, led, -0.25, 0.005, sd0=sd_c4)
        assert rep.a1 and rep.a2 and rep.x_nonzero and rep.mu1_nonzero
        assert rep.gate
        # the global smallness inequality is strictly stronger than needed
        # and fails on every small fixture; it is reported, not gated on
        assert not rep.a3
        rep.require()  # must not raise

    def test_gate_fails_for_the_persistent_family(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1 + 0j, sd0=sd_c4)
        rep = assumption_report(im_c4a, led, 0.0, 0.005, sd0=sd_c4)
        assert not rep.mu1_nonzero and not rep.gate
        with pytest.raises(AssumptionViolated):
            rep.require()

    def test_limit_c4_plus_one(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1 + 0j, sd0=sd_c4)
        evaluators = {e: SigmaEvaluator(im_c4a.at(e)) for e in (0.02, 0.01, 0.005)}
        rec = resonant_sigma_limit(im_c4a, led, -0.25, evaluators, sd0=sd_c4)
        assert not rec.caveat
        assert_allclose(rec.eta1, -0.25, atol=1e-10)
        # lambda path: -arg(mu) + pi gamma eta1 eps
        assert_allclose(rec.lam_eps[0], np.pi * 1.0 * (-0.25) * 0.02, atol=1e-12)
        assert_allclose(rec.norms, [0.041888, 0.020944, 0.010472], atol=2e-5)
        assert rec.norms[-1] < 0.3 * rec.norms[0]
        assert_allclose(np.linalg.norm(rec.sigma01, 2), 2.0, atol=1e-9)

    def test_limit_k4_rank_two_branch(self, im_k4a, sd_k4):
        """The coefficient 2/(Xs - 2 mu2) must hold for a degenerate branch;
        a geometric rho-power factor would stall these norms near 0.35."""
        led = reduce_eigenvalue(im_k4a, MU_K4, sd0=sd_k4)
        mu1 = [b.mu1 for b in led.branches if b.multiplicity == 2][0]
        evaluators = {e: SigmaEvaluator(im_k4a.at(e)) for e in (0.04, 0.02, 0.01, 0.005)}
        rec = resonant_sigma_limit(im_k4a, led, mu1, evaluators, sd0=sd_k4)
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
        im, sd0 = request.getfixturevalue(im_name), request.getfixturevalue(sd_name)
        led = reduce_eigenvalue(im, mu0, sd0=sd0)
        ladder = (0.01, 0.04, 0.02)
        shared = {e: SigmaEvaluator(im.at(e)) for e in ladder}
        for mu1 in {b.mu1 for b in led.branches if abs(b.mu1) > 1e-10}:
            fresh = {e: SigmaEvaluator(im.at(e)) for e in ladder}
            ref = resonant_sigma_limit(im, led, mu1, fresh, sd0)
            rec = resonant_sigma_limit(im, led, mu1, shared, sd0)
            assert rec.norms == ref.norms
            assert rec.lam_eps == ref.lam_eps
            ge = led.gamma * rec.eta1
            assert_allclose(rec.lam_eps, [-np.angle(led.mu) + np.pi * ge * e for e in ladder],
                            atol=1e-14)

    def test_unknown_family_is_an_error(self, im_c4a, sd_c4):
        led = reduce_eigenvalue(im_c4a, 1 + 0j, sd0=sd_c4)
        with pytest.raises(ValueError):
            resonant_sigma_limit(im_c4a, led, 0.77, {0.02: SigmaEvaluator(im_c4a.at(0.02))},
                                 sd0=sd_c4)
