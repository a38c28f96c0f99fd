"""Acceptance gate: the twelve numbered criteria, one test each.

Every criterion passes.  Two of them check quantities that are easy to
misread:

* criterion 10 -- off resonance, scattering through the interior is second
  order: ||Sigma_eps(lam) - I - kappa B_bb^(1)|| has slope 2.  The raw
  defect ||Sigma_eps(lam) - I|| is first order, because the direct port
  block B_bb(eps) = I + kappa B_bb^(1) moves every reflection at first
  order; its slope 1 and its size |kappa| ||B_bb^(1)|| are checked too.
* criterion 12 -- the boundary scalar eta1 (eigenvalue of M1) is -1/4 at
  both mu = +1 and mu = -1, from the reduction and from the graph side's
  LaplacianT.boundary_gram.  The stage-one eigenvalue mu1 = gamma mu eta1
  (gamma = 1 at +-1) carries the sign of mu, so it is +1/4 at mu = -1;
  that rule is checked as well.
"""

import numpy as np
import pytest

from tailwalk import acceptance


def run_criterion(cid):
    """One criterion on its own context, as ``run_all`` runs each."""
    (entry,) = (e for e in acceptance._CRITERIA if e[0] == cid)
    return acceptance._run(entry, acceptance._Context())


@pytest.fixture(scope="module")
def run_all(count_factorisations, count_t_diagonalisations):
    with count_factorisations() as seen, count_t_diagonalisations() as t_diag:
        results = acceptance.run_all()
    return {r.cid: r for r in results}, seen, t_diag


@pytest.fixture(scope="module")
def results(run_all):
    return run_all[0]


@pytest.mark.parametrize(
    "cid", [c[0] for c in acceptance._CRITERIA], ids=[f"{c[0]:02d}-{c[1].replace(' ', '-')}" for c in acceptance._CRITERIA]
)
def test_criterion(cid, results):
    r = results[cid]
    print(r.line())
    if r.status == "skip":
        pytest.skip(r.detail)
    assert r.status == "pass", r.line()


def test_every_criterion_reports(results):
    assert sorted(results) == list(range(1, 13))
    for r in results.values():
        assert r.detail  # a bare pass/fail with no numbers is useless
        assert r.elapsed < 60.0


def test_details_repeat_across_runs(results):
    # no wall time or other run-dependent value enters a criterion's detail
    again = [(r.cid, r.status, r.detail) for r in acceptance.run_all()]
    assert again == [(r.cid, r.status, r.detail) for r in results.values()]


def test_run_all_factors_each_matrix_once(run_all):
    # criteria share each fixture's E(0), E(eps) and ledgers; arc-space
    # matrices have 8 (cycle:4) or 12 (complete:4) rows, stage matrices <= 4
    seen = run_all[1]
    arc_space = [h for h, n in seen["decompose"] if n >= 8]
    assert arc_space and len(arc_space) == len(set(arc_space))
    eig = [h for h, _ in seen["eig"]]
    assert eig and len(eig) == len(set(eig))


def test_run_all_diagonalises_each_graph_once(run_all):
    # every criterion reads a fixture's T-eigenspaces from its one shared
    # LaplacianT, so T is diagonalised at most once per fixture graph
    t_diag = run_all[2]
    assert 0 < len(t_diag) <= len(acceptance.FIXTURES)


def test_criterion_6_measures_the_births(monkeypatch):
    # the measured birth counts come from the birth null space, not from the
    # formula they are compared with: one spurious birth state fails the check
    real = acceptance.birth_basis

    def one_too_many(lt, lam):
        B = real(lt, lam)
        return np.hstack([B, B[:, :1]])

    assert run_criterion(6).status == "pass"
    monkeypatch.setattr(acceptance, "birth_basis", one_too_many)
    r = run_criterion(6)
    assert r.status == "fail"
    assert "measured (2, 2), expected (1, 1)" in r.detail


def test_criterion_5_compares_the_two_assemblies(monkeypatch):
    # the truncated walk comes from build_E_split and the states from
    # build_E: a perturbed vertex-operator assembly fails the check
    real = acceptance.build_E_split

    def shifted(tg):
        E0, E1, *ports = real(tg)
        return (E0, E1 + 1e-6, *ports)

    monkeypatch.setattr(acceptance, "build_E_split", shifted)
    r = run_criterion(5)
    assert r.status == "fail", r.detail
