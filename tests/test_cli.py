"""Command-line interface: parsing, outputs, sidecars, exit codes."""

import collections
import csv
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tailed_graph import connected_graphs

import tailwalk
from tailwalk import acceptance, cli, internal_spectral, perturbation, scattering
from tailwalk.internal_spectral import ClusterAmbiguity, SpectralData


C4_EDGES = [[0, 1], [1, 2], [2, 3], [0, 3]]


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path / "out")]), tmp_path / "out"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_tails_accepts_v_prefix_and_repeats():
    assert cli._parse_tails("v0,v1,2") == [0, 1, 2]
    assert cli._parse_tails("0,0,1") == [0, 0, 1]
    with pytest.raises(cli.ConfigError):
        cli._parse_tails("0,x")


def test_parse_eps_forms():
    assert cli._parse_eps("0.25") == [0.25]
    assert cli._parse_eps("0.1,0.5") == [0.1, 0.5]
    got = cli._parse_eps("0.1:0.3:3")
    np.testing.assert_allclose(got, [0.1, 0.2, 0.3])
    with pytest.raises(cli.ConfigError):
        cli._parse_eps("0.1:0.3")


def test_runs_start_no_thread(tmp_path, monkeypatch):
    # each E(eps) is factored in order on the calling thread
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for command, *flags in (("resonances", "--eps", "0.25"),
                            ("transmission", "--eps", "0.25", "--grid", "16"),
                            ("perturb", "--eps", "0.04,0.02,0.01")):
        code, _ = run(tmp_path / command, command, "--preset", "cycle:4", "--tails", "0,1,2",
                      *flags)
        assert code == 0, command


class TestResonances:
    def test_csv_output_and_sidecar(self, tmp_path):
        code, out = run(
            tmp_path, "resonances", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.25",
        )
        assert code == 0
        header, rows = read_csv(out / "resonances.csv")
        assert header == [
            "epsilon", "re_mu", "im_mu", "abs_mu", "multiplicity", "on_circle",
        ]
        assert len(rows) == 8
        on_circle = [r for r in rows if r[5] == "1"]
        assert len(on_circle) == 2  # the two persistent states
        meta = json.loads((out / "resonances.csv.meta.json").read_text())
        assert meta["tolerances"] == {"cluster": 1e-12}
        assert "cluster_decisions" in meta

    def test_branches_split_at_second_order_are_listed(self, tmp_path):
        # at eps 0.001 four pairs of cycle:12's resonances lie 1.2e-7 apart:
        # all 24 are listed, each simple
        code, out = run(
            tmp_path, "resonances", "--preset", "cycle:12", "--tails", "0,1,2",
            "--eps", "0.001",
        )
        assert code == 0
        _, rows = read_csv(out / "resonances.csv")
        assert len(rows) == 24 and all(r[4] == "1" for r in rows)

    def test_runs_are_byte_identical(self, tmp_path):
        a, out_a = run(
            tmp_path / "a", "resonances", "--preset", "complete:4",
            "--tails", "0,1,2", "--eps", "0.1,0.25",
        )
        b, out_b = run(
            tmp_path / "b", "resonances", "--preset", "complete:4",
            "--tails", "0,1,2", "--eps", "0.1,0.25",
        )
        assert a == b == 0
        assert (out_a / "resonances.csv").read_bytes() == (
            out_b / "resonances.csv"
        ).read_bytes()

    def test_thread_environment_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QW_THREADS", "garbage")
        code, _ = run(
            tmp_path, "resonances", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.1,0.25",
        )
        assert code == 0

    def test_json_format(self, tmp_path):
        code, out = run(
            tmp_path, "resonances", "--preset", "cycle:4", "--tails", "0",
            "--eps", "0", "--format", "json",
        )
        assert code == 0
        rows = json.loads((out / "resonances.json").read_text())
        assert all(abs(r["abs_mu"] - 1.0) < 1e-9 for r in rows)


class TestTransmission:
    def test_flux_conservation_and_filenames(self, tmp_path):
        code, out = run(
            tmp_path, "transmission", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.25,0.5", "--grid", "32",
        )
        assert code == 0
        # a dotted eps must not be eaten by suffix handling
        for name in ("transmission_eps0.25.csv", "transmission_eps0.5.csv"):
            header, rows = read_csv(out / name)
            assert header[0] == "lambda" and len(rows) == 32
            for r in rows:
                assert abs(float(r[3]) + float(r[4]) - 1.0) < 1e-10

    def test_inflow_is_one_based(self, tmp_path):
        code, _ = run(
            tmp_path, "transmission", "--preset", "cycle:4", "--tails", "0,1",
            "--inflow", "2", "--grid", "8",
        )
        assert code == 0
        code, _ = run(
            tmp_path, "transmission", "--preset", "cycle:4", "--tails", "0,1",
            "--inflow", "0", "--grid", "8",
        )
        assert code == cli.EXIT_CONFIG

    def test_resonances_near_the_circle_are_kept(self, tmp_path):
        # at eps 0.001 cycle:32's resonances lie down to 6.4e-9 inside the
        # circle; they couple to the rest of the Schur form, so they stay in
        # the closed form, and the curve conserves flux
        code, out = run(
            tmp_path, "transmission", "--preset", "cycle:32", "--tails", "0,1,2,3",
            "--eps", "0.001",
        )
        assert code == 0
        meta = json.loads((out / "transmission_eps0.001.csv.meta.json").read_text())
        assert meta["health"]["0.001"]["grid_unitarity_defect"] < 1e-12


class TestPerturb:
    def test_emits_ledger_asymptote_and_limit(self, tmp_path):
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.02,0.01,0.005",
        )
        assert code == 0
        ledger = json.loads((out / "ledger.json").read_text())
        assert len(ledger["eigenvalues"]) == 4
        for entry in ledger["eigenvalues"]:
            for b in entry["branches"]:
                assert set(b) >= {"mu1", "mu2", "multiplicity", "persistent"}
        header, rows = read_csv(out / "asymptote.csv")
        assert header == [
            "epsilon", "re_true", "im_true", "re_pred", "im_pred", "abs_err",
        ]
        assert max(float(r[5]) for r in rows) < 1e-4
        limit = json.loads((out / "sigma_limit.json").read_text())
        fams = limit["families"]
        assert len(fams) > 0
        for fam in fams:
            assert set(fam["assumptions"]) == {
                "a1", "a2", "a3", "x_nonzero", "gate",
            }
            assert fam["assumptions"]["gate"] is True
            assert len(fam["norms"]) == 3
        meta = json.loads((out / "ledger.json.meta.json").read_text())
        assert 0.0 <= meta["stage1_hermitian_defect"] < 1e-14

    def test_limit_unitarity_is_recorded(self, tmp_path):
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:12", "--tails", "0,1,2",
            "--eps", "0.04,0.02,0.01",
        )
        assert code == 0
        fams = json.loads((out / "sigma_limit.json").read_text())["families"]
        meta = json.loads((out / "sigma_limit.json.meta.json").read_text())
        defects = meta["limit_unitarity_defect"]  # one per family, in their order
        assert len(defects) == len(fams) == 18
        assert all(0.0 <= d < 1e-12 for d in defects)

    def test_non_unitary_resonant_limit_is_refused(self, tmp_path, capsys, monkeypatch):
        # halving every pole weight of Sigma01 leaves I + Sigma01 non-unitary
        # on every family, by at least 4.2e-2
        real = perturbation._pole_weights

        def halved(ledger, fam):
            Xs, weights = real(ledger, fam)
            return Xs, {b: None if w is None else w / 2 for b, w in weights.items()}

        monkeypatch.setattr(perturbation, "_pole_weights", halved)
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:12", "--tails", "0,1,2",
            "--eps", "0.04,0.02,0.01",
        )
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        m = re.search(r"\(NonUnitaryLimit\): .* = (\S+) > 1e-10", err)
        assert m, err
        assert float(m.group(1)) >= 4e-2
        assert not (out / "sigma_limit.json").exists()

    def test_close_resonances_are_not_merged(self, tmp_path):
        # at eps 0.00075 four pairs of cycle:12's resonances lie 6.7e-8
        # apart; merged into one cluster each, the closed form is 0.35 off
        # at their families' lambda and hypothesis a1 fails for them
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:12", "--tails", "0,1,2",
            "--eps", "0.003,0.0015,0.00075",
        )
        assert code == 0
        fams = json.loads((out / "sigma_limit.json").read_text())["families"]
        assert len(fams) == 18
        for fam in fams:
            norms = fam["norms"]
            assert all(a > b for a, b in zip(norms, norms[1:])), norms
            assert norms[-1] < 0.5 * norms[0], norms
            assert fam["assumptions"]["gate"] is True

    def test_stage_one_block_that_is_not_hermitian_is_refused(
        self, tmp_path, capsys, monkeypatch
    ):
        # dividing A1 by gamma conj(mu) in place of gamma mu turns H by
        # mu / conj(mu): a rotation at complete:4's complex group, none at
        # +-1 (and none at +-i, which this graph lacks)
        real = perturbation._gamma_scalar
        monkeypatch.setattr(perturbation, "_gamma_scalar",
                            lambda mu: real(mu) * mu.conjugate() / mu)
        code, _ = run(
            tmp_path, "perturb", "--preset", "complete:4", "--tails", "0,1,2",
            "--eps", "0.04,0.02,0.01",
        )
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        m = re.search(r"\(LinAlgError\): stage-one block .* at mu=(\S+) is not Hermitian", err)
        assert m, err
        z = complex(m.group(1))  # e^{+-i theta}, cos theta = -1/3
        assert abs(z.real + 1 / 3) < 1e-3 and abs(abs(z.imag) - 2 * np.sqrt(2) / 3) < 1e-3

    def test_tolerances_reach_the_ladder(self, tmp_path):
        # the ladder's decompositions use the run's --tol-cluster: at 1e-6
        # cycle:12's four pairs of resonances 6.7e-8 apart at eps 0.00075
        # merge, and the families at those pairs fail hypotheses a1 and a3
        argv = ("perturb", "--preset", "cycle:12", "--tails", "0,1,2",
                "--eps", "0.003,0.0015,0.00075")
        gates = []
        for tol in ("1e-12", "1e-6"):
            code, out = run(tmp_path / tol, *argv, "--tol-cluster", tol)
            assert code == 0
            meta = json.loads((out / "sigma_limit.json.meta.json").read_text())
            assert meta["tolerances"] == {"cluster": float(tol)}
            fams = json.loads((out / "sigma_limit.json").read_text())["families"]
            gates.append(sum(f["assumptions"]["gate"] for f in fams))
        assert gates == [18, 14]

    @pytest.mark.parametrize("eps, decoupled", [
        # cycle:4's resonances couple to the Schur form at 1.9e-9 at eps 1e-4
        # and below at 1e-5: a split bound of 1e-8 splits them off by mistake
        pytest.param("4e-4,2e-4,1e-4", 1e-8, id="4e-4,2e-4,1e-4"),
        pytest.param("4e-5,2e-5,1e-5", 1e-8, id="4e-5,2e-5,1e-5"),
        # at eps 1e-7 they lie 3.3e-14 inside the circle, and rounding
        # decouples them at the default bound
        pytest.param("4e-7,2e-7,1e-7", None, id="4e-7,2e-7,1e-7"),
    ])
    def test_coupled_on_circle_cluster_is_refused(
        self, tmp_path, capsys, monkeypatch, eps, decoupled,
    ):
        # a resonance split off as embedded still couples to the ports;
        # dropped from the closed form, it would give norm 2.0
        if decoupled is not None:
            monkeypatch.setattr(internal_spectral, "_DECOUPLED", decoupled)
        code, _ = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", eps,
        )
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        m = re.search(r"\(ClusterAmbiguity\): on-circle cluster at (\S+) .* couples to the", err)
        assert m, err
        assert abs(abs(complex(m.group(1))) - 1) < 1e-6

    def test_near_circle_resonances_are_answered(self, tmp_path):
        # cycle:4's resonances lie 8.2e-9 inside the circle at eps 1e-4: they
        # couple to the rest of the Schur form, so they are resonances, and
        # every family's limit norm halves with eps
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "4e-4,2e-4,1e-4",
        )
        assert code == 0
        fams = json.loads((out / "sigma_limit.json").read_text())["families"]
        assert len(fams) == 6
        for fam in fams:
            norms = fam["norms"]
            assert all(abs(a / b - 2.0) <= 0.2 for a, b in zip(norms, norms[1:])), norms

    def test_limit_slope_marks_limits_that_do_not_converge(self, tmp_path):
        # a decade lower the run is answered, but rounding limits the +-i
        # families' norms, which do not halve with eps: their limit_slope, the
        # log-log slope of norms over the ladder, reads below 0.9
        code, out = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "4e-5,2e-5,1e-5",
        )
        assert code == 0
        fams = json.loads((out / "sigma_limit.json").read_text())["families"]
        meta = json.loads((out / "sigma_limit.json.meta.json").read_text())
        slopes = meta["limit_slope"]  # one per family, in their order
        assert len(slopes) == len(fams) == 6
        stalled = sorted(complex(*f["mu"]).imag for f, s in zip(fams, slopes) if s < 0.9)
        np.testing.assert_allclose(stalled, [-1.0, 1.0], atol=1e-9)
        assert sum(abs(s - 1.0) <= 0.05 for s in slopes) == 4
        want = [perturbation.fit_loglog_slope(meta["eps_ladder"], f["norms"]) for f in fams]
        np.testing.assert_allclose(slopes, want, rtol=1e-12)

    def test_factors_each_matrix_once(self, tmp_path, count_factorisations):
        with count_factorisations() as seen:
            code, _ = run(
                tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
                "--eps", "0.04,0.02,0.01",
            )
        assert code == 0
        arc_space = [h for h, n in seen["decompose"] if n == 8]
        assert len(arc_space) == len(set(arc_space)) == 4  # E0 and the three E(eps)
        assert seen["eig"] == []  # hypothesis a1 reads E(0.01)'s Schur factors

    def test_finds_each_group_once(self, tmp_path, monkeypatch):
        # a ledger carries its cluster, gap and ledger-wide verdicts, so its
        # consumers look up no E0 cluster: one lookup and one gap per
        # cluster, and at most one a2 sum per ledger
        calls = collections.Counter()
        a2_sums = []
        real_gap, real_near = perturbation._gap, SpectralData.cluster_near
        real_a2 = perturbation.ReductionLedger.a2.func

        def gap(*args):
            calls["_gap"] += 1
            return real_gap(*args)

        def cluster_near(self, *args, **kwargs):
            calls["cluster_near"] += 1
            return real_near(self, *args, **kwargs)

        def a2(led):
            a2_sums.append(id(led))
            return real_a2(led)

        counted_a2 = functools.cached_property(a2)
        counted_a2.__set_name__(perturbation.ReductionLedger, "a2")
        monkeypatch.setattr(perturbation, "_gap", gap)
        monkeypatch.setattr(SpectralData, "cluster_near", cluster_near)
        monkeypatch.setattr(perturbation.ReductionLedger, "a2", counted_a2)
        code, out = run(tmp_path, "perturb", "--preset", "cycle:12", "--tails", "0,1,2",
                        "--eps", "0.04,0.02,0.01")
        assert code == 0
        n = len(json.loads((out / "ledger.json").read_text())["eigenvalues"])  # one per cluster
        assert n > 1 and calls == {"_gap": n, "cluster_near": n}
        assert a2_sums and len(a2_sums) == len(set(a2_sums))

    def test_never_diagonalises_T(self, tmp_path, count_t_diagonalisations):
        # the reduction reads E0's decomposition alone: no graph-side T
        with count_t_diagonalisations() as seen:
            code, _ = run(
                tmp_path, "perturb", "--preset", "cycle:12", "--tails", "0,1,2",
                "--eps", "0.04,0.02,0.01",
            )
        assert code == 0
        assert seen == []

    def test_needs_three_eps_values(self, tmp_path):
        code, _ = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.02,0.01",
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("fixture", acceptance.PERTURB_FIXTURES)
    def test_ledger_slopes_are_the_asymptote_slopes(self, tmp_path, fixture):
        # ledger.json copies resonance_asymptote's slopes, bit for bit, on
        # criterion 8's ladder
        eps = (0.02, 0.01, 0.005)
        preset, tails = acceptance.FIXTURES[fixture]
        code, out = run(tmp_path, "perturb", "--preset", preset,
                        "--tails", ",".join(map(str, tails)), "--eps", ",".join(map(str, eps)))
        assert code == 0
        entries = json.loads((out / "ledger.json").read_text())["eigenvalues"]
        ctx = acceptance._Context()
        base = ctx.base(fixture)
        ladder = {e: ctx.coupling(fixture, e) for e in eps}
        assert len(entries) == len(base.sd.clusters)
        n_slopes = 0
        for entry, cl in zip(entries, base.sd.clusters):
            asym = perturbation.resonance_asymptote(ctx.ledger(fixture, cl.value), ladder)
            assert len(entry["branches"]) == len(asym["slopes"])
            for branch, slopes in zip(entry["branches"], asym["slopes"]):
                assert branch["slopes"] == slopes
                n_slopes += "first_order" in slopes
        assert n_slopes > 0

    @pytest.mark.parametrize(
        "graph, eps",
        [
            ({"vertices": 4, "edges": [[0, 1], [1, 2], [1, 3], [2, 3]], "tails": [0, 1, 3]},
             "0.9,0.45,0.225"),
            # two E0 eigenvalues 7.2e-3 apart: at eps 0.02 one disk holds both
            ({"vertices": 7, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 4], [1, 6],
                                       [2, 5], [2, 6], [4, 5]], "tails": [4, 6, 4, 5]},
             "0.02,0.01,0.005"),
        ],
        ids=["large-eps", "close-eigenvalues"],
    )
    def test_groups_exchanging_eigenvalues_are_refused(self, tmp_path, capsys, graph, eps):
        # a group disk holding other than its multiplicity of eigenvalues
        # leaves branches without a match: the run stops before any table
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps(graph))
        code, out = run(tmp_path, "perturb", "--graph", str(gf), "--eps", eps)
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure (GroupEscapedContour)" in err and "Traceback" not in err
        assert not list(out.iterdir())


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.data())
def test_perturb_on_random_graphs_is_whole_or_refused(g, data):
    # every run either writes one asymptote row per eigenvalue of each E(eps)
    # or refuses with exit 3; none raises
    tails = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1,
                               max_size=g.num_vertices))
    e0 = data.draw(st.floats(min_value=0.01, max_value=0.9))
    eps = [e0, e0 / 2, e0 / 4]
    with tempfile.TemporaryDirectory() as tmp:
        gf = Path(tmp) / "g.json"
        gf.write_text(json.dumps({"vertices": g.num_vertices, "edges": g.edges}))
        code = cli.main(["perturb", "--graph", str(gf), "--tails", ",".join(map(str, tails)),
                         "--eps", ",".join(map(repr, eps)), "--out", tmp])
        assert code in (0, cli.EXIT_NUMERICAL)
        if code == 0:
            _, rows = read_csv(Path(tmp) / "asymptote.csv")
            per_eps = collections.Counter(float(r[0]) for r in rows)
            assert per_eps == {e: 2 * g.num_edges for e in eps}


@pytest.mark.parametrize(
    "command, eps",
    [("resonances", ["0.1", "0.25"]), ("transmission", ["0.1", "0.25"]),
     ("perturb", ["0", "0.04", "0.02", "0.01"])],
)
def test_sidecars_record_health_and_tables_repeat(tmp_path, command, eps):
    # perturb's sidecars also cover its unperturbed decomposition at eps = 0
    argv = (command, "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", ",".join(e for e in eps if e != "0"),
            *(("--grid", "16") if command == "transmission" else ()))
    (code_a, out_a), (code_b, out_b) = run(tmp_path / "a", *argv), run(tmp_path / "b", *argv)
    assert code_a == code_b == 0
    metas = sorted(out_a.glob("*.meta.json"))
    assert metas
    for meta in metas:
        health = json.loads(meta.read_text())["health"]
        if command == "transmission":  # one eps per file
            stem = meta.name.removeprefix("transmission_eps").removesuffix(".csv.meta.json")
            assert [float(e) for e in health] == [float(stem)]
        else:
            assert sorted(float(e) for e in health) == sorted(float(e) for e in eps)
        for h in health.values():
            grid = {"grid_unitarity_defect"} if command == "transmission" else set()
            assert set(h) == {"reconstruction_residual", "block_condition"} | grid
            assert all(np.isfinite(v) for v in h.values())
            assert h["reconstruction_residual"] < 1e-12 and h["block_condition"] >= 1
            # the emitted grid's largest |tau_sq + reflection_sq - 1|
            assert 0.0 <= h.get("grid_unitarity_defect", 0.0) < 1e-12
    tables = sorted(p.name for p in out_a.iterdir() if not p.name.endswith(".meta.json"))
    assert tables
    for name in tables:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.parametrize(
    "command, eps, tables",
    [("resonances", "0.1,0.25", ["resonances"]),
     ("transmission", "0.25,0.5", ["transmission_eps0.25", "transmission_eps0.5"]),
     ("perturb", "0.04,0.02,0.01", ["asymptote"])],
)
def test_json_tables_hold_the_csv_numbers(tmp_path, command, eps, tables):
    argv = (command, "--preset", "cycle:4", "--tails", "0,1,2", "--eps", eps,
            *(("--grid", "16") if command == "transmission" else ()))
    code_csv, out_csv = run(tmp_path / "csv", *argv)
    code_json, out_json = run(tmp_path / "json", *argv, "--format", "json")
    assert code_csv == code_json == 0
    for stem in tables:
        header, rows = read_csv(out_csv / f"{stem}.csv")
        records = json.loads((out_json / f"{stem}.json").read_text())
        assert rows and len(records) == len(rows), stem
        for rec, row in zip(records, rows):
            assert list(rec) == header, stem
            # %.17g round-trips, so the two formats carry the same doubles
            assert [float(x) for x in row] == [float(rec[h]) for h in header], stem


def test_sidecar_config_is_pinned(tmp_path):
    # the sidecar keys are the run's flags under their recorded names
    code, out = run(tmp_path / "preset", "resonances", "--preset", "cycle:4",
                    "--tails", "v0,1,2", "--eps", "0.1,0.25")
    assert code == 0
    meta = json.loads((out / "resonances.csv.meta.json").read_text())
    assert meta["config"] == {
        "preset": "cycle:4", "graph_file": None, "tails": [0, 1, 2], "eps": [0.1, 0.25],
        "format": "csv",
    }
    assert list(meta["config"]) == ["preset", "graph_file", "tails", "eps", "format"]
    gf = tmp_path / "g.json"
    gf.write_text(json.dumps(
        {"vertices": 4, "edges": C4_EDGES, "tails": [{"vertex": 0, "count": 2}, 1]}
    ))
    code, out = run(tmp_path / "file", "transmission", "--graph", str(gf), "--eps", "0:0.5:3",
                    "--grid", "16", "--inflow", "2", "--format", "json")
    assert code == 0
    for name in ("transmission_eps0", "transmission_eps0.25", "transmission_eps0.5"):
        meta = json.loads((out / f"{name}.json.meta.json").read_text())
        assert meta["config"] == {
            "preset": None, "graph_file": str(gf), "tails": [[0, 2], [1, 1]],
            "eps": [0.0, 0.25, 0.5], "grid": 16, "inflow": 2, "format": "json",
        }, name
        assert list(meta["config"]) == [
            "preset", "graph_file", "tails", "eps", "grid", "inflow", "format"]


@pytest.mark.parametrize("command", ["resonances", "perturb"])
@pytest.mark.parametrize("flag", [("--grid", "16"), ("--inflow", "1")])
def test_transmission_flags_are_refused_elsewhere(tmp_path, monkeypatch, command, flag):
    # --grid and --inflow are transmission's: elsewhere they are usage errors,
    # raised before the graph is loaded or any matrix factored
    def work(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "_prologue", work)
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.04,0.02,0.01", *flag)
    assert exc.value.code == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


class TestVerify:
    def test_summary_records_every_criterion(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify")
        assert code == 0
        assert "[criterion  2] PASS" in capsys.readouterr().out
        summary = json.loads((out / "verify_summary.json").read_text())
        assert set(summary) == {"version", "results"}
        st = {row["criterion"]: row["status"] for row in summary["results"]}
        assert st == {cid: "pass" for cid in range(1, 13)}

    def test_summaries_repeat_across_runs(self, tmp_path):
        # no wall time enters the summary, so two runs write the same bytes
        summaries = []
        for name in ("a", "b"):
            code, out = run(tmp_path / name, "verify")
            assert code == 0
            summaries.append((out / "verify_summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_failing_criterion_exits_1(self, tmp_path, monkeypatch):
        # a criterion that raises is reported as failed and the suite goes on
        def broken(ctx):
            raise RuntimeError("synthetic")

        criteria = [(cid, name, broken if cid == 4 else fn)
                    for cid, name, fn in acceptance._CRITERIA]
        monkeypatch.setattr(acceptance, "_CRITERIA", criteria)
        code, out = run(tmp_path, "verify")
        assert code == cli.EXIT_VERIFY
        rows = json.loads((out / "verify_summary.json").read_text())["results"]
        st = {row["criterion"]: row["status"] for row in rows}
        assert st == {cid: "fail" if cid == 4 else "pass" for cid in range(1, 13)}
        assert rows[3]["detail"] == "exception RuntimeError: synthetic"

    @pytest.mark.parametrize(
        "flag",
        [("--eps", "0.1"), ("--tol-cluster", "1e-3"), ("--preset", "cycle:4"),
         ("--format", "json"), ("--fixture", "k4-3tails"), ("--residual-tol", "1e-3")],
    )
    def test_refuses_run_flags(self, tmp_path, monkeypatch, flag):
        # verify reads --out and nothing else
        def criteria(*args):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(cli, "run_all", criteria)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify", *flag)
        assert exc.value.code == cli.EXIT_CONFIG


class TestGraphFiles:
    def test_json_graph_with_tail_dicts(self, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text(
            json.dumps(
                {
                    "vertices": 4,
                    "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
                    "tails": [{"vertex": 0, "count": 2}, 1],
                }
            )
        )
        code, out = run(
            tmp_path, "resonances", "--graph", str(gf), "--eps", "0.25",
        )
        assert code == 0
        _, rows = read_csv(out / "resonances.csv")
        assert len(rows) == 8
        meta = json.loads((out / "resonances.csv.meta.json").read_text())
        assert meta["config"]["tails"] == [[0, 2], [1, 1]]

    def test_tails_flag_overrides_file(self, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text(
            json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        )
        code, _ = run(
            tmp_path, "resonances", "--graph", str(gf), "--tails", "0,2",
            "--eps", "0.1",
        )
        assert code == 0

    def test_graph_without_tails_is_a_config_error(self, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text(
            json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
        )
        code, _ = run(tmp_path, "resonances", "--graph", str(gf))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "graph",
        [
            {"vertices": 4, "edges": C4_EDGES, "tails": [{"count": 2}]},
            {"vertices": 4, "edges": C4_EDGES, "tails": 5},
            {"vertices": 4, "edges": C4_EDGES, "tails": [[0, 1]]},
            {"vertices": 1, "edges": [], "tails": [0]},
            {"vertices": 4.7, "edges": [[0, 1, 9], [1, 2], [2, 3], [3, 0]],
             "tails": [True, 2.9]},
            {"vertices": 4.0, "edges": C4_EDGES, "tails": [0]},
            {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, False]], "tails": [0]},
            {"vertices": 4, "edges": [[0, 1, 9], [1, 2], [2, 3], [3, 0]], "tails": [0]},
            {"vertices": 4, "edges": [[0, 1.0], [1, 2], [2, 3], [3, 0]], "tails": [0]},
            {"vertices": 4, "edges": [[0], [1, 2], [2, 3], [3, 0]], "tails": [0]},
            {"vertices": 4, "edges": C4_EDGES, "tails": [True]},
            {"vertices": 4, "edges": C4_EDGES, "tails": [2.9]},
            {"vertices": 4, "edges": C4_EDGES, "tails": [{"vertex": 0, "count": 2.0}]},
            {"vertices": 4, "edges": C4_EDGES, "tails": [{"vertex": 0, "weight": 2}]},
        ],
        ids=["tail-without-vertex", "tails-not-a-list", "tail-as-pair", "no-edges",
             "all-coerced", "vertices-float", "edge-bool", "edge-of-three",
             "edge-float", "edge-of-one", "tail-bool", "tail-float", "count-float",
             "tail-unknown-key"],
    )
    @pytest.mark.parametrize("command", ["resonances", "transmission", "perturb"])
    def test_malformed_graph_file_is_a_config_error(self, tmp_path, capsys, graph, command):
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps(graph))
        code, _ = run(tmp_path, command, "--graph", str(gf), "--eps", "0.04,0.02,0.01")
        assert code == cli.EXIT_CONFIG
        assert "configuration error: bad graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resonances", "transmission", "perturb"])
    def test_unreadable_graph_path_is_a_config_error(self, tmp_path, capsys, command):
        for path in (tmp_path, tmp_path / "missing.json"):  # a directory, no file
            code, _ = run(tmp_path, command, "--graph", str(path), "--eps", "0.04,0.02,0.01")
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "configuration error: bad graph file" in err and "Traceback" not in err

    def test_vertex_count_alone_is_refused_briefly(self, tmp_path, capsys):
        # one edge cannot connect a million vertices: refused up front, briefly
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps({"vertices": 10**6, "edges": [[0, 1]], "tails": [0]}))
        code, _ = run(tmp_path, "resonances", "--graph", str(gf))
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and len(err.encode()) < 1024

    def test_sidecars_record_the_file_tails(self, tmp_path):
        # a graph file's tails go to every sidecar as [vertex, count]; the
        # tables are the preset run's, whose --tails stay plain ints
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps(
            {"vertices": 4, "edges": C4_EDGES, "tails": [{"vertex": 0}, 1, {"vertex": 2}]}
        ))
        for command, eps in (("resonances", "0.25"), ("transmission", "0.25"),
                             ("perturb", "0.04,0.02,0.01")):
            outs = {}
            for how, args in (("file", ("--graph", str(gf))),
                              ("preset", ("--preset", "cycle:4", "--tails", "0,1,2"))):
                code, outs[how] = run(tmp_path / how / command, command, *args, "--eps", eps)
                assert code == 0, (command, how)
            metas = sorted(outs["file"].glob("*.meta.json"))
            assert metas, command
            for meta in metas:
                tails = json.loads(meta.read_text())["config"]["tails"]
                assert tails == [[0, 1], [1, 1], [2, 1]], (command, meta.name)
                preset = json.loads((outs["preset"] / meta.name).read_text())
                assert preset["config"]["tails"] == [0, 1, 2], (command, meta.name)
            for table in outs["file"].iterdir():
                if not table.name.endswith(".meta.json"):
                    assert table.read_bytes() == (outs["preset"] / table.name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("resonances", "--preset", "star:4", "--tails", "0"),
        ("resonances", "--preset", "cycle:4", "--tails", "9"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--eps", "1.5"),
        ("transmission", "--preset", "cycle:4", "--tails", "0", "--grid", "4"),
        ("resonances", "--preset", "cycle:4"),  # no tails anywhere
        ("transmission",),  # neither preset nor graph
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--tol-cluster", "nan"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--tol-cluster", "0"),
        # eps values whose output files would share one name
        ("transmission", "--preset", "cycle:4", "--tails", "0", "--eps", "0.1234561,0.1234562"),
        ("transmission", "--preset", "cycle:4", "--tails", "0", "--eps", "0.25,0.25"),
        # a log-log ladder needs distinct nonzero points
        ("perturb", "--preset", "cycle:4", "--tails", "0", "--eps", "0.04,0.02,0"),
        ("perturb", "--preset", "cycle:4", "--tails", "0", "--eps", "0.04,0.04,0.02"),
        # an eps range of no points, an eps list of no values
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--eps", "0.1:0.3:0"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--eps", ","),
        ("transmission", "--preset", "cycle:12", "--tails", "0,1,2", "--tol-cluster", "inf"),
        # a repeated eps would list every cluster twice
        ("resonances", "--preset", "cycle:4", "--tails", "0,1,2", "--eps", "0.25,0.25"),
        # below 1e-12 rounding would split exact multiplicities into duplicate rows
        ("resonances", "--preset", "cycle:4", "--tails", "0,1,2", "--tol-cluster", "1e-13"),
    ],
)
def test_config_errors_exit_2(tmp_path, argv, capsys):
    code, _ = run(tmp_path, *argv)
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resonances", "transmission", "perturb", "verify"])
def test_out_path_that_is_a_file_is_a_config_error(tmp_path, capsys, command):
    # refused before any work: verify runs no criterion
    blocker = tmp_path / "out"
    blocker.write_text("")
    args = [] if command == "verify" else [
        "--preset", "cycle:4", "--tails", "0,1,2", "--eps", "0.04,0.02,0.01"]
    code = cli.main([command, *args, "--out", str(blocker)])
    assert code == cli.EXIT_CONFIG
    got = capsys.readouterr()
    assert "configuration error" in got.err and "Traceback" not in got.err
    assert "[criterion" not in got.out


def test_numerical_failures_exit_3(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise ClusterAmbiguity("synthetic ambiguity")

    monkeypatch.setattr(cli, "spectral_decompose", boom)
    code, _ = run(
        tmp_path, "resonances", "--preset", "cycle:4", "--tails", "0",
        "--eps", "0.25",
    )
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("command", ["transmission", "resonances"])
def test_cluster_that_is_not_one_eigenvalue_is_refused(tmp_path, capsys, command):
    # at --tol-cluster 0.5 all 24 resonances of cycle:12 merge into one
    # "eigenvalue" near 0, whose closed form would miss |tau_sq +
    # reflection_sq - 1| by 0.59: the run names the cluster and stops
    code, out = run(
        tmp_path, command, "--preset", "cycle:12", "--tails", "0,1,2", "--eps", "0.3",
        "--tol-cluster", "0.5",
    )
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert re.search(r"\(ClusterAmbiguity\): cluster at \S+ of multiplicity 24 is not one "
                     r"eigenvalue: \|\|N\^24\|\|_F = 3\.73e\+00", err), err
    assert not list(out.glob("*.csv"))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.text(), st.sampled_from(["\u00e9t\u00e9", "\u221e", "\U0001d11e", "tab\tquote\"\\"]),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_PAYLOADS = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(_JSON_KEYS, inner, max_size=4),
), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_writer_is_json_dumps(payload):
    # the indenting writer's bytes are json's own: nested dicts and lists,
    # floats (np.float64, nan and inf among them), ints, bools, None, and
    # non-ASCII strings, as values and as keys
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "payload.json"
        cli._write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=1) + "\n").encode()


@settings(max_examples=100, deadline=None)
@given(_JSON_PAYLOADS, st.sampled_from([np.int64(3), np.float32(0.5), np.bool_(True), 1j,
                                        object(), frozenset({1})]),
       st.sampled_from(["value", "key", "item"]))
def test_json_writer_refuses_what_json_refuses(payload, bad, where):
    # a value or key json cannot write raises json's TypeError, message and all
    payload = {"value": {"ok": payload, "bad": bad}, "key": {bad: payload},
               "item": [payload, bad]}[where]
    with pytest.raises(TypeError) as want:
        json.dumps(payload, indent=1)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        cli._json_text(payload)


def test_transmission_report_script(tmp_path, monkeypatch, capsys):
    # the script writes its tables into the working directory and checks its
    # flags through the private CLI parser: run it once as a user would,
    # and its other cases in this process
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(tailwalk.__file__).resolve().parents[1]))
    flags = ("--preset", "cycle:4", "--tails", "0,1,2", "--grid", "16")
    (tmp_path / "ok").mkdir()
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "transmission_report.py"), *flags,
         "--eps", "0.25", "--spot-checks", "1"],
        cwd=tmp_path / "ok", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ok" / "transmission_eps0.25.csv").exists()
    gap = re.search(r"closed form vs iteration: (\S+)", proc.stdout)
    assert gap is not None, proc.stdout
    assert float(gap.group(1)) < 1e-7

    monkeypatch.syspath_prepend(str(root / "scripts"))
    import transmission_report

    def report(cwd, *argv):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = transmission_report.main([*flags, *argv])
        return code, capsys.readouterr()

    # two eps values that would share one CSV name are refused up front
    code, out = report(tmp_path / "clash", "--eps", "0.1234561,0.1234562")
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in out.err and not out.out
    assert not list((tmp_path / "clash").iterdir())
    # flags the CLI refuses, and a negative --spot-checks or --seed, are
    # refused the same way, before any file is written
    for label, argv in (("inflow0", ("--inflow", "0")), ("inflow9", ("--inflow", "9")),
                        ("grid0", ("--grid", "0")), ("eps2", ("--eps", "2")),
                        ("spot-1", ("--spot-checks", "-1")), ("seed-1", ("--seed", "-1"))):
        code, out = report(tmp_path / label, "--spot-checks", "1", *argv)
        assert code == cli.EXIT_CONFIG, (label, out.err)
        assert "configuration error" in out.err and "Traceback" not in out.err, label
        assert not list((tmp_path / label).iterdir()), label
    # a spot check whose iteration does not settle is a reported numerical failure
    code, out = report(tmp_path / "slow", "--eps", "0.02", "--spot-checks", "2")
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure (NoConvergence)" in out.err
    assert "Traceback" not in out.err


def test_transmission_report_writes_the_cli_files(tmp_path, monkeypatch, capsys):
    # for the same run flags the report's tables and sidecars are those of
    # `tailwalk transmission`, byte for byte
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import transmission_report

    flags = ["--preset", "cycle:4", "--tails", "0,1,2", "--eps", "0.25,0.5", "--grid", "16",
             "--inflow", "2"]
    code, out = run(tmp_path, "transmission", *flags)
    assert code == 0
    (tmp_path / "report").mkdir()
    monkeypatch.chdir(tmp_path / "report")
    assert transmission_report.main(flags) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["transmission_eps0.25.csv", "transmission_eps0.25.csv.meta.json",
                     "transmission_eps0.5.csv", "transmission_eps0.5.csv.meta.json"]
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == names
    for name in names:
        assert (tmp_path / "report" / name).read_bytes() == (out / name).read_bytes(), name
    # the report names the files it wrote, as the CLI does
    assert "eps=0.25: wrote transmission_eps0.25.csv;" in capsys.readouterr().out


def test_transmission_report_builds_one_evaluator_per_eps(tmp_path, monkeypatch, capsys):
    # each eps's curve and spot checks read its Coupling's one closed form
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import transmission_report

    builds, real = [], scattering.SigmaEvaluator.__init__

    def counted(self, *args):
        builds.append(args[0].eps)
        real(self, *args)

    monkeypatch.setattr(scattering.SigmaEvaluator, "__init__", counted)
    monkeypatch.chdir(tmp_path)
    flags = ["--preset", "cycle:4", "--tails", "0,1,2", "--eps", "0.25,0.5", "--grid", "16"]
    assert transmission_report.main(flags) == 0
    assert "closed form vs iteration" in capsys.readouterr().out
    assert builds == [0.25, 0.5]


def test_bench_ladder_measures_each_layer(monkeypatch):
    # the ladder script's per-graph measurement, in this process, on a small
    # cycle (a cycle's iteration runs on its arcs)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import bench_ladder

    # the tier-1 suite runs this test: neither measurement may run the suite
    monkeypatch.setattr(bench_ladder, "tier1", lambda: pytest.fail("tier1 called"))
    row = bench_ladder.measure("cycle:8", "0,1,2,3")
    assert (row["arcs"], row["basis_dim"], row["iterate_no_convergence"]) == (16, None, 0)
    assert row["perturb_exit"] == 0
    # the traced peak of one decomposition, in n x n arrays: at least R and L;
    # and what build_E(tg, 0) keeps, E0 and the small blocks beside it
    assert 2 <= row["decompose_peak_n2"] < 64
    assert 1 <= row["build_E_retained_n2"] < 64
    # stage two decomposes only the six moving 2 x 2 groups
    assert row["stage_two_calls"] == 6
    times = {k: v for k, v in row.items() if k.endswith("_s")}
    assert len(times) == 12 and all(v > 0 for v in times.values())
    assert "outgoing_residual_s" in times  # one verify_outgoing call on every resonance
    verify = bench_ladder.measure_verify()
    assert verify["failed"] == 0 and verify["verify_s"] > 0
    # each criterion's own time, a part of the suite's
    parts = [verify[f"criterion_{cid:02d}_s"] for cid in range(1, 13)]
    assert all(v > 0 for v in parts) and sum(parts) <= verify["verify_s"]
    # the process's peak RSS so far, in MiB: at least what numpy alone takes
    assert 10 < row["peak_rss_mb"] <= verify["peak_rss_mb"] < 4096
    # the start-up, timed in a fresh process that has not imported numpy; in
    # this one, which has, the measurement refuses to run
    monkeypatch.setenv("PYTHONPATH", str(Path(tailwalk.__file__).resolve().parents[1]))
    start = bench_ladder._fresh("measure_import()")
    assert list(start) == ["import_s"] and 0 < start["import_s"] < 30
    with pytest.raises(RuntimeError):
        bench_ladder.measure_import()


def test_bench_ladder_pairs_three_sides(monkeypatch):
    # the paired mode's record, from made-up runs: each side's median over
    # all its measurements, the ratios to the parent's, overall and run by
    # run, each count's range, and each side's distinct fixed values
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import bench_ladder

    def run(scale):
        return {
            "env": {"rounds": 3},
            "graphs": {"g": {"arcs": 8, "perturb_exit": 0,
                             "reduce_all_s": {"runs": [scale, 2 * scale, 3 * scale]},
                             "stage_two_calls": {"runs": [4, 4, 4]}}},
            "verify": {"failed": [0, 1, 0], "verify_s": {"runs": [scale] * 3},
                       "criterion_03_s": {"runs": [scale / 4] * 3},
                       "peak_rss_mb": {"runs": [64.0] * 3}},
            "import_s": {"runs": [scale / 8] * 3},
            "tier1_s": 1.5, "tier1_passed": 7, "tier1_failed": 0, "tier1_exit": 0,
            "tier1_default_blas_s": 2.5, "tier1_default_blas_exit": 0,
        }

    broken = run(1.0) | {"tier1_passed": 5, "tier1_failed": 2, "tier1_exit": 1}
    runs = {"parent": [run(1.0)] * 3, "change": [run(0.5), run(0.5), run(1.0)],
            "parent_copy": [run(1.0), broken, run(1.0)]}
    rec = bench_ladder.paired_record(runs)
    g = rec["graphs"]["g"]
    assert g["arcs"] == 8
    assert g["perturb_exit"] == {"parent": [0], "change": [0], "parent_copy": [0]}
    assert g["reduce_all_s"] == {
        "parent": 2.0, "change": 1.0, "parent_copy": 2.0,
        "change_over_parent": 0.5, "per_run_change_over_parent": [0.5, 0.5, 1.0],
        "parent_copy_over_parent": 1.0, "per_run_parent_copy_over_parent": [1.0, 1.0, 1.0],
    }
    assert g["stage_two_calls"]["change"] == {"median": 4, "min": 4, "max": 4}
    assert rec["verify"]["verify_s"]["change_over_parent"] == 0.5
    assert rec["verify"]["criterion_03_s"]["change"] == 0.125
    assert rec["verify"]["criterion_03_s"]["per_run_change_over_parent"] == [0.5, 0.5, 1.0]
    assert rec["import_s"]["change"] == 0.0625
    assert rec["import_s"]["per_run_change_over_parent"] == [0.5, 0.5, 1.0]
    assert rec["verify"]["criteria_failed_over_all_runs"] == {
        "parent": 3, "change": 3, "parent_copy": 3}
    assert rec["tier1"]["tier1_passed"]["change"] == [7, 7, 7]
    # a side's failing tier-1 run shows in its counts and its exit code
    assert rec["tier1"]["tier1_passed"]["parent_copy"] == [7, 5, 7]
    assert rec["tier1"]["tier1_failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0],
                                            "parent_copy": [0, 2, 0]}
    assert rec["tier1"]["tier1_exit"]["parent_copy"] == [0, 1, 0]
    assert rec["tier1"]["tier1_default_blas_s"]["change"] == [2.5, 2.5, 2.5]
    assert rec["tier1"]["tier1_default_blas_exit"]["parent"] == [0, 0, 0]
    assert rec["env"]["runs_per_side"] == 3 and len(rec["env"]["order"]) == 9


@pytest.mark.parametrize("summary,passed,failed", [
    ("2 failed, 361 passed in 20.1s", 361, 2),
    ("363 passed in 17.5s", 363, 0),
    ("1 error in 3.0s", 0, 1),
    ("1 failed, 360 passed, 1 warning, 2 errors in 19.0s", 360, 3),
])
def test_bench_ladder_reads_the_tier1_summary(monkeypatch, summary, passed, failed):
    # the counts come from pytest's last line, the summary, failures and
    # errors counted together; a failing test's output above it counts nothing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import bench_ladder

    stdout = "F.\nFAILED tests/x.py::test_y - assert 12 passed\n" + summary + "\n"
    assert bench_ladder.summary_counts(stdout) == {"tier1_passed": passed,
                                                   "tier1_failed": failed}


def test_table_set_script(tmp_path):
    # the reference table set behind byte-identity checks: every run exits 0
    # and writes its tables, in CSV or, for the first graph file's second
    # run of each command, in JSON; cycle:4's near-circle ladders at eps 1e-4
    # and 1e-5 among them
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(tailwalk.__file__).resolve().parents[1]))
    out = tmp_path / "tables"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "table_set.py"), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "exit_codes.txt").read_text().splitlines()
    assert len(lines) == 39
    assert all(line.split()[2:] == ["0"] for line in lines), lines
    assert {"perturb cycle_4-t0_1_2-eps1e-4 0", "perturb cycle_4-t0_1_2-eps1e-5 0"} <= set(lines)
    wants = {
        "resonances": ["resonances.csv"],
        "transmission": ["transmission_eps0.25.csv", "transmission_eps0.6.csv"],
        "perturb": ["ledger.json", "asymptote.csv", "sigma_limit.json"],
        "verify": ["verify_summary.json"],
    }
    for line in lines:
        command, label = line.split()[:2]
        where = out / "verify" if command == "verify" else out / command / label
        for name in wants[command]:
            if label.endswith("-json"):  # the graph file's --format json tables
                name = name.replace(".csv", ".json")
            assert (where / name).is_file(), line


def test_table_diff_script(tmp_path):
    # two small synthetic table sets: per-key numeric deviations, then what
    # is not numeric (flags, keys on one side, rows added, changed lines)
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "x.json": ({"norms": [1.0, 2.0, 3.0], "gate": True, "gone": 1, "rows": [1, 2]},
                   {"norms": [1.0, 2.0, 3.5], "gate": False, "rows": [1, 2, 3], "new": 0}),
        "t.csv": ("eps,mu\n0.1,1.0\n0.2,2.0\n0.3,3.0\n",
                  "eps,mu\n0.1,1.0000001\n0.2,2.0\n0.25,2.5\n0.26,2.6\n0.3,3.0\n"),
        "codes.txt": ("run x 0\n", "run x 3\n"),
        "same.txt": ("1\n", "1\n"),
    }
    for name, pair in files.items():
        for root, content in zip((a, b), pair):
            root.mkdir(exist_ok=True)
            text = content if isinstance(content, str) else json.dumps(content)
            (root / name).write_text(text)
    (a / "only.txt").write_text("")
    script = Path(__file__).resolve().parents[1] / "scripts" / "table_diff.py"
    proc = subprocess.run([sys.executable, str(script), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "codes.txt",
        '  [0]: "run x 0" -> "run x 3"',
        "only in A: only.txt",
        "t.csv",
        "  [].mu: 1 differ, max abs 1e-07, max rel 1e-07",
        "  [2:2] (0 items) -> [2:4] (2 items)",
        "x.json",
        "  norms[]: 1 differ, max abs 0.5, max rel 0.143",
        "  gate: true -> false",
        "  gone: only in A",
        "  rows[2:2] (0 items) -> [2:3] (1 items)",
        "  new: only in B",
        "1 files byte-identical, 3 differ, 1 on one side only",
    ]


_TRACED_RUN = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from spans import Tracer, install
from tailwalk import cli, perturbation

tracer = Tracer()
install(tracer)
planned = sorted(
    "perturbation." + name for name, fn in vars(perturbation).items()
    if hasattr(fn, "__wrapped__") and fn.__module__ == perturbation.__name__
)
with tempfile.TemporaryDirectory() as out:
    codes = [
        cli.main(["perturb", "--preset", "cycle:4", "--tails", "0,1,2",
                  "--eps", "0.04,0.02,0.01", "--out", out]),
        cli.main(["verify", "--out", out]),
    ]
print(json.dumps({"codes": codes, "planned": planned,
                  "traced": sorted({s[3] for s in tracer.spans})}))
"""


def test_traced_run_reaches_every_perturbation_span(tmp_path):
    """The benchmark's tracer wraps layer functions by name; a rename or a
    rebinding that bypasses a wrapper must fail here, not in a benchmark run.
    ``perturb`` reaches the reduction, asymptote and limit functions, and the
    verify suite's criterion 9 the projection ones."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(tailwalk.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert got["planned"] and set(got["planned"]) <= set(got["traced"]), got


def test_traced_benchmark_hooks_resolve():
    # perfbench/spans.py wraps layer functions and methods by name, and its
    # install raises AttributeError once one is gone: run it as the traced
    # benchmark does, from the repository root, importing tailwalk from src/
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
            "from spans import Tracer, install; install(Tracer())")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
