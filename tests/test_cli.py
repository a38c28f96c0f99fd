"""Command-line interface: parsing, outputs, sidecars, exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tailwalk import cli
from tailwalk.internal_spectral import ClusterAmbiguity


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
        assert meta["tolerances"]["cluster"] == 1e-7
        assert "cluster_decisions" in meta

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
                "a1", "a2", "a3", "x_nonzero", "mu1_nonzero", "gate",
            }
            assert fam["assumptions"]["gate"] is True
            assert len(fam["norms"]) == 3

    def test_needs_three_eps_values(self, tmp_path):
        code, _ = run(
            tmp_path, "perturb", "--preset", "cycle:4", "--tails", "0,1,2",
            "--eps", "0.02,0.01",
        )
        assert code == cli.EXIT_CONFIG


class TestVerify:
    def test_fixture_filtered_run(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "--fixture", "c4-3tails-b")
        assert code == 0
        text = capsys.readouterr().out
        assert "[criterion  2] PASS" in text
        summary = json.loads((out / "verify_summary.json").read_text())
        st = {row["criterion"]: row["status"] for row in summary["results"]}
        assert st[2] == "pass" and st[10] == "pass"
        assert st[1] == "skip"  # bare-cycle check needs the full suite
        assert st[12] == "skip"  # runs on c4-3tails-a only

    def test_residual_tol_forces_failures(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "--fixture", "c4-3tails-a",
            "--residual-tol", "1e-30",
        )
        assert code == cli.EXIT_VERIFY


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
    "argv",
    [
        ("resonances", "--preset", "star:4", "--tails", "0"),
        ("resonances", "--preset", "cycle:4", "--tails", "9"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--eps", "1.5"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--grid", "4"),
        ("resonances", "--preset", "cycle:4"),  # no tails anywhere
        ("transmission",),  # neither preset nor graph
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--tol-cluster", "nan"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--tol-circle", "nan"),
        ("resonances", "--preset", "cycle:4", "--tails", "0", "--tol-cluster", "0"),
    ],
)
def test_config_errors_exit_2(tmp_path, argv, capsys):
    code, _ = run(tmp_path, *argv)
    assert code == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_numerical_failures_exit_3(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise ClusterAmbiguity("synthetic ambiguity")

    monkeypatch.setattr(cli, "spectral_decompose", boom)
    code, _ = run(
        tmp_path, "resonances", "--preset", "cycle:4", "--tails", "0",
        "--eps", "0.25",
    )
    assert code == cli.EXIT_NUMERICAL
