"""Command-line front end: sweeps, reports, and the built-in verify suite.

Subcommands
-----------
resonances    per-eps eigenvalue table of the boundary matrix (CSV/JSON)
transmission  lambda-grid transmission/reflection curves per eps
perturb       reduction ledger, asymptote-vs-truth table, resonant-limit report
verify        run the acceptance suite on built-in fixtures

Every emitted file gets a ``<name>.meta.json`` sidecar recording tolerances,
cluster decisions and the package version, so a table can always be traced
back to the run that produced it.  Floats are written with %.17g so repeated
runs are byte-identical.

Exit codes: 0 ok, 1 verify failures, 2 configuration problems, 3 numerical
failures (with a report on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import FIXTURES, run_all
from .internal_spectral import ClusterAmbiguity, build_E, spectral_decompose
from .perturbation import (
    GroupEscapedContour,
    Stage1NotSemisimple,
    fit_loglog_slope,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
)
from .scattering import NoConvergence, SigmaEvaluator, transmission_curve
from .tailed_graph import (
    GraphError,
    TailSpec,
    attach_tails,
    build_internal,
    preset_graph,
)

EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    ClusterAmbiguity,
    NoConvergence,
    GroupEscapedContour,
    Stage1NotSemisimple,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value, missing graph, ...)."""


@dataclass
class RunConfig:
    preset: str | None = None
    graph_file: str | None = None
    tails: list | None = None
    eps_values: list[float] = field(default_factory=lambda: [0.25])
    grid: int = 256
    inflow: int = 1  # 1-based port index
    out_dir: str = "qw-out"
    fmt: str = "csv"
    tol_cluster: float = 1e-7
    tol_circle: float = 1e-8

    def validate(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.fmt!r}")
        if self.grid < 8:
            raise ConfigError(f"--grid must be >= 8, got {self.grid}")
        for e in self.eps_values:
            if not 0.0 <= e <= 1.0:
                raise ConfigError(f"eps values must lie in [0, 1], got {e}")
        if not self.eps_values:
            raise ConfigError("at least one eps value is required")
        if not (self.tol_cluster > 0 and self.tol_circle > 0):  # also refuses NaN
            raise ConfigError("tolerances must be positive")


def _parse_tails(text: str) -> list[int]:
    """Accept both "v0,v1,v2" and "0,1,2"; repeats mean several tails."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part[0] in "vV":
            part = part[1:]
        try:
            out.append(int(part))
        except ValueError as exc:
            raise ConfigError(f"bad tail entry {part!r} in --tails") from exc
    if not out:
        raise ConfigError("--tails parsed to an empty list")
    return out


def _parse_eps(text: str) -> list[float]:
    """Either a comma list "0.1,0.25" or a range "a:b:n" (n points, inclusive)."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            n = int(n)
            if n < 1:
                raise ValueError("n < 1")
            return [float(x) for x in np.linspace(float(a), float(b), n)]
        return [float(x) for x in text.split(",") if x.strip()]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse --eps value {text!r}: {exc}") from exc


def _load_tailed_graph(cfg: RunConfig):
    if (cfg.preset is None) == (cfg.graph_file is None):
        raise ConfigError("give exactly one of --preset or --graph")
    tails = cfg.tails
    if cfg.preset is not None:
        try:
            g = preset_graph(cfg.preset)
        except GraphError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        path = Path(cfg.graph_file)
        if not path.exists():
            raise ConfigError(f"graph file {path} does not exist")
        try:
            data = json.loads(path.read_text())
            g = build_internal(int(data["vertices"]), [tuple(e) for e in data["edges"]])
        except (KeyError, TypeError, ValueError, GraphError) as exc:
            raise ConfigError(f"bad graph file {path}: {exc}") from exc
        if tails is None and "tails" in data:
            tails = [
                TailSpec(int(t["vertex"]), int(t.get("count", 1)))
                if isinstance(t, dict)
                else int(t)
                for t in data["tails"]
            ]
    try:
        tg = attach_tails(g, tails if tails is not None else [])
    except GraphError as exc:
        raise ConfigError(str(exc)) from exc
    if tg.num_ports == 0:
        raise ConfigError("this command needs at least one tail")
    if not 1 <= cfg.inflow <= tg.num_ports:
        raise ConfigError(
            f"--inflow must be in 1..{tg.num_ports} (1-based port index), got {cfg.inflow}"
        )
    return tg


def _max_workers() -> int:
    env = os.environ.get("QW_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"QW_THREADS must be an integer, got {env!r}")
    return max(1, min(4, os.cpu_count() or 1))


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _write_table(path: Path, header: list[str], rows: list[list], fmt: str) -> Path:
    """Rows of numbers (ints kept as ints), CSV or JSON, deterministic text.

    The extension is appended, not substituted: stem names like
    ``transmission_eps0.25`` contain dots that with_suffix would eat.
    """
    if fmt == "csv":
        out = Path(str(path) + ".csv")
        with out.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow(
                    [x if isinstance(x, int) else _g17(x) for x in row]
                )
    else:
        out = Path(str(path) + ".json")
        payload = [dict(zip(header, row)) for row in rows]
        out.write_text(json.dumps(payload, indent=1) + "\n")
    return out


def _write_sidecar(out_file: Path, cfg: RunConfig, command: str, extra: dict) -> None:
    meta = {
        "version": __version__,
        "command": command,
        "tolerances": {"cluster": cfg.tol_cluster, "circle": cfg.tol_circle},
        "config": {
            "preset": cfg.preset,
            "graph_file": cfg.graph_file,
            "tails": [
                [t.vertex, t.count] if isinstance(t, TailSpec) else t
                for t in (cfg.tails or [])
            ],
            "eps": cfg.eps_values,
            "grid": cfg.grid,
            "inflow": cfg.inflow,
            "format": cfg.fmt,
        },
    }
    meta.update(extra)
    Path(str(out_file) + ".meta.json").write_text(json.dumps(meta, indent=1) + "\n")


def _cluster_record(sd) -> list[dict]:
    return [
        {
            "value": [c.value.real, c.value.imag],
            "multiplicity": c.mult,
            "on_circle": bool(c.on_circle),
            "nilpotent_norm": c.nilpotent_norm,
        }
        for c in sd.clusters
    ]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_resonances(cfg: RunConfig) -> int:
    tg = _load_tailed_graph(cfg)
    im0 = build_E(tg, 0.0)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def work(eps: float):
        sd = spectral_decompose(
            im0.at(eps).E, cluster_tol=cfg.tol_cluster, circle_tol=cfg.tol_circle
        )
        return eps, sd

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(work, cfg.eps_values))

    rows = []
    decisions = {}
    for eps, sd in results:
        decisions[_g17(eps)] = _cluster_record(sd)
        for c in sd.clusters:
            rows.append(
                [eps, c.value.real, c.value.imag, abs(c.value), c.mult, int(c.on_circle)]
            )
    out = _write_table(
        outdir / "resonances",
        ["epsilon", "re_mu", "im_mu", "abs_mu", "multiplicity", "on_circle"],
        rows,
        cfg.fmt,
    )
    _write_sidecar(out, cfg, "resonances", {"cluster_decisions": decisions})
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_transmission(cfg: RunConfig) -> int:
    tg = _load_tailed_graph(cfg)
    im0 = build_E(tg, 0.0)
    lam_grid = np.linspace(-np.pi, np.pi, cfg.grid, endpoint=False)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def work(eps: float):
        sd = spectral_decompose(
            im0.at(eps).E, cluster_tol=cfg.tol_cluster, circle_tol=cfg.tol_circle
        )
        curve = transmission_curve(im0.at(eps), lam_grid, inflow=cfg.inflow - 1, sd=sd)
        return eps, sd, curve

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(work, cfg.eps_values))

    header = [
        "lambda",
        "re_exp_minus_i_lambda",
        "im_exp_minus_i_lambda",
        "tau_sq",
        "reflection_sq",
    ]
    written = []
    for eps, sd, curve in results:
        rows = [
            [
                curve["lambda"][i],
                curve["re_exp_minus_i_lambda"][i],
                curve["im_exp_minus_i_lambda"][i],
                curve["tau_sq"][i],
                curve["reflection_sq"][i],
            ]
            for i in range(len(lam_grid))
        ]
        out = _write_table(outdir / f"transmission_eps{eps:g}", header, rows, cfg.fmt)
        _write_sidecar(
            out,
            cfg,
            "transmission",
            {"eps": eps, "cluster_decisions": _cluster_record(sd)},
        )
        written.append(out)
    print("wrote " + ", ".join(str(w) for w in written))
    return 0


def cmd_perturb(cfg: RunConfig) -> int:
    if len(cfg.eps_values) < 3:
        raise ConfigError("perturb needs an eps ladder with at least 3 points")
    tg = _load_tailed_graph(cfg)
    im = build_E(tg, 0.0)
    sd0 = spectral_decompose(im.E0, cluster_tol=cfg.tol_cluster, circle_tol=cfg.tol_circle)
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    ladder = sorted(cfg.eps_values, reverse=True)
    evaluators = {eps: SigmaEvaluator(im.at(eps)) for eps in ladder}  # shared by all families

    ledger_entries = []
    asym_rows = []
    limit_records = []
    for cl in sd0.clusters:
        led = reduce_eigenvalue(im, cl.value, sd0)
        asym = resonance_asymptote(im, led, ladder, sd0)
        entry = led.to_json_dict()
        for bi, b in enumerate(led.branches):
            rec = asym["per_branch"][bi]
            slopes = {}
            if rec["eps"] and max(rec["first_resid"]) > 1e-13:
                slopes["first_order"] = fit_loglog_slope(rec["eps"], rec["first_resid"])
            if rec["eps"] and max(rec["second_resid"]) > 1e-13:
                slopes["second_order"] = fit_loglog_slope(rec["eps"], rec["second_resid"])
            entry["branches"][bi]["slopes"] = slopes
        ledger_entries.append(entry)
        asym_rows.extend(
            [r["epsilon"], r["re_true"], r["im_true"], r["re_pred"], r["im_pred"], r["abs_err"]]
            for r in asym["rows"]
        )
        seen = set()
        for b in led.branches:
            if abs(b.mu1) < 1e-10:
                continue
            key = (round(b.mu1.real, 9), round(b.mu1.imag, 9))
            if key in seen:
                continue
            seen.add(key)
            rec = resonant_sigma_limit(im, led, b.mu1, evaluators, sd0)
            limit_records.append(
                {
                    "mu": [rec.mu.real, rec.mu.imag],
                    "mu1": [rec.mu1.real, rec.mu1.imag],
                    "eta1": rec.eta1,
                    "lam_eps": rec.lam_eps,
                    "norms": rec.norms,
                    "sigma01": [
                        [[z.real, z.imag] for z in row] for row in rec.sigma01
                    ],
                    "assumptions": {
                        "a1": rec.verdicts.a1,
                        "a2": rec.verdicts.a2,
                        "a3": rec.verdicts.a3,
                        "x_nonzero": rec.verdicts.x_nonzero,
                        "mu1_nonzero": rec.verdicts.mu1_nonzero,
                        "gate": rec.verdicts.gate,
                    },
                    "caveat": rec.caveat,
                }
            )

    ledger_file = outdir / "ledger.json"
    ledger_file.write_text(json.dumps({"eigenvalues": ledger_entries}, indent=1) + "\n")
    _write_sidecar(ledger_file, cfg, "perturb", {"cluster_decisions": _cluster_record(sd0)})

    asym_file = _write_table(
        outdir / "asymptote",
        ["epsilon", "re_true", "im_true", "re_pred", "im_pred", "abs_err"],
        asym_rows,
        cfg.fmt,
    )
    _write_sidecar(asym_file, cfg, "perturb", {"eps_ladder": ladder})

    limit_file = outdir / "sigma_limit.json"
    limit_file.write_text(json.dumps({"families": limit_records}, indent=1) + "\n")
    _write_sidecar(limit_file, cfg, "perturb", {"eps_ladder": ladder})

    print(f"wrote {ledger_file}, {asym_file}, {limit_file}")
    return 0


def cmd_verify(cfg: RunConfig, fixture: str | None, residual_tol: float | None) -> int:
    if fixture is not None and fixture not in FIXTURES:
        raise ConfigError(f"unknown fixture {fixture!r}; choose from {sorted(FIXTURES)}")
    results = run_all(fixture, residual_tol)
    for r in results:
        print(r.line())
    outdir = Path(cfg.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = outdir / "verify_summary.json"
    summary.write_text(
        json.dumps(
            {
                "version": __version__,
                "fixture_filter": fixture,
                "residual_tol_override": residual_tol,
                "results": [
                    {
                        "criterion": r.cid,
                        "name": r.name,
                        "status": r.status,
                        "detail": r.detail,
                        "elapsed_s": r.elapsed,
                    }
                    for r in results
                ],
            },
            indent=1,
        )
        + "\n"
    )
    n_fail = sum(1 for r in results if r.status == "fail")
    n_skip = sum(1 for r in results if r.status == "skip")
    print(
        f"{len(results) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped; "
        f"summary in {summary}"
    )
    return EXIT_VERIFY if n_fail else 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="built-in graph, e.g. cycle:4 or complete:4")
    common.add_argument("--graph", help="JSON graph file {vertices, edges, tails?}")
    common.add_argument(
        "--tails",
        help="comma list of tailed vertices, 'v0,v1,v2' or '0,1,2'; repeats allowed",
    )
    common.add_argument("--eps", help="eps values: comma list or a:b:n range", default="0.25")
    common.add_argument("--grid", type=int, default=256, help="lambda grid size (>= 8)")
    common.add_argument("--inflow", type=int, default=1, help="inflow port, 1-based")
    common.add_argument("--out", default="qw-out", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol-cluster", type=float, default=1e-7)
    common.add_argument("--tol-circle", type=float, default=1e-8)

    p = argparse.ArgumentParser(
        prog="tailwalk",
        description="quantum walks on finite graphs with semi-infinite tails",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("resonances", parents=[common], help="per-eps eigenvalue tables")
    sub.add_parser("transmission", parents=[common], help="lambda-grid scattering curves")
    sub.add_parser("perturb", parents=[common], help="reduction ledger and asymptotics")
    v = sub.add_parser("verify", parents=[common], help="run the acceptance suite")
    v.add_argument("--fixture", help="restrict the suite to one built-in fixture")
    v.add_argument(
        "--residual-tol",
        type=float,
        help="override residual thresholds (tight values force reported failures)",
    )
    return p


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        preset=args.preset,
        graph_file=args.graph,
        tails=_parse_tails(args.tails) if args.tails else None,
        eps_values=_parse_eps(args.eps),
        grid=args.grid,
        inflow=args.inflow,
        out_dir=args.out,
        fmt=args.format,
        tol_cluster=args.tol_cluster,
        tol_circle=args.tol_circle,
    )
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "resonances":
            return cmd_resonances(cfg)
        if args.command == "transmission":
            return cmd_transmission(cfg)
        if args.command == "perturb":
            return cmd_perturb(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.fixture, args.residual_tol)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, GraphError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
