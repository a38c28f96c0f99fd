"""Command-line front end: sweeps, reports, and the built-in verify suite.

Subcommands
-----------
resonances    per-eps eigenvalue table of the boundary matrix (CSV/JSON)
transmission  lambda-grid transmission/reflection curves per eps
perturb       reduction ledger, asymptote-vs-truth table, resonant-limit report
verify        run the acceptance suite on built-in fixtures

Every file that ``resonances``, ``transmission`` and ``perturb`` write gets
a ``<name>.meta.json`` sidecar (``verify``'s ``verify_summary.json`` gets
none) recording tolerances, cluster decisions, the numerical health of each
decomposition behind it (``health``: reconstruction residual and block
condition per eps, and for ``transmission`` the largest ``|tau_sq +
reflection_sq - 1|`` on the emitted grid) and the package version, so a
table can always be traced back to the run that produced it.
``perturb``'s ``sigma_limit.json`` sidecar also records each family's
``limit_unitarity_defect``, ``||(I + Sigma01)* (I + Sigma01) - I||_2``, and
a run where one exceeds ``LIMIT_UNITARITY_TOL`` is refused; it records each
family's ``limit_slope`` too, the log-log slope of its ``norms`` over the
ladder, which reads 1 where the limit converges at first order.  Floats are
written with %.17g so repeated runs are byte-identical.

Exit codes: 0 ok, 1 verify failures, 2 configuration problems, 3 numerical
failures (with a report on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .internal_spectral import CLUSTER_TOL, ClusterAmbiguity, build_E, spectral_decompose
from .perturbation import (
    LIMIT_UNITARITY_TOL,
    Coupling,
    GroupEscapedContour,
    NonUnitaryLimit,
    fit_loglog_slope,
    reduce_eigenvalue,
    resonance_asymptote,
    resonant_sigma_limit,
)
from .scattering import NoConvergence, transmission_curve
from .tailed_graph import (
    GraphError,
    TailedGraph,
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
    GroupEscapedContour,
    NoConvergence,
    NonUnitaryLimit,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value, missing graph, ...)."""


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
    except ValueError as exc:
        raise ConfigError(f"cannot parse --eps value {text!r}: {exc}") from exc


def _run_config(args: argparse.Namespace) -> argparse.Namespace:
    """A run command's parsed flags, checked once: ``tails`` and ``eps``
    become lists, and the namespace is the run's configuration (its
    defaults live in the parser)."""
    args.tails = _parse_tails(args.tails) if args.tails else None
    args.eps = _parse_eps(args.eps)
    if "grid" in args and args.grid < 8:  # --grid and --inflow are transmission's
        raise ConfigError(f"--grid must be >= 8, got {args.grid}")
    for e in args.eps:
        if not 0.0 <= e <= 1.0:
            raise ConfigError(f"eps values must lie in [0, 1], got {e}")
    if not args.eps:
        raise ConfigError("at least one eps value is required")
    if len(set(args.eps)) < len(args.eps):
        raise ConfigError("eps values must be distinct")
    # below CLUSTER_TOL rounding would split exact multiplicities; NaN fails too
    if not CLUSTER_TOL <= args.tol_cluster < math.inf:
        raise ConfigError(f"--tol-cluster must be finite and at least {CLUSTER_TOL:.0e}, "
                          f"got {args.tol_cluster}")
    return args


def _file_int(x):
    """An integer field of a graph file, refused when it is anything else:
    a bool, a float or a string would otherwise be coerced."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _file_edge(e):
    if not isinstance(e, list) or len(e) != 2:
        raise ValueError(f"edge {e!r} is not two vertex ids")
    return tuple(map(_file_int, e))


def _file_tail(t):
    """A vertex id, or a {"vertex", "count"} record (count 1 if left out)."""
    if not isinstance(t, dict):
        return _file_int(t)
    if not set(t) <= {"vertex", "count"}:
        raise ValueError(f"tail {t!r} has keys other than vertex and count")
    return TailSpec(_file_int(t["vertex"]), _file_int(t.get("count", 1)))


def _load_tailed_graph(cfg: argparse.Namespace) -> TailedGraph:
    if (cfg.preset is None) == (cfg.graph is None):
        raise ConfigError("give exactly one of --preset or --graph")
    tails = cfg.tails
    if cfg.preset is not None:
        try:
            g = preset_graph(cfg.preset)
        except GraphError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        path = Path(cfg.graph)
        try:
            data = json.loads(path.read_text())
            g = build_internal(_file_int(data["vertices"]), [_file_edge(e) for e in data["edges"]])
            if tails is None and "tails" in data:
                tails = [_file_tail(t) for t in data["tails"]]
        except (OSError, KeyError, TypeError, ValueError, GraphError) as exc:
            raise ConfigError(f"bad graph file {path}: {exc}") from exc
    try:
        tg = attach_tails(g, tails if tails is not None else [])
    except GraphError as exc:
        raise ConfigError(str(exc)) from exc
    if tg.num_ports == 0:
        raise ConfigError("this command needs at least one tail")
    if "inflow" in cfg and not 1 <= cfg.inflow <= tg.num_ports:
        raise ConfigError(
            f"--inflow must be in 1..{tg.num_ports} (1-based port index), got {cfg.inflow}"
        )
    return tg


def _out_dir(path: str) -> Path:
    """The output directory, made before any work: a path that cannot be
    one is a configuration error, not a traceback after the run."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out}: {exc}") from exc
    return out


def _transmission_stems(eps_values: list[float]) -> list[str]:
    """One file stem per eps, refused when two would name the same file."""
    stems = [f"transmission_eps{eps:g}" for eps in eps_values]
    if len(set(stems)) < len(stems):
        raise ConfigError("eps values must differ at 6 significant digits (file names)")
    return stems


def _prologue(
    cfg: argparse.Namespace, base: bool = False
) -> tuple[TailedGraph, Path, list[Coupling]]:
    """The run's graph, its output directory and each E(eps) factored once at
    the run's cluster tolerance, in that order (so are the errors).  With
    ``base`` the list starts with the unperturbed problem: E(0) with E0
    factored."""
    tg = _load_tailed_graph(cfg)
    outdir = _out_dir(cfg.out)
    im0 = build_E(tg, 0.0)
    pairs = [(im0, im0.E0)] if base else []
    pairs += [(im, im.E) for im in map(im0.at, cfg.eps)]
    return tg, outdir, [
        Coupling(im, spectral_decompose(E, cluster_tol=cfg.tol_cluster)) for im, E in pairs
    ]


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n")


_JSON_ESCAPE = json.encoder.encode_basestring_ascii
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=1)``, byte for byte.

    With an indent ``json`` runs its pure-Python encoder, a generator per
    container; this one appends each piece to one list.  It tests types in
    ``json``'s own order, so subclasses such as ``np.float64`` read as
    ``json`` reads them, and a value or key ``json`` refuses raises its
    ``TypeError``.  There is no check for circular containers: the payloads
    are trees."""
    out: list[str] = []
    _json_item("", payload, "\n", out)
    return "".join(out)


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _json_item(prefix: str, o, newline: str, out: list[str]) -> None:
    """Append ``prefix`` and o's text to ``out``; ``newline`` breaks a line
    and indents to o's depth.  Like ``json``, each scalar joins the
    separator before it in one piece (one string per item, not two), and a
    float item skips the dispatch."""
    if isinstance(o, str):
        out.append(prefix + _JSON_ESCAPE(o))
    elif o is None:
        out.append(prefix + "null")
    elif o is True:
        out.append(prefix + "true")
    elif o is False:
        out.append(prefix + "false")
    elif isinstance(o, int):
        out.append(prefix + int.__repr__(o))
    elif isinstance(o, float):
        out.append(prefix + _json_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append(prefix + "[]")
            return
        inner = newline + " "
        sep, comma = prefix + "[" + inner, "," + inner
        for item in o:
            if type(item) is float:
                out.append(sep + _json_float(item))
            else:
                _json_item(sep, item, inner, out)
            sep = comma
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append(prefix + "{}")
            return
        inner = newline + " "
        sep, comma = prefix + "{" + inner, "," + inner
        for key, value in o.items():
            head = sep + _JSON_ESCAPE(key if isinstance(key, str) else _json_key(key)) + ": "
            if type(value) is float:
                out.append(head + _json_float(value))
            else:
                _json_item(head, value, inner, out)
            sep = comma
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A key that is not a string, as ``json`` writes it (then quoted)."""
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _g17(x: float) -> str:
    return "%.17g" % float(x)


def _write_table(path: Path, header: list[str], rows, fmt: str) -> Path:
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
                w.writerow([x if isinstance(x, int) else _g17(x) for x in row])
    else:
        out = Path(str(path) + ".json")
        _write_json(out, [dict(zip(header, row)) for row in rows])
    return out


def _write_sidecar(
    out_file: Path, cfg: argparse.Namespace, tg: TailedGraph, command: str, extra: dict
) -> None:
    """``tails`` records the run's tails: the ``--tails`` vertices as given,
    else the graph file's as [vertex, count]."""
    meta = {
        "version": __version__,
        "command": command,
        "tolerances": {"cluster": cfg.tol_cluster},
        "config": {
            "preset": cfg.preset,
            "graph_file": cfg.graph,
            "tails": cfg.tails or [[t.vertex, t.count] for t in tg.tails],
            "eps": cfg.eps,
        } | {k: getattr(cfg, k) for k in ("grid", "inflow", "format") if k in cfg},
    }
    _write_json(Path(str(out_file) + ".meta.json"), meta | extra)


def _health(pairs) -> dict:
    """Numerical health of each (eps, Coupling) decomposition, keyed by eps
    like the cluster decisions."""
    return {
        _g17(eps): {
            "reconstruction_residual": cpl.sd.reconstruction_residual,
            "block_condition": cpl.sd.block_condition,
        }
        for eps, cpl in pairs
    }


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

def cmd_resonances(cfg: argparse.Namespace) -> int:
    tg, outdir, ladder = _prologue(cfg)
    couplings = list(zip(cfg.eps, ladder))
    rows = [
        [eps, c.value.real, c.value.imag, abs(c.value), c.mult, int(c.on_circle)]
        for eps, cpl in couplings
        for c in cpl.sd.clusters
    ]
    decisions = {_g17(eps): _cluster_record(cpl.sd) for eps, cpl in couplings}
    header = ["epsilon", "re_mu", "im_mu", "abs_mu", "multiplicity", "on_circle"]
    out = _write_table(outdir / "resonances", header, rows, cfg.format)
    _write_sidecar(
        out, cfg, tg, "resonances", {"cluster_decisions": decisions, "health": _health(couplings)}
    )
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _write_transmission(cfg: argparse.Namespace) -> list[tuple[Path, Coupling, dict]]:
    """Each eps's table and sidecar on the run's uniform grid over
    [-pi, pi), written in eps order: (file, Coupling, curve) per eps.  The
    curve reads the Coupling's evaluator, which a caller's spot checks share."""
    stems = _transmission_stems(cfg.eps)
    tg, outdir, ladder = _prologue(cfg)
    lam_grid = np.linspace(-np.pi, np.pi, cfg.grid, endpoint=False)

    header = ["lambda", "re_exp_minus_i_lambda", "im_exp_minus_i_lambda", "tau_sq",
              "reflection_sq"]
    written = []
    for eps, stem, cpl in zip(cfg.eps, stems, ladder):
        curve = transmission_curve(cpl.im, lam_grid, cfg.inflow - 1, cpl.sd, cpl.sigma)
        out = _write_table(outdir / stem, header, zip(*(curve[h] for h in header)), cfg.format)
        # the emitted grid's largest |tau_sq + reflection_sq - 1|: Sigma is unitary
        defect = float(np.max(np.abs(curve["tau_sq"] + curve["reflection_sq"] - 1.0)))
        health = _health([(eps, cpl)])
        health[_g17(eps)]["grid_unitarity_defect"] = defect
        _write_sidecar(out, cfg, tg, "transmission", {
            "eps": eps, "cluster_decisions": _cluster_record(cpl.sd), "health": health,
        })
        written.append((out, cpl, curve))
    return written


def cmd_transmission(cfg: argparse.Namespace) -> int:
    print("wrote " + ", ".join(str(out) for out, _, _ in _write_transmission(cfg)))
    return 0


def cmd_perturb(cfg: argparse.Namespace) -> int:
    if len(cfg.eps) < 3:
        raise ConfigError("perturb needs an eps ladder with at least 3 points")
    if 0.0 in cfg.eps:
        raise ConfigError("perturb needs nonzero eps values (log-log slope fits)")
    # base, the unperturbed problem: E0's decomposition, all the reduction reads
    tg, outdir, (base, *ladder) = _prologue(cfg, base=True)
    # the ladder, largest eps first, shared by every family
    couplings = dict(sorted(zip(cfg.eps, ladder), key=lambda p: -p[0]))

    header = ["epsilon", "re_true", "im_true", "re_pred", "im_pred", "abs_err"]
    ledger_entries = []
    asym_rows = []
    ledgers = []
    for cl in base.sd.clusters:
        led = reduce_eigenvalue(base, cl.value)
        asym = resonance_asymptote(led, couplings)
        ledger_entries.append({
            "mu": [led.mu.real, led.mu.imag],
            "m": cl.mult,
            "branches": [
                {
                    "mu1": [b.mu1.real, b.mu1.imag],
                    "mu2": [b.mu2.real, b.mu2.imag],
                    "multiplicity": b.multiplicity,
                    "persistent": b.persistent,
                    "slopes": slopes,
                }
                for b, slopes in zip(led.branches, asym["slopes"])
            ],
        })
        asym_rows.extend([r[h] for h in header] for r in asym["rows"])
        ledgers.append(led)

    # every ledger's families at once: one Sigma evaluation per eps
    limits = resonant_sigma_limit(ledgers, couplings)
    defects = [rec.unitarity_defect for rec in limits]
    worst = max(defects, default=0.0)
    if not worst <= LIMIT_UNITARITY_TOL:
        raise NonUnitaryLimit(
            f"resonant limit I + Sigma01 is not unitary: ||(I + Sigma01)* (I + Sigma01) - I||_2 "
            f"= {worst:.2e} > {LIMIT_UNITARITY_TOL:g}"
        )
    limit_records = [
        {
            "mu": [rec.mu.real, rec.mu.imag],
            "mu1": [rec.family.mu1.real, rec.family.mu1.imag],
            "eta1": rec.family.eta1,
            "lam_eps": rec.lam_eps,
            "norms": rec.norms,
            "sigma01": [[[z.real, z.imag] for z in row] for row in rec.sigma01],
            "assumptions": asdict(rec.verdicts) | {"gate": rec.verdicts.gate},
        }
        for rec in limits
    ]

    # each family's log-log slope of its norms over the ladder, all in one fit
    norms = np.array([rec.norms for rec in limits]).T
    limit_slopes = fit_loglog_slope(list(couplings), norms).tolist() if limits else []

    health = _health([(0.0, base), *couplings.items()])
    ladder_meta = {"eps_ladder": list(couplings), "health": health}
    ledger_file = outdir / "ledger.json"
    _write_json(ledger_file, {"eigenvalues": ledger_entries})
    _write_sidecar(
        ledger_file, cfg, tg, "perturb",
        {"cluster_decisions": _cluster_record(base.sd), "health": health,
         "stage1_hermitian_defect": max(led.stage1_defect for led in ledgers)},
    )

    asym_file = _write_table(outdir / "asymptote", header, asym_rows, cfg.format)
    _write_sidecar(asym_file, cfg, tg, "perturb", ladder_meta)

    limit_file = outdir / "sigma_limit.json"
    _write_json(limit_file, {"families": limit_records})
    _write_sidecar(limit_file, cfg, tg, "perturb",
                   ladder_meta | {"limit_unitarity_defect": defects, "limit_slope": limit_slopes})

    print(f"wrote {ledger_file}, {asym_file}, {limit_file}")
    return 0


def cmd_verify(out_dir: str) -> int:
    summary = _out_dir(out_dir) / "verify_summary.json"
    results = run_all()
    for r in results:
        print(r.line())
    _write_json(summary, {
        "version": __version__,
        "results": [
            {"criterion": r.cid, "name": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ],
    })
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="qw-out", help="output directory")
    run = argparse.ArgumentParser(add_help=False, parents=[out])
    run.add_argument("--preset", help="built-in graph, e.g. cycle:4 or complete:4")
    run.add_argument("--graph", help="JSON graph file {vertices, edges, tails?}")
    run.add_argument(
        "--tails",
        help="comma list of tailed vertices, 'v0,v1,v2' or '0,1,2'; repeats allowed",
    )
    run.add_argument("--eps", help="eps values: comma list or a:b:n range", default="0.25")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--tol-cluster", type=float, default=CLUSTER_TOL)

    p = argparse.ArgumentParser(
        prog="tailwalk",
        description="quantum walks on finite graphs with semi-infinite tails",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("resonances", parents=[run], help="per-eps eigenvalue tables")
    trans = sub.add_parser("transmission", parents=[run], help="lambda-grid scattering curves")
    trans.add_argument("--grid", type=int, default=256, help="lambda grid size (>= 8)")
    trans.add_argument("--inflow", type=int, default=1, help="inflow port, 1-based")
    sub.add_parser("perturb", parents=[run], help="reduction ledger and asymptotics")
    sub.add_parser("verify", parents=[out], help="run the acceptance suite")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out)
        cfg = _run_config(args)
        if args.command == "resonances":
            return cmd_resonances(cfg)
        if args.command == "transmission":
            return cmd_transmission(cfg)
        return cmd_perturb(cfg)
    except (ConfigError, GraphError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
