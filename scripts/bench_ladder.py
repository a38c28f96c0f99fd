#!/usr/bin/env python3
"""Time each layer of tailwalk on a fixed graph ladder; write the medians.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_ladder.py OUT.json
    python3 scripts/bench_ladder.py parent=SRC change=SRC OUT.json

The graphs are ``cycle:64`` and ``cycle:128`` with tails 0-3, and
``complete:8``, ``complete:16`` and ``complete:24`` with tails 0,0,1,2,
all at eps 0.6.  For each graph, one process measures once, in
:func:`measure`, the seconds spent in:

- ``build_E``
- ``spectral_decompose`` of ``E(eps)``
- ``SigmaEvaluator`` construction
- a 256-point ``transmission_curve``
- the time iteration's basis (``InternalMatrix.iteration_basis``)
- one ``stationary_iterate`` call on a fresh ``InternalMatrix``
- 16 calls (4 lambdas x 4 ports) on another fresh one
- the same 16 pairs in one ``stationary_iterate_stack`` call on a third
  fresh one (``iterate_stack_16_s``; a tailwalk without it runs them one
  call each, as ``iterate_16_s`` does)
- ``spectral_decompose`` of ``E0``, the unperturbed problem
  (``decompose_E0_s``)
- ``reduce_eigenvalue`` at every cluster of ``E0``, on that
  decomposition, as ``perturb`` runs it
- ``tailwalk perturb --eps 0.04,0.02,0.01`` end to end, through
  ``tailwalk.cli.main`` into a temporary directory
- one ``verify_outgoing`` call on every resonance of ``E(eps)``, their
  eigenvectors from an untimed ``np.linalg.eig`` (``outgoing_residual_s``)

how many of those 17 calls ended in ``NoConvergence`` (the 200,000-step
budget runs out on ``cycle:128``; such a call is timed all the same), the
exit code of the ``perturb`` run (3, a refusal, is timed as well), the
process's peak resident set size, ``peak_rss_mb`` in MiB, and
``decompose_peak_n2``: the tracemalloc peak of one more, untimed
``spectral_decompose`` of ``E(eps)``, in units of one n x n complex array
(16 n^2 bytes; E itself is not counted), and ``build_E_retained_n2``: the
traced bytes that one more, untimed ``build_E(tg, 0)`` keeps in its
result, in the same unit, and ``stage_two_calls``: the ``spectral_decompose``
calls that one more, untimed all-cluster reduction makes, counted through
``tailwalk.perturbation.spectral_decompose`` (:func:`_stage_two_calls`).
Unlike a time, those counts repeat from run to run, the first two to about
four digits and the last exactly.  Each round also times one
``acceptance.run_all()``, the ``verify`` suite, in :func:`measure_verify`,
with each criterion's own time and its process's peak RSS, and one
``import tailwalk`` in a process that has imported neither numpy nor scipy
yet, in :func:`measure_import` (``import_s``, the start-up every CLI run
pays).

Every measurement runs in a fresh process with one BLAS thread. A round
measures each graph once, so the graphs alternate, then runs ``verify``,
and ``ROUNDS`` rounds run.  After the rounds, :func:`tier1` runs the tier-1
suite (ROADMAP.md) once, in a subprocess with one BLAS thread, in the
checkout the imported ``tailwalk`` comes from: ``tier1_s`` is its wall
time, ``tier1_passed`` and ``tier1_failed`` its counts of passed and of
failed or erroring tests (:func:`summary_counts`), and ``tier1_exit``
pytest's exit code.  It then runs the suite once more under the default
BLAS threads, with ``ONE_THREAD``'s variables removed from the
environment, as a user runs it: ``tier1_default_blas_s`` and
``tier1_default_blas_exit``.  ``OUT.json`` holds
each layer's median over the rounds and the runs themselves.  It imports
the ``tailwalk`` on ``PYTHONPATH``.

Given ``parent=SRC change=SRC``, the ``src`` directories of two
checkouts, it compares the two versions itself: a third side,
``parent_copy``, is a byte-identical copy of the parent's checkout (less
``.git`` and caches) in a temporary directory, a control for run-to-run
spread.  The three sides run :func:`ladder_record` three times each, in
the order ``ROTATION``, each run in a child process with
``PYTHONDONTWRITEBYTECODE=1`` after every ``__pycache__`` directory of the
side's checkout is removed.  ``OUT.json`` then holds, per graph, each
side's median over its 15 measurements, ``X_over_parent`` (the ratio of
the medians) and ``per_run_X_over_parent`` (the ratios of the i-th runs'
medians) for every time and peak RSS, each side's median and range of
every count, and each side's tier-1 runs (:func:`paired_record`);
``BENCH_<pr>.json`` is such a record.
"""

import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# numpy and scipy are imported where they are used, so that a fresh process
# that imports this module has loaded neither when measure_import runs
GRAPHS = [
    ("cycle:64", "0,1,2,3"),
    ("cycle:128", "0,1,2,3"),
    ("complete:8", "0,0,1,2"),
    ("complete:16", "0,0,1,2"),
    ("complete:24", "0,0,1,2"),
]
EPS = 0.6
PERTURB_EPS = "0.04,0.02,0.01"
LAMBDAS = (-2.5, -0.9, 0.8, 2.4)
ROUNDS = 5
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
_PER_ROUND = ("_s", "_mb", "_n2", "_calls")  # the per-graph keys kept per round
SIDES = ("parent", "change", "parent_copy")
# the paired mode's order of runs: each side runs three times, and no side
# holds the same place in every triple
ROTATION = ("parent", "change", "parent_copy", "change", "parent", "parent_copy",
            "parent_copy", "change", "parent")
PAIRED_DESCRIPTION = (
    "scripts/bench_ladder.py run three times on each of three trees, in env.order: the "
    "parent's checkout (parent), the change's (change), and a byte-identical copy of the "
    "parent's (parent_copy), a control for run-to-run spread; every run with "
    "PYTHONDONTWRITEBYTECODE=1 and no __pycache__. Each timing and peak_rss_mb is the "
    f"median of the {3 * ROUNDS} fresh-process measurements per side ({ROUNDS} rounds per "
    "run), one BLAS thread; X_over_parent is the ratio of those medians and "
    "per_run_X_over_parent the ratio of the i-th runs' medians; verify.criterion_<id>_s "
    "is one acceptance criterion's own time within verify_s, and import_s the time of "
    "import tailwalk in a process that has not imported numpy. decompose_peak_n2, "
    "build_E_retained_n2 and stage_two_calls are median and range per side. tier1_s, "
    "tier1_passed, tier1_failed (failures and errors) and tier1_exit (pytest's exit code) "
    "are one tier-1 run per bench_ladder run, in the checkout of the side measured, with "
    "one BLAS thread; tier1_default_blas_s and tier1_default_blas_exit are one more under "
    "the default BLAS threads."
)


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _traced_n2(fn, n: int) -> tuple[float, float]:
    """tracemalloc's peak while ``fn()`` runs, and the bytes still held once
    it has returned, its result among them, in n x n complex arrays."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak / (16 * n * n), kept / (16 * n * n)


def _stage_two_calls(base) -> int:
    """The ``spectral_decompose`` calls one all-cluster reduction of
    ``base`` makes, counted through ``tailwalk.perturbation``'s name for it."""
    from tailwalk import perturbation

    calls = 0
    decompose = perturbation.spectral_decompose

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return decompose(*args, **kwargs)

    perturbation.spectral_decompose = counted
    try:
        for c in base.sd.clusters:
            perturbation.reduce_eigenvalue(base, c.value)
    finally:
        perturbation.spectral_decompose = decompose
    return calls


def measure(preset: str, tails: str) -> dict:
    """One measurement of every layer on one graph, in this process."""
    import numpy as np

    from tailwalk import attach_tails, build_E, preset_graph
    from tailwalk.cli import main as cli_main
    from tailwalk.internal_spectral import spectral_decompose, verify_outgoing
    from tailwalk.perturbation import Coupling, reduce_eigenvalue
    from tailwalk import scattering
    from tailwalk.scattering import (
        NoConvergence,
        SigmaEvaluator,
        stationary_iterate,
        transmission_curve,
    )

    tg = attach_tails(preset_graph(preset), [int(t) for t in tails.split(",")])
    build_E(attach_tails(preset_graph("cycle:4"), (0,)), EPS)  # numpy's first-call set-up
    im, build_s = _timed(lambda: build_E(tg, EPS))
    sd, decompose_s = _timed(lambda: spectral_decompose(im.E))
    peak_n2 = _traced_n2(lambda: spectral_decompose(im.E), tg.num_arcs)[0]
    kept_n2 = _traced_n2(lambda: build_E(tg, 0.0), tg.num_arcs)[1]
    _, evaluator_s = _timed(lambda: SigmaEvaluator(im, sd))
    grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    _, curve_s = _timed(lambda: transmission_curve(im, grid, 0, sd))
    fresh = im.at(EPS)
    ib, basis_s = _timed(lambda: fresh.iteration_basis)
    dim = None if ib.V is None else ib.V.shape[1]
    ports = np.eye(tg.num_ports, dtype=complex)
    failed = 0

    def iterate(im, lam, alpha):
        # a run that exhausts its budget costs as much as one that stops there
        nonlocal failed
        try:
            stationary_iterate(im, lam, alpha)
        except NoConvergence:
            failed += 1

    fresh = im.at(EPS)
    _, single_s = _timed(lambda: iterate(fresh, LAMBDAS[2], ports[0]))
    fresh = im.at(EPS)
    _, calls_s = _timed(lambda: [iterate(fresh, lam, a) for lam in LAMBDAS for a in ports[:4]])
    stack = getattr(scattering, "stationary_iterate_stack", None)

    def iterate_stack(im):
        pairs = [(lam, a) for lam in LAMBDAS for a in ports[:4]]
        for group in [pairs] if stack else [[pair] for pair in pairs]:
            lams, alphas = zip(*group)
            with contextlib.suppress(NoConvergence):
                if stack:
                    stack(im, lams, alphas)
                else:
                    stationary_iterate(im, lams[0], alphas[0])

    fresh = im.at(EPS)
    _, stack_s = _timed(lambda: iterate_stack(fresh))
    im0 = im.at(0.0)
    base, decompose_E0_s = _timed(lambda: Coupling(im0, spectral_decompose(im0.E0)))
    _, reduce_s = _timed(lambda: [reduce_eigenvalue(base, c.value) for c in base.sd.clusters])
    argv = ["perturb", "--preset", preset, "--tails", tails, "--eps", PERTURB_EPS]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        perturb_exit, perturb_s = _timed(lambda: cli_main([*argv, "--out", out]))
    stage_two = _stage_two_calls(base)
    vals, vecs = np.linalg.eig(im.E)
    inside = np.flatnonzero(np.abs(vals) < 1 - 1e-6)
    _, outgoing_s = _timed(lambda: verify_outgoing(im, vals[inside], vecs[:, inside]))
    return {
        "arcs": tg.num_arcs,
        "basis_dim": dim,
        "build_E_s": build_s,
        "spectral_decompose_s": decompose_s,
        "decompose_peak_n2": peak_n2,
        "build_E_retained_n2": kept_n2,
        "sigma_evaluator_s": evaluator_s,
        "transmission_256_s": curve_s,
        "iteration_basis_s": basis_s,
        "iterate_single_s": single_s,
        "iterate_16_s": calls_s,
        "iterate_stack_16_s": stack_s,
        "iterate_no_convergence": failed,
        "decompose_E0_s": decompose_E0_s,
        "reduce_all_s": reduce_s,
        "stage_two_calls": stage_two,
        "perturb_s": perturb_s,
        "perturb_exit": perturb_exit,
        "outgoing_residual_s": outgoing_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_import() -> dict:
    """The time of ``import tailwalk`` in this process, which must not have
    imported numpy yet: all of the package's start-up, numpy's import and
    the load of scipy's LAPACK module among it."""
    if "numpy" in sys.modules:
        raise RuntimeError("measure_import needs a process that has not imported numpy")
    _, import_s = _timed(lambda: __import__("tailwalk"))
    return {"import_s": import_s}


def measure_verify() -> dict:
    """One run of the acceptance suite, in this process: its time, each
    criterion's own ``elapsed`` as ``criterion_<id>_s``, its failures and
    the process's peak RSS."""
    from tailwalk.acceptance import run_all

    results, verify_s = _timed(run_all)
    return {"verify_s": verify_s, **{f"criterion_{r.cid:02d}_s": r.elapsed for r in results},
            "failed": sum(r.status == "fail" for r in results), "peak_rss_mb": _peak_rss_mb()}


def summary_counts(stdout: str) -> dict:
    """``tier1_passed`` and ``tier1_failed``, failures and errors together,
    from the last line of pytest's output, its summary, such as
    ``2 failed, 361 passed in 20.1s`` or ``1 error in 3.0s``."""
    lines = stdout.strip().splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
    return {"tier1_passed": counts.get("passed", 0), "tier1_failed": failed}


def tier1() -> dict:
    """Two runs of the tier-1 suite of the checkout the imported ``tailwalk``
    comes from, each in a subprocess: one with one BLAS thread, and one under
    the default BLAS threads.  ``measure`` and ``measure_verify`` never call
    it: the suite runs both."""
    import tailwalk

    root = Path(tailwalk.__file__).resolve().parents[2]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in ONE_THREAD} | {"PYTHONPATH": path}
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

    def run(env):
        return _timed(lambda: subprocess.run(command, cwd=root, env=env,
                                             capture_output=True, text=True))

    proc, tier1_s = run(env | ONE_THREAD)
    default, default_s = run(env)
    return {"tier1_s": tier1_s, **summary_counts(proc.stdout), "tier1_exit": proc.returncode,
            "tier1_default_blas_s": default_s, "tier1_default_blas_exit": default.returncode}


def _fresh(call: str) -> dict:
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import bench_ladder; print(json.dumps(bench_ladder.{call}))")
    proc = subprocess.run([sys.executable, "-c", code], env=os.environ | ONE_THREAD,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def ladder_record() -> dict:
    """``ROUNDS`` rounds of every graph, ``verify`` and the import, then one
    tier-1 run."""
    import numpy as np
    import scipy

    runs = {f"{p} tails {t}": [] for p, t in GRAPHS}
    verify, imports = [], []
    for _ in range(ROUNDS):
        for (preset, tails), label in zip(GRAPHS, runs):
            runs[label].append(_fresh(f"measure({preset!r}, {tails!r})"))
        verify.append(_fresh("measure_verify()"))
        imports.append(_fresh("measure_import()")["import_s"])
    graphs = {}
    for label, rows in runs.items():
        graphs[label] = {k: rows[0][k] for k in ("arcs", "basis_dim", "iterate_no_convergence",
                                                  "perturb_exit")}
        for key in rows[0]:
            if key.endswith(_PER_ROUND):
                vals = [r[key] for r in rows]
                graphs[label][key] = {"median": statistics.median(vals), "runs": vals}
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": 1,
           "eps": EPS, "perturb_eps": PERTURB_EPS, "rounds": ROUNDS}
    verify_rec = {"failed": [v["failed"] for v in verify]}
    for key in (k for k in verify[0] if k != "failed"):
        vals = [v[key] for v in verify]
        verify_rec[key] = {"median": statistics.median(vals), "runs": vals}
    return {"env": env, "graphs": graphs, "verify": verify_rec,
            "import_s": {"median": statistics.median(imports), "runs": imports}, **tier1()}


def _copy_checkout(src: Path, dest: Path) -> Path:
    """The checkout around ``src``, its parent directory, copied byte for
    byte into ``dest`` without ``.git`` and caches; returns the copy's
    ``src``."""
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(src.parent, dest, ignore=skip)
    return dest / src.name


def _side_run(src: Path, out: Path) -> dict:
    """One :func:`ladder_record` of the tailwalk in ``src``, in a child
    process that writes no bytecode, after every ``__pycache__`` directory
    of the checkout around ``src`` is removed: each run compiles the
    checkout's modules afresh."""
    for cache in list(src.parent.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = os.environ | ONE_THREAD | {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, __file__, str(out)], env=env, check=True)
    return json.loads(out.read_text())


def _ratios(runs: dict[str, list[list[float]]]) -> dict:
    """Each side's median over all its runs' values, each other side's
    ratio to the parent's, and the ratios of the i-th runs' medians."""
    rec = {side: round(statistics.median(sum(rs, [])), 6) for side, rs in runs.items()}
    for side in SIDES[1:]:
        rec[f"{side}_over_parent"] = round(rec[side] / rec["parent"], 3)
        rec[f"per_run_{side}_over_parent"] = [
            round(statistics.median(a) / statistics.median(b), 3)
            for a, b in zip(runs[side], runs["parent"])
        ]
    return rec


def _spread(runs: dict[str, list[list[float]]]) -> dict:
    """Each side's median and range over all its runs' values."""
    return {side: {"median": round(statistics.median(v := sum(rs, [])), 4),
                   "min": round(min(v), 4), "max": round(max(v), 4)}
            for side, rs in runs.items()}


def paired_record(runs: dict[str, list[dict]]) -> dict:
    """One record of the sides' :func:`ladder_record` runs: timings and peak
    RSS as :func:`_ratios`, the ``_n2`` and ``_calls`` counts as
    :func:`_spread`, and every other per-graph value as each side's
    distinct values."""
    first = runs["parent"][0]
    graphs = {}
    for label, g0 in first["graphs"].items():
        rec = graphs[label] = {"arcs": g0["arcs"]}
        for key, val in g0.items():
            if key == "arcs":
                continue
            if not isinstance(val, dict):
                rec[key] = {side: list(dict.fromkeys(r["graphs"][label][key] for r in rs))
                            for side, rs in runs.items()}
                continue
            vals = {side: [r["graphs"][label][key]["runs"] for r in rs]
                    for side, rs in runs.items()}
            if key.endswith(("_n2", "_calls")):
                rec[key] = _spread(vals)
            else:
                rec[key] = _ratios(vals)
    verify = {key: _ratios({side: [r["verify"][key]["runs"] for r in rs]
                            for side, rs in runs.items()})
              for key in first["verify"] if key != "failed"}
    verify["criteria_failed_over_all_runs"] = {
        side: sum(sum(r["verify"]["failed"]) for r in rs) for side, rs in runs.items()
    }
    env = first["env"] | {"runs_per_side": len(runs["parent"]), "order": list(ROTATION)}
    import_s = _ratios({side: [r["import_s"]["runs"] for r in rs] for side, rs in runs.items()})
    return {"description": PAIRED_DESCRIPTION, "env": env, "graphs": graphs, "verify": verify,
            "import_s": import_s,
            "tier1": {key: {side: [r[key] for r in rs] for side, rs in runs.items()}
                      for key in ("tier1_s", "tier1_passed", "tier1_failed", "tier1_exit",
                                  "tier1_default_blas_s", "tier1_default_blas_exit")}}


def main(argv: list[str]) -> int:
    sides = dict(a.split("=", 1) for a in argv[:-1] if "=" in a)
    if len(argv) == 1:
        record = ladder_record()
    elif len(argv) == 3 and list(sides) == ["parent", "change"]:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        with tempfile.TemporaryDirectory() as scratch:
            srcs = {side: Path(src).resolve() for side, src in sides.items()}
            srcs["parent_copy"] = _copy_checkout(srcs["parent"], Path(scratch) / "parent_copy")
            for side in ROTATION:
                runs[side].append(_side_run(srcs[side], Path(scratch) / "run.json"))
        record = paired_record(runs)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    Path(argv[-1]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
