"""Spans around the public functions of each tailwalk layer.

The benchmark installs these wrappers from outside the package; nothing
under ``src/`` knows about them.  Modules bind layer functions with
``from .x import f``, so a wrapper replaces the original under every
``tailwalk.*`` module attribute that holds it, and classes are wrapped at
``__init__`` so that every importer sees the wrapper.

A span is ``(id, parent, layer, name, start, end)``.  Spans opened in a
thread with no open span of its own (the CLI's pool workers) take the open
CLI job span as parent.  Self time is a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "tailed_graph",
    "coin_evolution",
    "internal_spectral",
    "scattering",
    "smt_laplacian",
    "perturbation",
    "acceptance",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.distinct: set[bytes] = set()
        self.job: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def wrap(self, fn, layer: str, name: str, hook=None, job: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.job
            sid = next(self._ids)
            stack.append(sid)
            if job:
                self.job = sid
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if job:
                    self.job = None
                self.spans.append((sid, parent, layer, name, t0, t1))
                with self._lock:
                    self.counts[name + ".calls"] += 1
                    if hook is not None:
                        hook(self, args, kwargs, result, exc)

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))


# --------------------------------------------------------------------------
# hooks: counts taken at the layer boundary, under the tracer lock
# --------------------------------------------------------------------------

def _decompose_hook(tr, args, kwargs, sd, exc):
    E = np.ascontiguousarray(args[0] if args else kwargs["E"], dtype=complex)
    tr.distinct.add(hashlib.blake2b(repr(E.shape).encode() + E.tobytes(), digest_size=16).digest())
    if sd is not None:
        tr.counts["clusters"] += len(sd.clusters)
        tr.note_max("recon_resid_max", sd.reconstruction_residual)


def _evaluator_hook(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["evaluator_terms"] += len(args[0].terms)


def _transmission_hook(tr, args, kwargs, result, exc):
    grid = args[1] if len(args) > 1 else kwargs["lam_grid"]
    tr.counts["lambda_points"] += len(grid)


def _iterate_hook_for(fn):
    sig = inspect.signature(fn)

    def hook(tr, args, kwargs, rec, exc):
        if rec is not None:
            tr.counts["iterate_steps"] += rec.steps
        elif type(exc).__name__ == "NoConvergence":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tr.counts["iterate_steps"] += bound.arguments["max_steps"]
            tr.counts["iterate_failed"] += 1

    return hook


def _run_all_hook(tr, args, kwargs, results, exc):
    if results is not None:
        tr.counts["criteria_failed"] += sum(r.status == "fail" for r in results)


def _cli_hook(tr, args, kwargs, rc, exc):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            tr.counts["bytes_written"] += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind them in every importer."""
    from tailwalk import (
        acceptance,
        cli,
        coin_evolution,
        internal_spectral,
        perturbation,
        scattering,
        smt_laplacian,
        tailed_graph,
    )

    plan = [
        (tailed_graph, "attach_tails", None),
        (tailed_graph, "preset_graph", None),
        (coin_evolution, "WalkOperator.__init__", None),
        (internal_spectral, "build_E", None),
        (internal_spectral, "spectral_decompose", _decompose_hook),
        (internal_spectral, "verify_outgoing", None),
        (scattering, "SigmaEvaluator.__init__", _evaluator_hook),
        (scattering, "transmission_curve", _transmission_hook),
        (scattering, "stationary_iterate", _iterate_hook_for(scattering.stationary_iterate)),
        (perturbation, "reduce_eigenvalue", None),
        (perturbation, "resonance_asymptote", None),
        (perturbation, "resonant_sigma_limit", None),
        (perturbation, "assumption_report", None),
        (perturbation, "total_projection", None),
        (perturbation, "projection_expansion", None),
        (acceptance, "run_all", _run_all_hook),
        (cli, "main", _cli_hook),
    ]
    plan += [
        (smt_laplacian, name, None)
        for name, obj in vars(smt_laplacian).items()
        if inspect.isfunction(obj) and obj.__module__ == smt_laplacian.__name__
        and not name.startswith("_")
    ]
    importers = [m for n, m in sys.modules.items() if n == "tailwalk" or n.startswith("tailwalk.")]
    for module, attr, hook in plan:
        layer = module.__name__.rsplit(".", 1)[-1]
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), layer, name, hook))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, layer, name, hook, job=(name == "cli.main"))
        for m in importers:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)


# --------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# --------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    names = {s[0]: s[3] for s in spans}
    kids = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            kids[s[1]].append((s[4], s[5]))

    def self_s(*which):
        out = 0.0
        for sid, _, _, name, t0, t1 in spans:
            if name in which:
                cover = _union((max(a, t0), min(b, t1)) for a, b in kids[sid] if b > t0 and a < t1)
                out += (t1 - t0) - cover
        return out

    def total_s(*which):
        # outermost spans only, so a function calling another of the set counts once
        return sum(t1 - t0 for _, p, _, name, t0, t1 in spans
                   if name in which and names.get(p) not in which)

    smt = {s[3] for s in spans if s[2] == "smt_laplacian"}
    c = tracer.counts
    decompose_calls = c["internal_spectral.spectral_decompose.calls"]
    m = {
        "tailed_graph.attach_s": total_s("tailed_graph.attach_tails"),
        "coin_evolution.walk_operator_s": total_s("coin_evolution.WalkOperator.__init__"),
        "internal_spectral.build_E_s": total_s("internal_spectral.build_E"),
        "internal_spectral.build_E_calls": c["internal_spectral.build_E.calls"],
        "internal_spectral.decompose_s": self_s("internal_spectral.spectral_decompose"),
        "internal_spectral.decompose_calls": decompose_calls,
        "internal_spectral.decompose_distinct": len(tracer.distinct),
        "internal_spectral.decompose_useful_ratio":
            len(tracer.distinct) / decompose_calls if decompose_calls else 1.0,
        "internal_spectral.clusters": c["clusters"],
        "internal_spectral.recon_resid_max": tracer.maxima.get("recon_resid_max", 0.0),
        "scattering.evaluator_s": self_s("scattering.SigmaEvaluator.__init__"),
        "scattering.evaluator_builds": c["scattering.SigmaEvaluator.__init__.calls"],
        "scattering.evaluator_terms": c["evaluator_terms"],
        "scattering.transmission_s": self_s("scattering.transmission_curve"),
        "scattering.lambda_points": c["lambda_points"],
        "scattering.iterate_s": total_s("scattering.stationary_iterate"),
        "scattering.iterate_calls": c["scattering.stationary_iterate.calls"],
        "scattering.iterate_steps": c["iterate_steps"],
        "scattering.iterate_failed": c["iterate_failed"],
        "smt_laplacian.self_s": self_s(*smt),
        "smt_laplacian.calls": sum(c[n + ".calls"] for n in smt),
        "perturbation.reduce_s": total_s("perturbation.reduce_eigenvalue"),
        "perturbation.asymptote_s": total_s("perturbation.resonance_asymptote"),
        "perturbation.sigma_limit_s": self_s("perturbation.resonant_sigma_limit"),
        "perturbation.sigma_limit_calls": c["perturbation.resonant_sigma_limit.calls"],
        "perturbation.assumption_s": total_s("perturbation.assumption_report"),
        "perturbation.projection_s":
            total_s("perturbation.total_projection", "perturbation.projection_expansion"),
        "acceptance.run_all_s": self_s("acceptance.run_all"),
        "acceptance.criteria_failed": c["criteria_failed"],
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": c["bytes_written"],
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = _union((s[4], s[5]) for s in spans if s[2] == layer)
    return m
