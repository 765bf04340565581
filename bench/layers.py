"""Which gevspec functions the traced run wraps, and the per-layer metrics
derived from their spans.

A layer is a package module. Each wrapped call becomes one span named
"<module>.<function>"; the symbol callables of every model built through
model_from_tag (and of the models the benchmark builds itself) become
"symbols.value" and "symbols.grad" spans.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Sequence

import numpy as np

from tracing import Span, Tracer, patched, self_times


def _matrix_order(args, kwargs, result):
    P = args[0] if args else kwargs["P"]
    return {"n": P.n}


def _escape_attrs(args, kwargs, result):
    from gevspec import geometry
    dt = kwargs.get("dt", geometry.DEFAULT_DT)
    n_steps = int(round(2.0 * result.T / dt))
    lattice = int(result.G_values.size)
    # computed, not counted: three staggered batches (the lattice and its
    # images one step forward and back) each flow n_steps in both time
    # directions, plus the two single steps that place the images
    return {"lattice": lattice, "flow_point_steps": lattice * (6 * n_steps + 2)}


def _kernel_shape(args, kwargs, result):
    m, n = result.matrix.shape
    return {"m": m, "n": n}


# (module, function, attribute extractor)
TARGETS = (
    ("quantize", "assemble_weyl", lambda a, k, r: {"n": r.n}),
    ("spectral", "eigenvalues", _matrix_order),
    ("spectral", "sigma_min", _matrix_order),
    ("spectral", "resolvent_norm", None),
    ("spectral", "pseudospectrum", None),
    ("geometry", "build_escape", _escape_attrs),
    ("geometry", "check_deformed_ellipticity", None),
    ("fbi", "make_fbi", _kernel_shape),
    ("fbi", "apply_conjugated", None),
    ("fbi", "toeplitz_residual", None),
    ("experiments", "run_sweep", None),
    ("experiments", "emit_outputs", None),
    ("svgout", "heatmap_svg", None),
)

# every per-layer metric the traced run reports, in output order, with unit;
# BENCHMARK.json lists the same names
PER_LAYER = (
    ("quantize.assemble_weyl.calls", "count"),
    ("quantize.assemble_weyl.s", "s"),
    ("spectral.eigenvalues.calls", "count"),
    ("spectral.eigenvalues.s", "s"),
    ("spectral.eigenvalues.n1024_s", "s"),
    ("spectral.eigenvalues.n2048_s", "s"),
    ("spectral.sigma_min.calls", "count"),
    ("spectral.sigma_min.s", "s"),
    ("spectral.sigma_min.n512_ms_p50", "ms"),
    ("spectral.sigma_min.n512_ms_p90", "ms"),
    ("spectral.sigma_min.n1024_ms_p50", "ms"),
    ("spectral.sigma_min.n1024_ms_p90", "ms"),
    ("spectral.sigma_min.n2048_ms_p50", "ms"),
    ("spectral.sigma_min.svd_calls", "count"),
    ("spectral.sigma_min.lu_calls", "count"),
    ("spectral.sigma_min.mismatch", "count"),
    ("spectral.resolvent_norm.calls", "count"),
    ("spectral.resolvent_norm.s", "s"),
    ("spectral.pseudospectrum.s", "s"),
    ("geometry.build_escape.calls", "count"),
    ("geometry.build_escape.s", "s"),
    ("geometry.build_escape.flow_point_steps", "count"),
    ("geometry.check_deformed_ellipticity.s", "s"),
    ("symbols.value.calls", "count"),
    ("symbols.value.s", "s"),
    ("symbols.grad.calls", "count"),
    ("symbols.grad.s", "s"),
    ("fbi.make_fbi.calls", "count"),
    ("fbi.make_fbi.s", "s"),
    ("fbi.apply_conjugated.s", "s"),
    ("fbi.toeplitz_residual.s", "s"),
    ("fbi.kernel_bytes_max", "bytes"),
    ("experiments.run_sweep.s", "s"),
    ("experiments.run_sweep.self_s", "s"),
    ("experiments.hpoints_ok", "count"),
    ("experiments.hpoints_skipped", "count"),
    ("experiments.emit_outputs.s", "s"),
    ("svgout.heatmap_svg.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_spans_s", "s"),
    ("trace.spans", "count"),
)


def wrap_model(tracer: Tracer, model):
    """Copy of a ModelInstance whose symbol value/grad callables are traced."""
    sym = model.symbol
    traced = dataclasses.replace(
        sym, value=tracer.wrap("symbols.value", sym.value),
        grad=tracer.wrap("symbols.grad", sym.grad))
    return dataclasses.replace(model, symbol=traced)


@contextmanager
def installed(tracer: Tracer):
    """Trace TARGETS and the models model_from_tag builds, for the block."""
    from gevspec import symbols
    replacements = []
    for mod_name, fn_name, attrs in TARGETS:
        mod = importlib.import_module(f"gevspec.{mod_name}")
        orig = getattr(mod, fn_name)
        replacements.append(
            (orig, tracer.wrap(f"{mod_name}.{fn_name}", orig, attrs)))
    orig_from_tag = symbols.model_from_tag
    replacements.append(
        (orig_from_tag, lambda tag: wrap_model(tracer, orig_from_tag(tag))))
    with patched(replacements):
        yield


def _ms_percentile(durations: List[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans: Sequence[Span], svd_direct_max_n: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values from a finished span list; extra supplies the counts
    the spans cannot give (h-points, mismatches, overhead). A layer the
    workload never calls reads 0."""
    spans = [s for s in spans if s is not None]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    self_by_name: Dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        self_by_name[s.name] += st

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return float(sum(s.duration for s in by_name[name]))

    def durations_at(name, n):
        return [s.duration for s in by_name[name] if s.attr("n") == n]

    def median_at(name, n):
        d = durations_at(name, n)
        return float(np.median(d)) if d else 0.0

    sm = "spectral.sigma_min"
    orders = [s.attr("n") for s in by_name[sm]]
    out = {
        "quantize.assemble_weyl.calls": calls("quantize.assemble_weyl"),
        "quantize.assemble_weyl.s": secs("quantize.assemble_weyl"),
        "spectral.eigenvalues.calls": calls("spectral.eigenvalues"),
        "spectral.eigenvalues.s": secs("spectral.eigenvalues"),
        "spectral.eigenvalues.n1024_s": median_at("spectral.eigenvalues", 1024),
        "spectral.eigenvalues.n2048_s": median_at("spectral.eigenvalues", 2048),
        "spectral.sigma_min.calls": calls(sm),
        "spectral.sigma_min.s": secs(sm),
        "spectral.sigma_min.n512_ms_p50": _ms_percentile(durations_at(sm, 512), 50),
        "spectral.sigma_min.n512_ms_p90": _ms_percentile(durations_at(sm, 512), 90),
        "spectral.sigma_min.n1024_ms_p50": _ms_percentile(durations_at(sm, 1024), 50),
        "spectral.sigma_min.n1024_ms_p90": _ms_percentile(durations_at(sm, 1024), 90),
        "spectral.sigma_min.n2048_ms_p50": _ms_percentile(durations_at(sm, 2048), 50),
        "spectral.sigma_min.svd_calls": sum(1 for n in orders if n <= svd_direct_max_n),
        "spectral.sigma_min.lu_calls": sum(1 for n in orders if n > svd_direct_max_n),
        "spectral.resolvent_norm.calls": calls("spectral.resolvent_norm"),
        "spectral.resolvent_norm.s": secs("spectral.resolvent_norm"),
        "spectral.pseudospectrum.s": secs("spectral.pseudospectrum"),
        "geometry.build_escape.calls": calls("geometry.build_escape"),
        "geometry.build_escape.s": secs("geometry.build_escape"),
        "geometry.build_escape.flow_point_steps": sum(
            s.attr("flow_point_steps", 0) for s in by_name["geometry.build_escape"]),
        "geometry.check_deformed_ellipticity.s": secs("geometry.check_deformed_ellipticity"),
        "symbols.value.calls": calls("symbols.value"),
        "symbols.value.s": secs("symbols.value"),
        "symbols.grad.calls": calls("symbols.grad"),
        "symbols.grad.s": secs("symbols.grad"),
        "fbi.make_fbi.calls": calls("fbi.make_fbi"),
        "fbi.make_fbi.s": secs("fbi.make_fbi"),
        "fbi.apply_conjugated.s": secs("fbi.apply_conjugated"),
        "fbi.toeplitz_residual.s": secs("fbi.toeplitz_residual"),
        # computed from the kernel shape: M x N complex128 entries
        "fbi.kernel_bytes_max": max(
            (s.attr("m") * s.attr("n") * 16 for s in by_name["fbi.make_fbi"]),
            default=0),
        "experiments.run_sweep.s": secs("experiments.run_sweep"),
        "experiments.run_sweep.self_s": self_by_name["experiments.run_sweep"],
        "experiments.emit_outputs.s": secs("experiments.emit_outputs"),
        "svgout.heatmap_svg.s": secs("svgout.heatmap_svg"),
        "trace.top_spans_s": float(sum(s.duration for s in spans if s.parent is None)),
        "trace.spans": len(spans),
    }
    out.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _ in PER_LAYER}
