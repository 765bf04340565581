"""Sweep orchestration: h-sweeps, power-law fits, persistence, and summaries.

A sweep walks a decreasing h list, quantizes the model at each h on the
grid rule N(h), and from one Schur factorization per matrix, its
triangular factor alone, measures the spectrum-free radius r around the
model's z0 (with one LU of P - lambda per eigenvalue it tests), the
condition number kappa of the eigenvalue at that distance, and the
resolvent at the probe point z0 - r/2. Rows are written to CSV as they
finish so an interrupted sweep leaves a valid prefix.

The Toeplitz sweep measures, on one FBI operator per h, the
Toeplitz-identity residual with the flat weight and with the weight
deformed at t = deformation_size(model, h); criterion 05 needs both
log-log slopes, from toeplitz_slopes, to reach SLOPE_MIN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import fbi, quantize, spectral
from .symbols import ModelInstance, model_from_tag

XI_PROBE = 1.146  # packet momentum where the model's next-order xi correction vanishes
PROBE_L = 8.0  # real-grid half width of toeplitz_sweep
SLOPE_MIN = 0.9  # criterion 05: the Toeplitz residual decays like O(h)
DEFORM_EPSILON = 0.1  # the paper deforms by t = -eps h^(1-1/s) at one fixed eps
BOUNDED_RESOLVENT_CAP = 1e8


class ConfigError(ValueError):
    pass


class FitError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    model_tag: str
    h_list: Tuple[float, ...]
    half_width_L: float = 4.0
    n_points: Optional[int] = None
    output_dir: str = "."

    def __post_init__(self):
        if not self.h_list:
            raise ConfigError("h_list must be nonempty")
        hs = list(self.h_list)
        if any(not (0 < h <= 1) for h in hs):
            raise ConfigError(f"every h must lie in (0, 1]: {hs}")
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigError(f"h_list must be strictly decreasing: {hs}")
        if not 0 < self.half_width_L < math.inf:
            raise ConfigError(f"L must be positive and finite, "
                              f"got {self.half_width_L:g}")
        if self.n_points is not None:
            try:
                quantize.RealGrid(self.half_width_L, self.n_points)
            except quantize.GridError as exc:
                raise ConfigError(str(exc)) from exc
        model_from_tag(self.model_tag)  # raises ValueError for unknown tags


# config key -> (SweepConfig field, value parser)
CONFIG_KEYS = {
    "model": ("model_tag", str),
    "h_list": ("h_list", lambda val: tuple(map(float, val.split(",")))),
    "L": ("half_width_L", float),
    "n_points": ("n_points", int),
    "output_dir": ("output_dir", str),
}


def parse_config(path: Union[str, Path]) -> SweepConfig:
    """Flat key = value lines, UTF-8, # comments, no nesting; each key of
    CONFIG_KEYS at most once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    kwargs = {}
    try:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            field, parse = CONFIG_KEYS[key]
            if field in kwargs:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice")
            kwargs[field] = parse(val)
        if "model_tag" not in kwargs or "h_list" not in kwargs:
            raise ConfigError("config must set both 'model' and 'h_list'")
        return SweepConfig(**kwargs)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


# (sweep.csv column, SweepRecord field): the CSV header, every CSV row and
# the summary.json records all come from this list
CSV_COLUMNS = (("h", "h"), ("r", "free_radius"),
               ("sigma_min_probe", "sigma_min_probe"),
               ("resnorm", "resolvent_norm"), ("n_points", "n_points"),
               ("kappa", "kappa"))
CSV_HEADER = ",".join(col for col, _ in CSV_COLUMNS)


@dataclass(frozen=True)
class SweepRecord:
    h: float
    free_radius: float
    sigma_min_probe: float
    resolvent_norm: float
    n_points: int
    kappa: float  # condition number of the eigenvalue at distance r

    def as_dict(self) -> dict:
        """Field values keyed by their sweep.csv column names."""
        return {col: getattr(self, name) for col, name in CSV_COLUMNS}

    def csv_row(self) -> str:
        return ",".join(f"{v:.17g}" for v in self.as_dict().values())


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def grid_for(cfg: SweepConfig, h: float) -> quantize.RealGrid:
    """The config's n_points, else the grid rule for its model's symbol."""
    n = cfg.n_points
    if n is None:
        n = quantize.rule_n_points(model_from_tag(cfg.model_tag).symbol,
                                   cfg.half_width_L, h)
    return quantize.RealGrid(cfg.half_width_L, n)


def exponent_for(model: ModelInstance) -> float:
    """Free-radius scaling exponent 1 - 1/s; 1 for analytic models."""
    s = model.symbol.order_s
    return 1.0 if math.isinf(s) else 1.0 - 1.0 / s


def deformation_size(model: ModelInstance, h: float) -> float:
    """The deformation t = -DEFORM_EPSILON h^(1-1/s) of the FBI weight at h."""
    if not 0 < h <= 1:
        raise ConfigError(f"h must lie in (0, 1], got {h:g}")
    return -DEFORM_EPSILON * h ** exponent_for(model)


def toeplitz_sweep(model: ModelInstance, esc, h_list: Sequence[float]
                   ) -> List[Tuple[float, float, float]]:
    """(h, residual at t = 0, residual at t = deformation_size(model, h))
    per h, both on one FBI operator (real grid of half width PROBE_L, at
    least 128 points) and one wave-packet pair at momentum XI_PROBE."""
    rows = []
    for h in h_list:
        n = quantize.required_n_points(PROBE_L, h, model.symbol.xi_extent)
        grid = quantize.RealGrid(PROBE_L, max(n, 128))
        cgrid = fbi.default_cgrid(h, re_span=1.5, im_span=2.2,
                                  cells_per_width=3.0)
        op = fbi.make_fbi(grid, cgrid, h)
        u = fbi.gaussian_state(grid, h, 0.0, XI_PROBE)
        v = fbi.gaussian_state(grid, h, 0.05, XI_PROBE - 0.03)
        rows.append((h, *fbi.toeplitz_residuals(
            model, op, esc, (0.0, deformation_size(model, h)), u, v)))
    return rows


def toeplitz_slopes(rows: Sequence[Tuple[float, float, float]]
                    ) -> Tuple[float, float]:
    """(slope at t = 0, slope at the deformed t): the log-log slopes of the
    residuals of toeplitz_sweep rows in h."""
    hs, res_t0, res_t = zip(*rows)
    return fit_power_law(hs, res_t0).slope, fit_power_law(hs, res_t).slope


def _measure_one(cfg: SweepConfig, model: ModelInstance, h: float) -> SweepRecord:
    grid = grid_for(cfg, h)
    P = quantize.assemble_weyl(model.symbol, grid, h)
    free = spectral.spectrum_free_radius(P, model.z0)
    r = free.radius
    # Re p >= 0 for every catalog symbol, so sigma_min(P - z) >= r/2 here up
    # to rounding; a singular probe means r is at the roundoff floor
    sig = spectral.sigma_min(P, model.z0 - 0.5 * r)
    resnorm = spectral.resolvent_from_sigma(P, sig)
    if math.isinf(resnorm):
        raise NumericalFailure(f"resolvent singular at the probe z0 - r/2 "
                               f"for h = {h}")
    return SweepRecord(h, r, sig, resnorm, grid.n_points, free.kappa)


def run_sweep(cfg: SweepConfig) -> List[SweepRecord]:
    """Execute the sweep; failures at single h-points are recorded and
    skipped, and finished rows are flushed to output_dir/sweep.csv
    immediately in h order."""
    model = model_from_tag(cfg.model_tag)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records: List[SweepRecord] = []
    with open(out_dir / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.flush()
        for h in cfg.h_list:
            try:
                rec = _measure_one(cfg, model, h)
            except (NumericalFailure, spectral.SolverError,
                    spectral.BudgetError, quantize.ResolutionError) as exc:
                print(f"[sweep] h = {h} skipped: {exc}")
                continue
            records.append(rec)
            fh.write(rec.csv_row() + "\n")
            fh.flush()
    return records


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept; returns
    (slope, intercept, r_squared), with r_squared 1 for constant y."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_power_law(hs: Sequence[float], values: Sequence[float]) -> FitResult:
    """Least squares of log(value) on log(h); nonpositive or non-finite
    values are excluded with a warning, and at least 4 must remain."""
    keep_h, keep_v = [], []
    for h, v in zip(hs, values):
        if not (np.isfinite(v) and v > 0):
            print(f"[fit] excluding h = {h}: value {v} not positive finite")
            continue
        keep_h.append(h)
        keep_v.append(v)
    if len(keep_h) < 4:
        raise FitError(f"only {len(keep_h)} usable records, need at least 4")
    slope, intercept, r2 = _line_fit(np.log(np.asarray(keep_h)),
                                     np.log(np.asarray(keep_v)))
    return FitResult(slope, intercept, r2, len(keep_h))


def resolvent_growth_check(records: Sequence[SweepRecord], s: float) -> dict:
    """Fit log resolvent against h^{-1/s}; a good linear fit or a resolvent
    bounded by BOUNDED_RESOLVENT_CAP both stay within the exponential budget."""
    pts = [(r.h, r.resolvent_norm) for r in records
           if np.isfinite(r.resolvent_norm) and r.resolvent_norm > 0]
    if len(pts) < 2:
        raise FitError("need at least 2 finite resolvent values")
    hs = np.array([p[0] for p in pts])
    rn = np.array([p[1] for p in pts])
    max_norm = float(rn.max())
    bounded = max_norm <= BOUNDED_RESOLVENT_CAP
    if math.isinf(s):
        return {"slope": 0.0, "intercept": float(np.log(max_norm)),
                "r_squared": float("nan"), "regime": "bounded",
                "max_resolvent": max_norm, "pass": bounded}
    slope, intercept, r2 = _line_fit(hs ** (-1.0 / s), np.log(rn))
    regime = "exponential-fit" if (r2 >= 0.9 and slope > 0) else "bounded"
    return {"slope": slope, "intercept": intercept,
            "r_squared": r2, "regime": regime, "max_resolvent": max_norm,
            "pass": bool(r2 >= 0.9 or bounded)}


def radius_scaling_summary(records: Sequence[SweepRecord],
                           model: ModelInstance) -> dict:
    """Lower-bound constant and conditional exponent fit for the free radius.

    The exponent is fitted only when the spectrum actually approaches z0
    over the sweep (the radius at the smallest h has dropped below half the
    radius at the largest h); otherwise the radius sits in the plateau
    regime and the bound holds with the plateau constant. The band
    1 - 1/s +/- 0.15 is checked only for finite s: the paper's rate is a
    Gevrey one, and an analytic model is judged on radius_min alone.

    "pass" is the verdict: c_lower_bound > 0 and, for finite s with the
    spectrum approaching z0, a fitted exponent inside the band, so a
    Gevrey sweep too short to fit (fewer than 4 records) fails.
    """
    expo = exponent_for(model)
    recs = [r for r in records if np.isfinite(r.free_radius)]
    if not recs:
        raise FitError("no usable radius records")
    ratios = [r.free_radius / r.h ** expo for r in recs]
    c_min = float(min(ratios))
    r_first = recs[0].free_radius
    r_last = recs[-1].free_radius
    approaching = r_last < 0.5 * r_first
    out = {"exponent_target": expo, "c_lower_bound": c_min,
           "radius_min": float(min(r.free_radius for r in recs)),
           "spectrum_approaches_z0": bool(approaching)}
    if approaching and len(recs) >= 4:
        fit = fit_power_law([r.h for r in recs],
                            [r.free_radius for r in recs])
        out["radius_fit_slope"] = fit.slope
        out["radius_fit_r2"] = fit.r_squared
        if math.isfinite(model.symbol.order_s):
            out["exponent_within_band"] = bool(abs(fit.slope - expo) <= 0.15)
    band_needed = approaching and math.isfinite(model.symbol.order_s)
    out["pass"] = bool(c_min > 0 and (not band_needed
                                      or out.get("exponent_within_band", False)))
    return out


def _finite_or_null(obj):
    """obj with each non-finite float, at any depth, replaced by None, so
    its JSON is strict (no bare NaN or Infinity)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def emit_outputs(cfg: SweepConfig, records: Sequence[SweepRecord],
                 fits: dict) -> List[str]:
    """Write the summary JSON, each non-finite number as null; returns its
    path in a list. "skipped_h" lists the h values of cfg.h_list that have
    no record."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    measured = {rec.h for rec in records}
    summary = {
        "model": cfg.model_tag,
        "h_list": list(cfg.h_list),
        "skipped_h": [h for h in cfg.h_list if h not in measured],
        "n_records": len(records),
        "fits": fits,
        "records": [rec.as_dict() for rec in records],
    }
    spath = out_dir / "summary.json"
    with open(spath, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True,
                  default=str, allow_nan=False)
        fh.write("\n")
    return [str(spath)]
