"""Command-line entry points for quantization, spectra, and sweeps.

Each command builds its inputs, calls the library, writes its files and
applies its verdict. main maps library errors to the exit codes: 0
success, 2 configuration error, an output it cannot write or an array
too large for memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments, fbi, geometry, quantize, spectral, svgout
from .symbols import model_from_tag

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text)


def _matrix_args(parser: argparse.ArgumentParser) -> None:
    """The arguments _matrix reads."""
    parser.add_argument("--model", required=True)
    parser.add_argument("--h", type=float, required=True)
    parser.add_argument("--L", type=float, default=4.0,
                        help="half width of the real grid")
    parser.add_argument("--N", type=int, default=0,
                        help="grid points, even (0 = the grid rule of "
                             "quantize.grid_for)")


def _symbol_and_grid(args):
    """The symbol and the grid the arguments name."""
    sym = model_from_tag(args.model).symbol
    return sym, quantize.grid_for(sym, args.L, args.h, args.N or None)


def _matrix(args) -> quantize.WeylMatrix:
    """The Weyl matrix the arguments name, for a command that factors it:
    the dense budget is checked on the grid before P is assembled."""
    sym, grid = _symbol_and_grid(args)
    spectral.check_dense_budget(grid)
    return quantize.assemble_weyl(sym, grid, args.h)


def _cmd_quantize(args) -> int:
    # saving factors nothing, so no dense budget binds here
    sym, grid = _symbol_and_grid(args)
    P = quantize.assemble_weyl(sym, grid, args.h)
    quantize.save_weyl(args.out, P)
    print(f"wrote {args.out}: N = {P.n}, h = {P.h}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    spec = spectral.eigenvalues(_matrix(args))
    lines = spectral.spectrum_csv_lines(spec)
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.out}: {len(lines) - 1} eigenvalues")
    else:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_pseudospectrum(args) -> int:
    window = quantize.ZGrid(_parse_complex(args.center), args.span, args.span,
                            args.res, args.res)
    spectral.check_window(window)
    P = _matrix(args)
    field = spectral.pseudospectrum(P, window)
    floor = spectral.roundoff_floor(P)
    at_floor = int((field.sigma_min <= floor).sum())
    print(f"{at_floor} of {field.sigma_min.size} lattice points at or below "
          f"the roundoff floor {floor:.3g}, where sigma_min carries no digit")
    stem = args.out or f"pseudospectrum_{args.model.replace(':', '_')}"
    csv_path = f"{stem}.csv"
    Path(csv_path).write_text(
        "\n".join(spectral.pseudospectrum_csv_lines(field)) + "\n",
        encoding="utf-8")
    svg_path = f"{stem}.svg"
    extent = (*window.re_axis[[0, -1]], *window.im_axis[[0, -1]])
    svgout.heatmap_svg(field.sigma_min, extent, svg_path,
                       spectral.schur_eigenvalues(P),
                       f"log10 sigma_min, {args.model}, h={args.h}")
    print(f"wrote {csv_path} and {svg_path}")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    """Run the sweep, write summary.json and print the scaling verdicts;
    EXIT_NUMERICAL unless the radius verdict (radius_scaling_summary's
    "pass") and the resolvent check both pass."""
    cfg = experiments.parse_config(args.config)
    print(f"== {cfg.model_tag}: sweeping h = {cfg.h_list}")
    records = experiments.run_sweep(cfg)
    if not records:
        print("no records produced")
        experiments.emit_outputs(cfg, records, {})
        return EXIT_NUMERICAL
    model = model_from_tag(cfg.model_tag)
    radius = experiments.radius_scaling_summary(records, model)
    print(f"   radius: c_lower_bound = {radius['c_lower_bound']:.3f} "
          f"(target exponent {radius['exponent_target']:.3g}), "
          f"min r = {radius['radius_min']:.3f}, pass = {radius['pass']}")
    if "radius_fit_slope" in radius:
        band = radius.get("exponent_within_band", "none for s = inf")
        print(f"   fitted exponent {radius['radius_fit_slope']:.3f}, "
              f"within band: {band}")
    ok = radius["pass"]
    try:
        resolvent = experiments.resolvent_growth_check(
            records, model.symbol.order_s)
        print(f"   resolvent: regime {resolvent['regime']}, "
              f"r2 = {resolvent['r_squared']}, pass = {resolvent['pass']}")
        ok = ok and resolvent["pass"]
    except experiments.FitError as exc:
        resolvent = {"error": str(exc)}
        print(f"   resolvent: {exc}")
        ok = False
    paths = experiments.emit_outputs(
        cfg, records, {"radius": radius, "resolvent": resolvent})
    print(f"   {len(records)} records; outputs: {', '.join(paths)}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_toeplitz(args) -> int:
    """Write toeplitz.csv; EXIT_NUMERICAL unless both residual slopes reach
    SLOPE_MIN (criterion 05). An h_list too short to fit is a config
    error, raised before the escape function is built."""
    cfg = experiments.parse_config(args.config, experiments.TOEPLITZ_KEYS)
    if len(cfg.h_list) < experiments.MIN_FIT_POINTS:
        raise experiments.ConfigError(
            f"h_list has {len(cfg.h_list)} values; the slope fit needs at "
            f"least {experiments.MIN_FIT_POINTS}")
    model = model_from_tag(cfg.model_tag)
    esc = geometry.build_escape(model)
    rows = experiments.toeplitz_sweep(model, esc, cfg.h_list)
    lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
    print("\n".join(lines))
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "toeplitz.csv").write_text(
        "\n".join(["h,res_t0,res_deformed"] + lines) + "\n", encoding="utf-8")
    slope0, slope_t = experiments.toeplitz_slopes(rows)
    print(f"slope(t=0) = {slope0:.3f}, slope(t) = {slope_t:.3f}")
    ok = min(slope0, slope_t) >= experiments.SLOPE_MIN
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_escape(args) -> int:
    model = model_from_tag(args.model)
    esc = geometry.build_escape(model)
    print(f"margin_c = {esc.margin_c:.6g}, sup|G| = {esc.sup_G:.6g}, "
          f"cutoff radius = {esc.cutoff_radius:.4g}")
    if args.out:
        Path(args.out).write_text(
            "\n".join(geometry.escape_csv_lines(esc)) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_deform_check(args) -> int:
    model = model_from_tag(args.model)
    t = experiments.deformation_size(model, args.h)
    esc = geometry.build_escape(model)
    check = geometry.check_deformed_ellipticity(model, esc, t)
    print(f"t = {t:.6g}, gamma_measured = {check.gamma_measured:.6g} "
          f"at {check.worst_point}")
    if check.gamma_measured <= 0:
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gevspec",
        description="Spectra, pseudospectra, and phase-space deformations "
                    "of quantized 1-D symbols")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", help="assemble and save a matrix")
    _matrix_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("spectrum", help="eigenvalues with boundary-mass flags")
    _matrix_args(p)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pseudospectrum", help="sigma_min field over a z window")
    _matrix_args(p)
    p.add_argument("--center", required=True, help="complex center, RE,IM")
    p.add_argument("--span", type=float, required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_pseudospectrum)

    p = sub.add_parser("scaling", help="free-radius and resolvent h-sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("toeplitz", help="Toeplitz-identity residual sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("escape", help="build and certify an escape function")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_escape)

    p = sub.add_parser("deform-check", help="deformed-symbol ellipticity")
    p.add_argument("--model", required=True)
    p.add_argument("--h", type=float, required=True)
    p.set_defaults(func=_cmd_deform_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # checked first: FitError, GridExtentError and CoverageError subclass
    # ValueError, which the config clause takes
    except (experiments.NumericalFailure, spectral.SolverError,
            geometry.EscapeConstructionError, geometry.CoverageError,
            fbi.GridExtentError, experiments.FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
