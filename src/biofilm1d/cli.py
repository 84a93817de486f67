"""Command-line interface.

Subcommands: ``run`` (integrate a scenario and emit CSV output), ``oracle``
(short-horizon fixed-point solve plus cross-validation against the stepper),
``window`` (contraction-window estimate), ``validate`` (configuration check).

Exit codes: 0 success, 1 validation failure, 2 numerical or I/O failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import configio
from .errors import Biofilm1dError, ConfigError, IoFailure
from .model import validate_config
from .oracle import (box_from_run, cross_check_errors, estimate_contraction,
                     map_run_to_char_grid, picard_solve)
from .output import emit
from .presets import DEFAULT_T1, PRESET_IDS, build_preset
from .stepper import run as run_scenario
from .traces import RAMP_VARIANTS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive(kind):
    """Argument type: a positive finite ``kind`` (``int`` or ``float``)."""
    def parse(text):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
        return value
    parse.__name__ = kind.__name__   # argparse names it in "invalid <name> value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="biofilm1d",
                     description="1D free-boundary multispecies biofilm simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    preset_opts = argparse.ArgumentParser(add_help=False)  # run, oracle and window
    preset_opts.add_argument("--t1", type=float, default=DEFAULT_T1,
                             help="arrival time of the third bulk species (presets)")
    preset_opts.add_argument("--ramp", choices=RAMP_VARIANTS, default="printed",
                             help="arrival-ramp denominator variant")

    p_run = sub.add_parser("run", parents=[preset_opts],
                           help="integrate a scenario and write CSV output")
    p_run.add_argument("--preset", choices=PRESET_IDS)
    p_run.add_argument("--config", help="scenario file (overrides --preset)")
    p_run.add_argument("--out", required=True, help="output directory")

    p_or = sub.add_parser("oracle", parents=[preset_opts],
                          help="fixed-point solve and cross-validation")
    p_or.add_argument("--preset", choices=PRESET_IDS, required=True)
    p_or.add_argument("--horizon", type=_positive(float), required=True,
                      help="oracle horizon (day)")
    p_or.add_argument("--grid", type=_positive(int), required=True,
                      help="triangular grid intervals")

    p_w = sub.add_parser("window", parents=[preset_opts], help="contraction-window estimate")
    p_w.add_argument("--preset", choices=PRESET_IDS, required=True)
    p_w.add_argument("--span", type=_positive(float), default=0.05,
                     help="observation run horizon for the sampling box (day)")

    p_v = sub.add_parser("validate", help="check a scenario file")
    p_v.add_argument("--config", required=True)

    return parser


def _load_cfg(args):
    if args.config:
        # the file name only, so the manifest does not depend on where it lives
        name = Path(args.config).name
        if "\n" in name or "\r" in name:
            raise ConfigError(f"configuration file name has a line break: {name!r}")
        cfg = configio.load(args.config)
        return cfg, (f"configuration loaded from file {name}",)
    if not args.preset:
        raise ConfigError("either --preset or --config is required")
    preset = build_preset(args.preset, t1=args.t1, variant=args.ramp)
    return preset.cfg, preset.notes


def _cmd_run(args) -> int:
    cfg, notes = _load_cfg(args)
    result = run_scenario(cfg)  # ConfigError on an invalid cfg
    bundle = emit(result, args.out, notes=notes)
    print(f"wrote {bundle.directory} (content sha256 {bundle.sha256})")
    return EXIT_OK


def _short_numerics(cfg, horizon):
    nm = replace(cfg.numerics, dt_max=min(cfg.numerics.dt_max, horizon / 50.0))
    return replace(cfg, numerics=nm, horizon=horizon, snapshot_times=())


def _cmd_oracle(args) -> int:
    preset = build_preset(args.preset, t1=args.t1, variant=args.ramp)
    cfg = preset.cfg
    fields, history = picard_solve(cfg, args.horizon, args.grid)
    print(f"fixed point reached after {len(history)} iteration(s)")
    print("iterate distances:")
    for k, d in enumerate(history, start=1):
        print(f"  {k:3d}  {d:.6e}")
    ratios = [history[k + 1] / history[k] for k in range(len(history) - 1)
              if history[k] > 0]
    if ratios:
        print(f"max late contraction ratio: {max(ratios[2:] or ratios):.4f}")

    run_cfg = _short_numerics(cfg, args.horizon)
    result = run_scenario(run_cfg, record_profiles=True)
    x_fd, c_fd, L_fd = map_run_to_char_grid(result, fields.times)
    err_x, err_c, err_L = cross_check_errors(fields, x_fd, c_fd, L_fd)
    print("cross-validation against the stepper (relative sup norms):")
    print(f"  sessile concentrations: {err_x:.3e}")
    print(f"  characteristic paths:   {err_c:.3e}")
    print(f"  interface position:     {err_L:.3e}")
    return EXIT_OK


def _cmd_window(args) -> int:
    preset = build_preset(args.preset, t1=args.t1, variant=args.ramp)
    run_cfg = _short_numerics(preset.cfg, args.span)
    result = run_scenario(run_cfg, record_profiles=True)
    box = box_from_run(result)
    est = estimate_contraction(preset.cfg, box, t_max=args.span)
    print(f"a = {est.a:.6e}  b = {est.b:.6e}")
    print(f"T_star = {est.T_star:.6e} d "
          f"(contraction factor there: {est.contraction_factor(est.T_star):.4f})")
    for name, cap in sorted(est.caps.items()):
        print(f"  cap {name:>12s}: {cap:.6e}")
    print(f"kernel bounds: |F_x| <= {np.max(est.M_x):.4e}, "
          f"|F_s| <= {np.max(est.M_s):.4e}, |F_psi| <= {np.max(est.M_psi):.4e}, "
          f"|F_geo| <= {est.M_L:.4e}  ({est.samples} samples)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = configio.load(args.config)
    report = validate_config(cfg)
    print(report)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "oracle": _cmd_oracle,
                "window": _cmd_window, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IoFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Biofilm1dError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
