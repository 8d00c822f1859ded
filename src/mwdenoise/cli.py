"""Command-line front end.

Subcommands: add-noise, denoise, psnr, calibrate, bench. Exit codes:
0 success, 2 usage, 3 I/O failure, 4 validation failure. Results go to
stdout, diagnostics to stderr.
"""

import argparse
import math
import sys
from dataclasses import fields, replace

from . import ghm
from .bench import BENCH_ENGINES, BenchPlan, emit_csv, render_table, run_bench
from .image_io import PgmError, add_awgn, load_pgm, psnr, save_pgm
from .pipeline import ENGINES, DenoiseConfig, denoise_image, sigma_from_coeffs
from .selection import calibrate_l2t
from .windows import build_grid, extract_windows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _geometry_args(sub, cfg: DenoiseConfig):
    sub.add_argument("--window", dest="m", type=int, default=cfg.m,
                     metavar="M", help="window side length, multiple of 4 "
                                       "(default %(default)s)")
    sub.add_argument("--step", dest="s_size", type=int, default=cfg.s_size,
                     metavar="S", help="window step size "
                                       "(default %(default)s)")


def _config_args(sub, cfg: DenoiseConfig):
    """The denoiser settings of `denoise` and `bench`, defaulting to those
    of `cfg`; each option stores to its DenoiseConfig field."""
    sub = sub.add_argument_group("denoiser settings")
    _geometry_args(sub, cfg)
    sub.add_argument("--nc", dest="n_c", type=int, default=cfg.n_c,
                     help="windows kept per reference (default %(default)s)")
    sub.add_argument("--pop", dest="n_p", type=int, default=cfg.n_p,
                     help="GA population size (default %(default)s)")
    sub.add_argument("--gmax", dest="g_max", type=int, default=cfg.g_max,
                     help="GA generations per round (default %(default)s)")
    sub.add_argument("--cp1", dest="c_p1", type=int, default=cfg.c_p1,
                     help="first crossover point (default %(default)s)")
    sub.add_argument("--cp2", dest="c_p2", type=int, default=cfg.c_p2,
                     help="second crossover point (default %(default)s)")
    sub.add_argument("--max-rounds", type=int, default=cfg.max_rounds,
                     help="GA round cap (default %(default)s)")
    sub.add_argument("--l2t", dest="l2_t", type=float, default=cfg.l2_t,
                     help="distance threshold; noise-adaptive when omitted")
    sub.add_argument("--threshold-scale", type=float,
                     default=cfg.threshold_scale,
                     help="scale on the universal shrinkage threshold "
                          "(default %(default)s)")


def _config(args, template: DenoiseConfig) -> DenoiseConfig:
    """`template` with every field that `args` holds an option for."""
    return replace(template, **{f.name: getattr(args, f.name)
                                for f in fields(template)
                                if hasattr(args, f.name)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwdenoise",
        description="Window-based GHM multi-wavelet CT image denoising")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("add-noise", help="add white Gaussian noise")
    p.add_argument("input"); p.add_argument("output")
    p.add_argument("--sigma", type=float, required=True,
                   help="noise standard deviation, >= 0")
    p.add_argument("--seed", type=int, default=0,
                   help="noise generator seed (default 0)")
    p.add_argument("--ascii", action="store_true",
                   help="write P2 instead of P5")

    cfg = DenoiseConfig()
    p = subs.add_parser("denoise", help="denoise a PGM image")
    p.add_argument("input"); p.add_argument("output")
    p.add_argument("--method", dest="engine", choices=ENGINES,
                   default=cfg.engine,
                   help="closer-window engine (default %(default)s)")
    _config_args(p, cfg)
    p.add_argument("--sigma", type=float, default=cfg.sigma,
                   help="known noise level; estimated when omitted")
    p.add_argument("--seed", type=int, default=cfg.seed,
                   help="GA master seed (default %(default)s)")
    p.add_argument("--trace", action="store_true",
                   help="stream GA trace records to stderr")
    p.add_argument("--ascii", action="store_true",
                   help="write P2 instead of P5")

    p = subs.add_parser("psnr", help="PSNR between two PGM images")
    p.add_argument("a"); p.add_argument("b")

    p = subs.add_parser("calibrate",
                        help="empirical distance-threshold calibration")
    p.add_argument("input")
    _geometry_args(p, cfg)
    p.add_argument("--quantile", type=float, default=0.05,
                   help="distance quantile to return (default 0.05)")
    p.add_argument("--pairs", type=int, default=1000,
                   help="sampled window pairs (default 1000)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default 0)")

    plan = BenchPlan()
    p = subs.add_parser("bench", help="sigma sweep over both engines")
    p.add_argument("--images", nargs="+", default=list(plan.images),
                   help=f"PGM paths or phantom:N "
                        f"(default {' '.join(plan.images)})")
    p.add_argument("--sigmas", type=float, nargs="+",
                   default=list(plan.sigmas),
                   help=f"noise levels (default "
                        f"{' '.join(f'{s:g}' for s in plan.sigmas)})")
    p.add_argument("--engines", nargs="+", default=list(plan.engines),
                   choices=BENCH_ENGINES,
                   help="engines to run (default all)")
    p.add_argument("--seeds", type=int, nargs="+", default=list(plan.seeds),
                   help=f"per-cell seeds "
                        f"(default {' '.join(map(str, plan.seeds))})")
    _config_args(p, plan.cfg)
    p.add_argument("--out", default=None, metavar="CSV",
                   help="write the report as CSV")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock times (breaks byte-identical "
                        "reruns)")
    return parser


def _cmd_add_noise(args) -> int:
    if args.sigma < 0:
        print(f"error: sigma must be >= 0, got {args.sigma}",
              file=sys.stderr)
        return EXIT_VALIDATION
    img = load_pgm(args.input)
    save_pgm(add_awgn(img, args.sigma, args.seed), args.output,
             binary=not args.ascii)
    return EXIT_OK


def _cmd_denoise(args) -> int:
    cfg = _config(args, DenoiseConfig())
    img = load_pgm(args.input)
    trace = None
    if args.trace:
        def trace(gen, best_fitness, archive_size):
            print(f"gen={gen} best_fitness={best_fitness:.4f} "
                  f"archive={archive_size}", file=sys.stderr)
    out, stats = denoise_image(img, cfg, trace=trace)
    save_pgm(out, args.output, binary=not args.ascii)
    print(stats.as_block())
    return EXIT_OK


def _cmd_psnr(args) -> int:
    value = psnr(load_pgm(args.a), load_pgm(args.b))
    print("inf" if math.isinf(value) else f"{value:.2f}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    img = load_pgm(args.input)
    geom = build_grid(img, args.m, args.s_size)
    coeffs = ghm.forward_all(extract_windows(img, geom),
                             ghm.build_ghm_matrix(args.m))
    value = calibrate_l2t(coeffs, quantile=args.quantile,
                          sample_pairs=args.pairs, seed=args.seed)
    print(f"l2_t={value:.6g}")
    print(f"sigma_estimate={sigma_from_coeffs(coeffs, args.m):.4f}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    plan = BenchPlan(
        images=tuple(args.images), sigmas=tuple(args.sigmas),
        engines=tuple(args.engines), seeds=tuple(args.seeds),
        cfg=_config(args, BenchPlan().cfg), timing=args.timing)
    rows = run_bench(plan)
    print(render_table(rows))
    if args.out:
        emit_csv(rows, args.out)
    return EXIT_OK


_COMMANDS = {
    "add-noise": _cmd_add_noise,
    "denoise": _cmd_denoise,
    "psnr": _cmd_psnr,
    "calibrate": _cmd_calibrate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PgmError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
