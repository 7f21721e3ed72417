"""Command-line interface.

Subcommands:
  run        execute an experiment grid from a JSON config, emit CSV
  slope      fit log-log rate slopes from an emitted CSV
  width      Monte Carlo Gaussian width of a constraint set
  mech-check print sampler statistics and calibration tables

Exit codes: 0 success, 2 configuration error or an argument out of range,
3 numeric error (arithmetic overflow included).  The environment variable
DPSCO_SEED, when set, overrides the base seed; it must be an integer, and
>= 0 for width and mech-check.
"""

import argparse
import os
import sys

import numpy as np

from ..errors import ConfigError, NumericError
from ..mechanisms import (
    GGNoiseSpec,
    PrivacyBudget,
    advanced_composition,
    gaussian_noise_sigma2,
    gg_calibrate,
    gg_sample,
    shuffle_calibrate,
)
from ..problems.risk import gaussian_width_mc
from ..spaces import lp_norm
from .components import CONSTRAINTS
from .config import ExperimentConfig
from .records import read_records, write_records
from .runner import run_experiment
from .slopes import fit_slope


def _env_seed(default, nonnegative=False):
    """DPSCO_SEED as an int, or ``default`` when it is unset."""
    raw = os.environ.get("DPSCO_SEED")
    try:
        seed = default if raw is None else int(raw)
    except ValueError:
        raise ConfigError(f"DPSCO_SEED must be an integer, got {raw!r}") from None
    if nonnegative and seed < 0:
        raise ConfigError(f"DPSCO_SEED must be >= 0 to seed a generator, got {seed}")
    return seed


def _at_least(kind, low, text):
    """An argparse type: a finite ``kind`` value >= ``low``, else an error naming the range ``text``."""
    def parse(raw):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or not low <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be {text}, got {raw!r}")
        return value
    return parse


_DIMENSION = _at_least(int, 1, "a positive integer")


def _cmd_run(args):
    cfg = ExperimentConfig.from_json(args.config)
    cfg.base_seed = _env_seed(cfg.base_seed)
    records = run_experiment(cfg)
    write_records(records, args.out)
    done = sum(1 for r in records if not r.refused)
    refused = len(records) - done
    print(f"wrote {len(records)} records to {args.out} ({done} completed, {refused} refused)")
    return 0


def _cmd_slope(args):
    records = read_records(args.input)
    keys = args.group.split(",")
    fits = fit_slope(records, keys)
    print("group\tslope\tintercept\tr2\tcells")
    for key, fit in sorted(fits.items(), key=lambda kv: str(kv[0])):
        label = ",".join(str(k) for k in key)
        print(f"{label}\t{fit.slope:+.4f}\t{fit.intercept:+.4f}\t{fit.r2:.4f}\t{fit.n_cells}")
    return 0


def _cmd_width(args):
    section = {"set": args.set, "radius": args.radius}
    if args.p is not None:
        section["p"] = args.p
    C = CONSTRAINTS.build(section, {"d": args.d})
    rng = np.random.default_rng(_env_seed(0, nonnegative=True))
    est, se = gaussian_width_mc(C, args.samples, rng)
    print(f"gaussian width estimate: {est:.6f} (std error {se:.2e}, m={args.samples})")
    return 0


def _cmd_mech_check(args):
    rng = np.random.default_rng(_env_seed(0, nonnegative=True))
    if args.what == "gauss":
        print("gaussian mechanism variance 2*Delta^2*ln(1.25/delta)/eps^2")
        print("delta_2\teps\tdelta\tsigma2")
        for sens in (0.5, 1.0, 2.0):
            for eps in (0.1, 0.5, 1.0):
                s2 = gaussian_noise_sigma2(sens, PrivacyBudget(eps, 1e-5))
                print(f"{sens}\t{eps}\t1e-05\t{s2:.6g}")
    elif args.what == "compose":
        print("advanced composition per-step budgets (overall (eps, T*delta'+delta))")
        print("T\teps\tdelta\teps_step\tdelta_step")
        for T in (1, 8, 64):
            for eps in (0.25, 0.5):
                es, ds = advanced_composition(PrivacyBudget(eps, 1e-5), T)
                print(f"{T}\t{eps}\t1e-05\t{es:.6g}\t{ds:.6g}")
        cal = shuffle_calibrate(10_000, PrivacyBudget(0.01, 1e-5), 1.0, 2.0)
        print(
            f"shuffle example: n=10000 eps=0.01 -> sigma={cal.sigma:.4f} "
            f"(regime ceiling eps <= {cal.max_epsilon:.4f})"
        )
    else:  # gg
        d, r, sig2 = args.d, args.p, 1.0
        m = args.samples
        spec = GGNoiseSpec(sigma2=sig2, r=r, d=d)
        z = gg_sample(spec, rng, size=m)
        radii = lp_norm(z, r)
        print(f"generalized Gaussian check: d={d} r={r} sigma2={sig2} draws={m}")
        print(f"  mean ||z||_r^2 = {float((radii ** 2).mean()):.4f}   (d*sigma2 = {d * sig2:.4f})")
        print(f"  coordinate means max |.| = {float(np.abs(z.mean(axis=0)).max()):.4g}")
        print(f"  calibration 2*kappa*ln(1/delta)*s^2/eps^2 at kappa=2, s=1, eps=1, delta=1e-5: "
              f"{gg_calibrate(1.0, 2.0, PrivacyBudget(1.0, 1e-5)):.4f}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="dpsco", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_slope = sub.add_parser("slope", help="fit log-log slopes from a CSV")
    p_slope.add_argument("--in", dest="input", required=True)
    p_slope.add_argument("--group", default="algo,eps,d")
    p_slope.set_defaults(fn=_cmd_slope)

    p_width = sub.add_parser("width", help="Monte Carlo Gaussian width")
    p_width.add_argument("--set", choices=tuple(CONSTRAINTS), required=True)
    p_width.add_argument("--p", type=float, default=None)
    p_width.add_argument("--d", type=_DIMENSION, required=True)
    p_width.add_argument("--radius", type=float, default=1.0)
    p_width.add_argument("--samples", type=_at_least(int, 2, "an integer >= 2"), default=100_000)
    p_width.set_defaults(fn=_cmd_width)

    p_mech = sub.add_parser("mech-check", help="sampler statistics and calibration tables")
    p_mech.add_argument("--what", choices=("gg", "gauss", "compose"), required=True)
    p_mech.add_argument("--d", type=_DIMENSION, default=10)
    p_mech.add_argument("--p", type=_at_least(float, 1.0, "a finite number >= 1"), default=3.0)
    p_mech.add_argument("--samples", type=_at_least(int, 1, "a positive integer"), default=100_000)
    p_mech.set_defaults(fn=_cmd_mech_check)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, ArithmeticError) as exc:  # ArithmeticError: a cell overflowed
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
