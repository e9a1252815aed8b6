"""Command-line entry points.

  clapping-sim run <config> [--seed S] [--out PATH] [--log-every N]
  clapping-sim fstar <config>
  clapping-sim verify <suite> [--seed S] [--out DIR]
  clapping-sim mem-calc --workers W --batch B --samples N --seq S --hidden H
"""

from __future__ import annotations

import argparse
import sys

from . import datasets as ds
from . import harness
from . import verify as vf
from .engine import VARIANTS
from .errors import ConfigurationError, DivergenceError


def _cmd_run(args) -> int:
    raw = harness.read_config_file(args.config)
    flags = {"algo.seed": args.seed, "run.log_every": args.log_every}
    raw.update((key, value) for key, value in flags.items() if value is not None)
    out = harness.run_experiment(harness.config_from_mapping(raw), args.out)
    print(f"wrote {out}")
    return 0


def _cmd_fstar(args) -> int:
    cfg = harness.load_config(args.config)
    if cfg.dataset_kind != "synthetic_logistic":
        raise ConfigurationError("dataset.kind: reference optimum needs the convex logistic dataset")
    *_, data = harness.build_problem(cfg)
    print(f"f_star = {ds.compute_f_star(data)!r}")
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"--seed: must be >= 0, got {args.seed}")
    reports = vf.run_suite(args.suite, seed=args.seed, out_dir=args.out)
    for rep in reports:
        print(rep.summary())
        for line in rep.diagnostics:
            print(f"    {line}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_mem_calc(args) -> int:
    out = harness.memory_calculator(
        workers=args.workers, batch=args.batch, samples=args.samples,
        seq_len=args.seq, hidden=args.hidden, bytes_per_element=args.bytes_per_element,
    )
    print(f"batch-cache overhead:      {out['clapping_bytes']:.0f} bytes "
          f"({out['clapping_gib']:.2f} GiB)")
    print(f"per-sample-cache overhead: {out['aqsgd_bytes']:.0f} bytes "
          f"({out['aqsgd_gib']:.2f} GiB)")
    for variant in VARIANTS:
        print(f"  {variant + ':':<25}{out[variant]:.0f} bytes ({out[variant] / 2**30:.2f} GiB)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clapping-sim",
                                     description="pipeline-compression simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config, write metrics CSV")
    p_run.add_argument("config")
    p_run.add_argument("--seed", default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--log-every", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_fstar = sub.add_parser("fstar", help="compute the reference optimum for a config")
    p_fstar.add_argument("config")
    p_fstar.set_defaults(func=_cmd_fstar)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_mem = sub.add_parser("mem-calc", help="communication-cache memory overheads")
    p_mem.add_argument("--workers", type=int, required=True)
    p_mem.add_argument("--batch", type=int, required=True)
    p_mem.add_argument("--samples", type=int, required=True)
    p_mem.add_argument("--seq", type=int, required=True)
    p_mem.add_argument("--hidden", type=int, required=True)
    p_mem.add_argument("--bytes-per-element", type=int, default=2)
    p_mem.set_defaults(func=_cmd_mem_calc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a config whose arrays cannot be allocated
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
