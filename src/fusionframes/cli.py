"""Command line interface: instance generation, suites, and explanations.

Exit codes: 0 when every executed check passes (indeterminate does not
fail), 1 when any check fails, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import deque

import numpy as np

from .checks import CHECKS, SUITES, describe_check, run_suite
from .exceptions import FusionFrameError
from .instances import (
    SYMBOL_MODES,
    InstanceSpec,
    generate_instance,
    load_instance,
    random_spanning_dims,
    save_instance,
)
from .numerics import ToleranceConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionframes",
        description="Generate fusion-frame instances and machine-check duality "
        "and multiplier statements on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic instance file")
    gen.add_argument("--dim", type=int, required=True, help="ambient dimension n")
    gen.add_argument("--blocks", type=int, required=True, help="number of blocks N")
    gen.add_argument(
        "--dims",
        type=str,
        required=True,
        help="comma-separated subspace dimensions, one per block",
    )
    gen.add_argument("--symbol", choices=SYMBOL_MODES, default="random_C_holding")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--weights", type=str, default="0.5,2.0", help="weight range lo,hi")
    gen.add_argument("--local", type=int, default=None, metavar="REDUNDANCY",
                     help="also store local frames with this redundancy")
    gen.add_argument("-o", "--output", required=True, help="output instance file")

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("--suite", choices=sorted(SUITES), required=True)
    check.add_argument("instance", nargs="?", default=None, help="ffv2 or ffv1 instance file")
    check.add_argument("--random", type=int, default=None, metavar="COUNT",
                       help="run on COUNT freshly generated instances instead of a file")
    check.add_argument("--seed", type=int, default=None,
                       help="base seed for --random (default 0); a file carries its own")
    check.add_argument("--report", default=None, help="write the JSON report here")
    check.add_argument("--tol-eq", type=float, default=None, help="override eq_rel")
    check.add_argument("--tol-rank", type=float, default=None, help="override rank_rel")

    explain = sub.add_parser("explain", help="describe a named check")
    explain.add_argument("check", help="check name, e.g. dual_span")

    return parser


def _cmd_gen(args) -> int:
    try:
        dims = tuple(int(x) for x in args.dims.split(","))
        lo, hi = (float(x) for x in args.weights.split(","))
        spec = InstanceSpec(
            n=args.dim,
            blocks=args.blocks,
            dims=dims,
            weight_range=(lo, hi),
            symbol_mode=args.symbol,
            seed=args.seed,
        )
        inst = generate_instance(spec, local_redundancy=args.local)
        save_instance(inst, args.output)
    except (FusionFrameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _default_random_spec(seed: int) -> InstanceSpec:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    blocks = int(rng.integers(2, 6))
    return InstanceSpec(
        n=n,
        blocks=blocks,
        dims=random_spanning_dims(n, blocks, rng),
        weight_range=(0.5, 2.0),
        symbol_mode="random_C_holding",
        seed=seed,
    )


def _cmd_check(args) -> int:
    if (args.instance is None) == (args.random is None):
        print("error: give exactly one of an instance file or --random COUNT", file=sys.stderr)
        return EXIT_USAGE
    if args.instance is not None and args.seed is not None:
        print("error: --seed applies to --random only; an instance file's checks seed "
              "from the file's own seed", file=sys.stderr)
        return EXIT_USAGE
    overrides = {}
    if args.tol_eq is not None:
        overrides["eq_rel"] = args.tol_eq
    if args.tol_rank is not None:
        overrides["rank_rel"] = args.tol_rank
    try:
        tol = ToleranceConfig(**overrides)
    except FusionFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.instance is not None:
            pending = deque([load_instance(args.instance)])
            base_seed = pending[0].seed
        else:
            base_seed = 0 if args.seed is None else args.seed
            if args.random <= 0:
                print("error: --random needs a positive count", file=sys.stderr)
                return EXIT_USAGE
            if not 0 <= base_seed <= 2**64 - args.random:  # each seed + t is a 64-bit seed
                print(f"error: --seed must lie in [0, 2**64 - COUNT], got {base_seed}",
                      file=sys.stderr)
                return EXIT_USAGE
            pending = deque(
                generate_instance(_default_random_spec(base_seed + t))
                for t in range(args.random)
            )
    except (FusionFrameError, OSError, ValueError) as exc:
        print(f"error: cannot load instance: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # each instance, and every fact its checks cached on it, is released once its
    # checks have run, not kept until the report is written
    instances = (pending.popleft() for _ in range(len(pending)))
    report = run_suite(args.suite, instances, tol, base_seed=base_seed)
    text = json.dumps(report, indent=2) + "\n"
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    summary = report["summary"]
    print(
        f"{args.suite}: {summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['indeterminate']} indeterminate",
        file=sys.stderr,
    )
    return EXIT_CHECK_FAILED if summary["fail"] else EXIT_OK


def _cmd_explain(args) -> int:
    if args.check not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        print(f"error: unknown check {args.check!r}; known checks: {known}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(describe_check(args.check))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_explain(args)


if __name__ == "__main__":
    raise SystemExit(main())
