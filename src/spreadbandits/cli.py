"""Command-line front end.

    spreadbandits simulate --config run.cfg [--seed N] [--out PATH] [--workers N]
    spreadbandits gain     --config gain.cfg [--seed N] [--out PATH] [--workers N]
    spreadbandits verify   [--seed N]

``simulate`` and ``gain`` read a config file (see
:mod:`spreadbandits.config`), run every configured policy for every
replication, and write ``<out>.csv`` / ``<out>.json``.  ``verify`` runs the
statistical self-check suite on its seed and exits nonzero if any check
fails; it reads no config.
"""

import argparse
import sys

from .config import load_config
from .errors import BanditError, ValidationError
from .runner import run
from .verify import all_passed, run_verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreadbandits",
        description="Power-spreading Gaussian bandit simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("simulate", "run policies on a configured instance"),
                        ("gain", "run the peak-gain estimation experiment")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="override the output path prefix")
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="at most N worker processes for the "
                       "replications, and no more than the usable CPUs "
                       "(default 1)")
    v = sub.add_parser("verify", help="run the statistical self-check suite")
    v.add_argument("--seed", type=int, default=0,
                   help="the suite seed (default 0)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg.mode != args.command:
        raise ValidationError(
            f"config mode is {cfg.mode!r} but the {args.command!r} command "
            f"was invoked")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        cfg = cfg.replaced(**overrides)
    run(cfg, workers=args.workers)
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"{tag} {r.name:<32} {r.observed} (require {r.requirement})")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results)} checks: {len(results) - n_fail} passed, "
          f"{n_fail} failed (seed {args.seed})")
    return 0 if all_passed(results) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_run(args)
    except (BanditError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
