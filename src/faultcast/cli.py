"""Command line interface: `sim run | bounds | verify-regressions | search`."""

import argparse
import json
import sys

from . import bounds
from .errors import SimError
from .harness import ExperimentConfig, _json_fields, run, verify_regressions
from .search import _SIZE_CAP, worst_case_search
from .topology import COMPLETE, HYPERCUBE


def _add_run_parser(sub):
    p = sub.add_parser("run", help="execute a sweep of simulation runs")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--topology", choices=[COMPLETE, HYPERCUBE])
    p.add_argument("--size", type=int, nargs="+", help="n (complete) or d (hypercube)")
    p.add_argument("--alpha", type=float, nargs="+")
    p.add_argument("--eps", type=float)
    p.add_argument("--protocol")
    p.add_argument("--adversary", nargs="+")
    p.add_argument("--seeds", type=int)
    p.add_argument("--out", help="output directory for traces, CSV, and plot data")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero on any trace-invariant violation")
    p.add_argument("--horizon", type=int, help="round count of simple-rounds")


def _config_from_args(args) -> ExperimentConfig:
    """The config file's fields with the given flags laid over them; the
    topology-dependent defaults follow the resulting topology."""
    fields = _json_fields(args.config) if args.config else {}
    for name in ("topology", "size", "alpha", "eps", "protocol", "adversary",
                 "seeds", "out", "horizon"):
        value = getattr(args, name)
        if value is not None:
            fields[name] = value
    if args.strict:
        fields["strict"] = True
    return ExperimentConfig(**fields)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    report = run(config)
    for row in report.rows:
        print(f"{row['protocol']} {row['topology']} size={row['size']} "
              f"alpha={row['alpha']} adv={row['adversary']} seed={row['seed']}: "
              f"steps={row['steps']} first_complete={row['first_complete']} "
              f"final_k={row['final_k']} final_h={row['final_h']} "
              f"violations={row['violations']}")
    for row, violation in report.violations:
        print(f"VIOLATION {row['adversary']} seed={row['seed']}: {violation}",
              file=sys.stderr)
    if config.strict and not report.ok:
        return 1
    return 0


def _cmd_bounds(args) -> int:
    print(json.dumps(bounds.bound_set(args.alpha, args.eps, n=args.n, d=args.d), indent=2))
    return 0


def _cmd_verify(args) -> int:
    results = verify_regressions(args.file)
    ok = True
    for r in results:
        status = "ok" if r["ok"] else "MISMATCH"
        print(f"{r['name']}: expected {r['expected']}, got {r['got']} [{status}]")
        ok = ok and r["ok"]
    return 0 if ok else 1


def _cmd_search(args) -> int:
    result = worst_case_search(args.n, args.protocol, args.alpha,
                               horizon=args.horizon, eps=args.eps,
                               all_sizes=args.all_sizes)
    worst = "exceeds horizon" if result.horizon_exceeded else int(result.worst_steps)
    print(json.dumps({
        "worst_steps": None if result.horizon_exceeded else int(result.worst_steps),
        "verdict": str(worst),
        "horizon": result.horizon,
        "nodes": result.nodes,
        "states": result.states,
    }, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Broadcast simulator for synchronous networks with "
                    "adversarial fractional message loss.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    p = sub.add_parser("bounds", help="print schedule lengths and constants as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, help="default: Q_d's with --d, else K_n's")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--n", type=int)
    size.add_argument("--d", type=int)

    p = sub.add_parser("verify-regressions",
                       help="recompute tiny worst-case searches against frozen values")
    p.add_argument("--file", help="alternative regression JSON file")

    p = sub.add_parser("search", help=f"exhaustive worst-case adversary search (n <= {_SIZE_CAP})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--protocol", default="almost-kn")
    p.add_argument("--eps", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--all-sizes", action="store_true",
                   help="explore non-maximal kill sets too")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "bounds": _cmd_bounds,
                "verify-regressions": _cmd_verify, "search": _cmd_search}
    try:
        return handlers[args.command](args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
