"""Command line front end for the experiment sweeps and diagnostics.

Exit status: 0 on success, 1 on argument/configuration/IO errors, 2 when a
run fails a hard invariant (diagnostics FAIL or a numeric failure inside a
solve).
"""

import argparse
import sys

from .errors import NumericError
from .experiments import (EXPERIMENTS, default_config, run_diagnostics,
                          run_experiment, render_csv, write_csv)
from .parameterization import KINDS


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; argument errors are exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v)


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v)


_FIELD_PARSERS = {
    "n": int, "r": int, "s": _ints, "p_grid": _floats, "sigma": float,
    "trials": int, "seed": int, "lambda": float, "alpha": float,
    "max_iters": int, "out": str, "kind": str,
}


def read_config_file(path):
    """Parse a 'key = value' config file; keys match the long flag names."""
    values = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, _, raw = body.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_PARSERS:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            values[key] = _FIELD_PARSERS[key](raw.strip())
    return values


def _add_common(sub):
    sub.add_argument("--n", type=int, help="side length (n1 = n2 = n)")
    sub.add_argument("--r", type=int, help="target rank")
    sub.add_argument("--s", type=_ints,
                     help="subspace widths (or skew-compare ranks), "
                          "comma separated")
    sub.add_argument("--p-grid", dest="p_grid", type=_floats,
                     help="sampling rates, comma separated")
    sub.add_argument("--sigma", type=float, help="noise level")
    sub.add_argument("--trials", type=int, help="trials per cell")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--lambda", dest="lam", type=float,
                     help="penalty weight (default: standard rule)")
    sub.add_argument("--alpha", type=float,
                     help="row-norm threshold (default: standard rule)")
    sub.add_argument("--max-iters", dest="max_iters", type=int,
                     help="gradient-step cap")
    sub.add_argument("--out", help="output path (CSV, or text report "
                                   "for diagnostics)")
    sub.add_argument("--config", help="key = value config file; explicit "
                                      "flags override it")


def _build_config(args):
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
        if "kind" in values and args.command != "single-solve":
            raise ValueError(f"{args.config}: key 'kind' applies to "
                             "single-solve only")
    for key in _FIELD_PARSERS:
        attr = "lam" if key == "lambda" else key
        got = getattr(args, attr, None)
        if got is not None:
            values[key] = got
    overrides = {}
    if "n" in values:
        overrides["n1"] = overrides["n2"] = values["n"]
    if "r" in values:
        overrides["r"] = values["r"]
    if "s" in values:
        overrides["sweep"] = values["s"]
    for src, dst in (("p_grid", "p_grid"), ("sigma", "sigma"),
                     ("trials", "trials"), ("seed", "master_seed"),
                     ("lambda", "lam"), ("alpha", "alpha"),
                     ("max_iters", "max_iters"), ("out", "out"),
                     ("kind", "kind")):
        if src in values:
            overrides[dst] = values[src]
    return default_config(args.command, **overrides)


def main(argv=None):
    parser = _Parser(prog="lpmc",
                     description="matrix completion sweeps and landscape "
                                 "diagnostics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "single-solve":
            sub.add_argument("--kind", choices=KINDS,
                             help="parameterization to solve with")
    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
    except (OSError, ValueError) as exc:
        print(f"lpmc: {exc}", file=sys.stderr)
        return 1

    try:
        if config.experiment == "diagnostics":
            text, ok = run_diagnostics(config, stream=None)
            sys.stdout.write(text)
            if config.out:
                with open(config.out, "w") as fh:
                    fh.write(text)
            return 0 if ok else 2
        records, summaries = run_experiment(config)
    except NumericError as exc:
        print(f"lpmc: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"lpmc: {exc}", file=sys.stderr)
        return 1

    try:
        if config.out:
            write_csv(config.out, records, summaries)
            print(f"wrote {len(records)} records to {config.out}")
        else:
            sys.stdout.write(render_csv([], summaries))
        total = sum(r.wall_time for r in records)
        print(f"{len(records)} solves in {total:.1f}s", file=sys.stderr)
    except OSError as exc:
        print(f"lpmc: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
