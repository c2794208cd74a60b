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
    # argparse exits 2 on bad flags; argument errors are exit 1 here, with
    # the one 'lpmc: <message>' line every other error prints
    def error(self, message):
        self.exit(1, f"lpmc: {message}\n")


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v)


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v)


_SOLVING = tuple(e for e in EXPERIMENTS if e != "diagnostics")

# Every flag and config key, declared once: the ExperimentConfig fields it
# sets, the experiments that read it, and its argparse settings. The flag is
# --key with '_' written '-'; config files take either spelling.
_KEYS = {
    "n": (("n1", "n2"), EXPERIMENTS,
          dict(type=int, help="side length (n1 = n2 = n)")),
    "r": (("r",), tuple(e for e in EXPERIMENTS if e != "skew-compare"),
          dict(type=int, help="target rank")),
    "s": (("sweep",), EXPERIMENTS,
          dict(type=_ints, help="subspace widths (or skew-compare ranks), "
                                "comma separated")),
    "p_grid": (("p_grid",), EXPERIMENTS,
               dict(type=_floats, help="sampling rates, comma separated")),
    "sigma": (("sigma",), EXPERIMENTS, dict(type=float, help="noise level")),
    "trials": (("trials",), _SOLVING, dict(type=int, help="trials per cell")),
    "seed": (("master_seed",), EXPERIMENTS,
             dict(type=int, help="master seed")),
    "lambda": (("lam",), _SOLVING,
               dict(type=float,
                    help="penalty weight (default: standard rule)")),
    "alpha": (("alpha",), _SOLVING,
              dict(type=float,
                   help="row-norm threshold (default: standard rule)")),
    "max_iters": (("max_iters",), _SOLVING,
                  dict(type=int, help="gradient-step cap")),
    "out": (("out",), EXPERIMENTS,
            dict(help="output path (CSV, or text report for diagnostics)")),
    "kind": (("kind",), ("single-solve",),
             dict(choices=KINDS, help="parameterization to solve with")),
}


def read_config_file(path, experiment):
    """Parse a 'key = value' config file for one experiment; keys match the
    long flag names the experiment takes."""
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
            if key not in _KEYS or experiment not in _KEYS[key][1]:
                raise ValueError(f"{path}:{ln}: {experiment} takes no key "
                                 f"{key!r}")
            values[key] = _KEYS[key][2].get("type", str)(raw.strip())
    return values


def _build_config(args):
    values = read_config_file(args.config, args.command) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _KEYS and value is not None)
    return default_config(args.command, **{
        field: value for key, value in values.items()
        for field in _KEYS[key][0]})


def main(argv=None):
    parser = _Parser(prog="lpmc",
                     description="matrix completion sweeps and landscape "
                                 "diagnostics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sub = subs.add_parser(name)
        for key, (_, readers, flag) in _KEYS.items():
            if name in readers:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 **flag)
        sub.add_argument("--config", help="key = value config file; explicit "
                                          "flags override it")
    args = parser.parse_args(argv)

    try:
        config = _build_config(args)
    except (OSError, ValueError) as exc:
        print(f"lpmc: {exc}", file=sys.stderr)
        return 1

    try:
        if config.experiment == "diagnostics":
            text, ok = run_diagnostics(config)
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
