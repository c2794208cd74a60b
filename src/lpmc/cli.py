"""Command line front end for the experiment sweeps and diagnostics.

An argument '@path' reads the file at path as more arguments: flags as typed,
any number per line, '#' starting a comment; a later flag overrides an
earlier one.

Exit status: 0 on success, 1 on argument and IO errors, 2 when a run fails a
hard invariant (diagnostics FAIL, a NumericError or numpy's LinAlgError).
"""

import argparse
import contextlib
import os
import shlex
import sys

import numpy as np

from .errors import NumericError
from .experiments import (EXPERIMENTS, SETTINGS, default_config,
                          run_diagnostics, run_experiment, render_csv,
                          write_csv)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; argument errors are exit 1 here, with
    # the one 'lpmc: <message>' line every other error prints
    def error(self, message):
        self.exit(1, f"lpmc: {message}\n")

    def convert_arg_line_to_args(self, arg_line):
        return shlex.split(arg_line, comments=True)


def main(argv=None):
    # allow_abbrev=False: a prefix such as --tri is an error, not --trials,
    # so a saved @file keeps its meaning when a flag is added
    parser = _Parser(prog="lpmc", fromfile_prefix_chars="@",
                     allow_abbrev=False,
                     description="matrix completion sweeps and landscape "
                                 "diagnostics")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sub = subs.add_parser(name, allow_abbrev=False)
        for key, (_, readers, flag) in SETTINGS.items():
            if name in readers:
                sub.add_argument("--" + key.replace("_", "-"), dest=key,
                                 **flag)
    args = parser.parse_args(argv)

    # the --out file this run created and has not yet written, which a
    # failed run removes
    new_out = None
    try:
        config = default_config(args.command, **{
            field: value for key, value in vars(args).items()
            if key in SETTINGS and value is not None
            for field in SETTINGS[key][0]})
        if config.out:
            # the path is opened before the run, so a bad one fails first;
            # a file that is there already keeps its bytes (append mode)
            # until the run succeeds
            try:
                open(config.out, "x").close()
                new_out = config.out
            except FileExistsError:
                open(config.out, "a").close()
        if config.experiment == "diagnostics":
            text, ok = run_diagnostics(config)
            sys.stdout.write(text)
            if config.out:
                with open(config.out, "w") as fh:
                    fh.write(text)
            new_out = None
            return 0 if ok else 2
        records, summaries = run_experiment(config)
        if config.out:
            write_csv(config.out, records, summaries)
            print(f"wrote {len(records)} records to {config.out}")
        else:
            sys.stdout.write(render_csv([], summaries))
        new_out = None
    # before ValueError, which LinAlgError subclasses: a failed LAPACK call
    # is numeric; lpmc's argument checks all run before any LAPACK call
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"lpmc: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"lpmc: {exc}", file=sys.stderr)
        return 1
    finally:
        if new_out:
            with contextlib.suppress(OSError):
                os.remove(new_out)
    total = sum(r.wall_time for r in records)
    values = sum(r.value_evals for r in records)
    print(f"{len(records)} solves in {total:.1f}s, {values} objective "
          "values", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
