"""Output digests of the sweeps and the diagnostics report.

Prints one line per config: its name and the sha256 over its outputs at
master seeds 0..N-1 (N = 40 unless --seeds says otherwise). The configs are
the four criterion-11 sweeps of test_acceptance.py, a skew-compare and a
subspace-phase sweep on the observed-entry kernel (n = 60, p = 0.02) and the
default diagnostics report; a sweep's output is its render_csv text. The six
sweeps are then printed again under init="random" as <name>-random lines:
the solver's random start, whose outputs are those of every checkout from
before the spectral start (default since), so their digests stay fixed from
one checkout to the next unless a change moves the descent itself. Two
checkouts that print the same lines wrote the same bytes, so a change meant
to keep every output is checked by running this at both and comparing:

    PYTHONPATH=src python tests/output_digests.py [--seeds N]

BLAS is pinned to one thread first, because sweep CSVs are byte-identical
only at a fixed thread count. pytest does not collect this file.
"""

import argparse
import hashlib
import os

SWEEPS = {
    "subspace-phase": dict(n1=24, n2=24, sweep=(4,), p_grid=(0.6,),
                           trials=2),
    "subspace-noisy": dict(n1=24, n2=24, sweep=(4,), p_grid=(0.6,),
                           sigma=0.02, trials=2),
    "skew-compare": dict(n1=16, n2=16, sweep=(2,), p_grid=(0.7,), trials=2),
    "single-solve": dict(n1=24, n2=24, sweep=(5,), p_grid=(0.8,)),
    "skew-compare-entry": dict(n1=60, n2=60, sweep=(2, 4), p_grid=(0.02,),
                               trials=2),
    "subspace-phase-entry": dict(n1=60, n2=60, sweep=(6, 10), p_grid=(0.02,),
                                 trials=2),
}


def digests(seeds):
    """(name, sha256 hex) per config, over master seeds 0..seeds-1."""
    from lpmc.experiments import (default_config, render_csv,
                                  run_diagnostics, run_experiment)

    def sweeps(suffix, **init):
        for name, fields in SWEEPS.items():
            experiment = name.removesuffix("-entry")
            h = hashlib.sha256()
            for seed in range(seeds):
                cfg = default_config(experiment, master_seed=seed, **fields,
                                     **init)
                h.update(render_csv(*run_experiment(cfg)).encode())
            out.append((name + suffix, h.hexdigest()))

    out = []
    sweeps("")
    h = hashlib.sha256()
    for seed in range(seeds):
        h.update(run_diagnostics(
            default_config("diagnostics", master_seed=seed))[0].encode())
    out.append(("diagnostics", h.hexdigest()))
    sweeps("-random", init="random")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40,
                        help="master seeds 0..N-1 (default 40)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be positive")
    for name, digest in digests(args.seeds):
        print(f"{name} {digest}")


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    main()
