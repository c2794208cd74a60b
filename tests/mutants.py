"""One-line mutants of lpmc, and what catches each.

Each row of MUTANTS names a mutant and gives its file, a text that must
occur exactly once in it, and the text that replaces it. For each row the
tracked and untracked, not ignored, files of this checkout are copied into
a temporary directory, the mutant is applied there, tier-1 runs with -x,
and then the output digests (tests/output_digests.py at 2 seeds, as CI
runs them) run and are compared with those of the unmutated copy. A row
reports "caught" with the first failing test, "moved" with the digest
lines it changed while every test passed, or "survived". A caught row
also lists the lines it moved:

    python tests/mutants.py

A surviving mutant costs a full tier-1 run. A change that adds a rule or
a constant adds its row. BLAS is pinned to one thread, as
output_digests.py pins it. pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 2

MUTANTS = (
    ("search-accepts-on-less", "src/lpmc/optimizer.py",
     "if ev.value <= value or clamp:", "if ev.value < value or clamp:"),
    ("no-frobenius-margin", "src/lpmc/objective.py",
     "frob_sq < alpha ** 2 * (1.0 - 1e-8)", "frob_sq < alpha ** 2"),
    ("min-step-1e-12", "src/lpmc/optimizer.py",
     "\nMIN_STEP = 1e-10\n", "\nMIN_STEP = 1e-12\n"),
    ("sketch-extra-2", "src/lpmc/linalg.py",
     "SKETCH_EXTRA = 10", "SKETCH_EXTRA = 2"),
    ("power-passes-0", "src/lpmc/linalg.py",
     "POWER_PASSES = 2", "POWER_PASSES = 0"),
    ("param-gap-step-1e-1", "src/lpmc/landscape.py",
     "PARAM_GAP_STEP = 1e-2", "PARAM_GAP_STEP = 1e-1"),
    ("skew-on-bernoulli-mask", "src/lpmc/experiments.py",
     "return symmetric_offdiag_mask(param.n1, p, rng)",
     "return bernoulli_mask(param.n1, param.n2, p, rng)"),
    ("no-spectral-start", "src/lpmc/optimizer.py",
     'if config.init == "spectral":', "if False:"),
    ("grad-tol-1e-8", "src/lpmc/optimizer.py",
     "GRAD_TOL_SQ = 1e-10", "GRAD_TOL_SQ = 1e-8"),
    ("entry-kernel-below-0.06", "src/lpmc/objective.py",
     "_ENTRY_KERNEL_BELOW = 0.03", "_ENTRY_KERNEL_BELOW = 0.06"),
    ("success-rel-err-1e-2", "src/lpmc/experiments.py",
     "SUCCESS_REL_ERR = 1e-3", "SUCCESS_REL_ERR = 1e-2"),
    ("fit-tol-1e-4", "src/lpmc/parameterization.py",
     "FIT_TOL = 1e-8", "FIT_TOL = 1e-4"),
    ("max-iters-400", "src/lpmc/optimizer.py",
     "max_iters: int = 500", "max_iters: int = 400"),
    ("rank-floor-1e-12", "src/lpmc/linalg.py",
     "RANK_FLOOR = 1e-10", "RANK_FLOOR = 1e-12"),
)


def copy_tree(dest):
    """Copy the checkout's files, tracked and untracked but not ignored."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for rel in filter(None, files.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def mutant_text(tree, path, old, new):
    """The file's text with old, which must occur exactly once, replaced."""
    with open(os.path.join(tree, path)) as fh:
        text = fh.read()
    count = text.count(old)
    if count != 1:
        sys.exit(f"{path}: {old!r} occurs {count} times, not once")
    return text.replace(old, new)


def run(tree, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)


def digests(tree):
    proc = run(tree, "tests/output_digests.py", "--seeds", str(SEEDS))
    if proc.returncode:
        return None
    return dict(line.split() for line in proc.stdout.splitlines())


def first_failure(proc):
    """The first FAILED or ERROR id of a pytest run, or its last line."""
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return lines[-1] if lines else f"exit {proc.returncode}"


def main():
    with tempfile.TemporaryDirectory() as scratch:
        clean = os.path.join(scratch, "clean")
        copy_tree(clean)
        texts = [mutant_text(clean, *row[1:]) for row in MUTANTS]  # before runs
        base = digests(clean)
        if base is None:
            sys.exit("the unmutated digests failed")
        for (name, path, _, _), text in zip(MUTANTS, texts):
            tree = os.path.join(scratch, name)
            shutil.copytree(clean, tree)
            with open(os.path.join(tree, path), "w") as fh:
                fh.write(text)
            tests = run(tree, "-m", "pytest", "-q", "-x", "-p",
                        "no:cacheprovider")
            got = digests(tree)
            moved = (["(digest run failed)"] if got is None else
                     [k for k in base if got.get(k) != base[k]])
            if tests.returncode:
                verdict = f"caught by {first_failure(tests)}"
            elif moved:
                verdict = "moved"
            else:
                verdict = "survived"
            lines = ", ".join(moved) if moved else "none"
            print(f"{name}: {verdict}; digest lines moved: {lines}",
                  flush=True)
            shutil.rmtree(tree)


if __name__ == "__main__":
    main()
