"""Small mutants of lpmc, a line or two each, and what catches each.

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

Given module paths, the rows are generated instead: each statement in a
function body of each module, found by ast, is replaced by pass (a
compound statement with its whole body), one mutant a statement. Returns,
pass, imports, docstrings and statements that share a line with another
are left out, and so are the statements whose first line EQUIVALENT
names. A row is named module:function:line and reported as above:

    python tests/mutants.py src/lpmc/landscape.py src/lpmc/objective.py

A surviving mutant costs a full tier-1 run, about 20 s; a caught one about
9 s. A change that adds a rule or a constant adds its row.
tests/test_mutants.py checks in tier-1 that each row's text still occurs
once. BLAS is pinned to one thread, as output_digests.py pins it. pytest
does not collect this file.
"""

import ast
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
    ("root-tail-1e-6", "src/lpmc/parameterization.py",
     "> FIT_TOL * np.linalg.norm(values)", "> 1e-6 * np.linalg.norm(values)"),
    ("adjoint-as-matrix", "src/lpmc/parameterization.py",
     "param.adjoint(gx, gy)])",
     'param.adjoint(as_matrix(gx, "gx"), as_matrix(gy, "gy"))])'),
    ("start-outside-errstate", "src/lpmc/optimizer.py",
     '    with np.errstate(over="ignore", invalid="ignore"):\n'
     "        theta = initial_theta(spec, config)\n",
     "    theta = initial_theta(spec, config)\n"
     '    with np.errstate(over="ignore", invalid="ignore"):\n'),
    ("energy-blocks-swapped", "src/lpmc/landscape.py",
     "g, h = _draws(gen, count, (r, n2), (n1, r))",
     "h, g = _draws(gen, count, (n1, r), (r, n2))"),
    ("gap-stack-item-0-mask", "src/lpmc/landscape.py",
     "masks = np.array([s.mask.matrix for s in specs])",
     "masks = np.array([specs[0].mask.matrix for s in specs])"),
    ("key-words-swapped", "src/lpmc/sampling.py",
     "words = np.array([lo, hi], dtype=np.uint64)",
     "words = np.array([hi, lo], dtype=np.uint64)"),
    ("descend-skips-the-start", "src/lpmc/optimizer.py",
     "        yield Point(theta, value, grad_sq, step, candidates, hinged)\n",
     "        if step:\n"
     "            yield Point(theta, value, grad_sq, step, candidates, "
     "hinged)\n"),
    ("solve-one-step-short", "src/lpmc/optimizer.py",
     "islice(points, config.max_iters)",
     "islice(points, config.max_iters - 1)"),
    ("penalty-term-y-grad-3", "src/lpmc/landscape.py",
     "- 4.0 * float(np.vdot(_hinge_grad(y, hy), dy)))",
     "- 3.0 * float(np.vdot(_hinge_grad(y, hy), dy)))"),
)

# Statements whose deletion changes no result, each a (file, the
# statement's first line, stripped, which occurs exactly once in the file,
# reason) row; the generated rows leave them out.
EQUIVALENT = (
    ("src/lpmc/objective.py", "if _inside_alpha(np.vdot(x, x), alpha):",
     "speed only: the row pass it skips finds no row beyond alpha either; "
     "the Frobenius test costs 0.7-2.1 us against 6.8-8.4 us for the pass "
     "(n = 500, r = 2-20, timeit, one BLAS thread), and at alpha = 100 it "
     "skips almost every evaluation"),
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


def _statements(body):
    """Each statement of a body and, depth first, of the bodies it holds."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _statements(part.body)


def generated(tree, path):
    """(name, path, mutant text) for each statement of the function bodies
    of the module at path in tree that a generated row replaces by pass
    (see the docstring)."""
    with open(os.path.join(tree, path)) as fh:
        source = fh.read()
    lines = source.splitlines(keepends=True)
    parsed = ast.parse(source)
    starts = {}                     # line -> statements that begin on it
    for node in ast.walk(parsed):
        if isinstance(node, ast.stmt):
            starts.setdefault(node.lineno, []).append(node)
    skip = (ast.Return, ast.Pass, ast.Import, ast.ImportFrom)
    equivalent = [text for file, text, _ in EQUIVALENT if file == path]
    module = os.path.splitext(os.path.basename(path))[0]
    seen, rows = set(), []
    for func in ast.walk(parsed):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in _statements(func.body):
            first, last = stmt.lineno, stmt.end_lineno
            lead = lines[first - 1][:stmt.col_offset]
            tail = lines[last - 1][stmt.end_col_offset:].strip()
            docstring = (stmt is func.body[0] and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            shared = (lead.strip() or len(starts[first]) > 1
                      or tail and not tail.startswith("#"))
            if (isinstance(stmt, skip) or docstring or shared
                    or first in seen     # a nested def's body, seen once
                    or lines[first - 1].strip() in equivalent):
                continue
            seen.add(first)
            text = "".join(lines[:first - 1] + [lead + "pass\n"]
                           + lines[last:])
            rows.append((f"{module}:{func.name}:{first}", path, text))
    return sorted(rows, key=lambda row: int(row[0].rsplit(":", 1)[1]))


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


def main(paths):
    with tempfile.TemporaryDirectory() as scratch:
        clean = os.path.join(scratch, "clean")
        copy_tree(clean)
        # every row's text before the runs
        rows = ([row for path in paths for row in generated(clean, path)]
                if paths else
                [(name, path, mutant_text(clean, path, old, new))
                 for name, path, old, new in MUTANTS])
        base = digests(clean)
        if base is None:
            sys.exit("the unmutated digests failed")
        for name, path, text in rows:
            tree = os.path.join(scratch, "mutant")
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
    main(sys.argv[1:])
