"""The rows of tests/mutants.py still apply to the code they mutate."""

import os

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT, generated, tier1_files


def test_mutant_names_are_unique():
    names = [name for name, _, _, _ in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("path, text", [row[1:3] for row in MUTANTS]
                         + [row[:2] for row in EQUIVALENT])
def test_each_row_text_occurs_once(path, text):
    with open(os.path.join(ROOT, path)) as fh:
        assert fh.read().count(text) == 1


def test_generated_rows_replace_one_statement_each(tmp_path):
    (tmp_path / "m.py").write_text(
        "import os\n"
        "def f(a):\n"
        '    """doc"""\n'
        "    b = 1; c = 2\n"
        "    if a: b = 3\n"
        "    for i in a:\n"
        "        b += i   # a comment\n"
        "    return b\n")
    rows = generated(str(tmp_path), "m.py")
    assert [name for name, _, _ in rows] == ["m:f:6", "m:f:7"]
    assert rows[0][2].splitlines()[5:] == ["    pass", "    return b"]
    assert rows[1][2].splitlines()[6] == "        pass"


def test_the_module_own_tests_run_first():
    files = tier1_files(ROOT, "src/lpmc/landscape.py")
    assert files[0] == os.path.join("tests", "test_landscape.py")
    assert sorted(files) == sorted(
        os.path.join("tests", name) for name in os.listdir(
            os.path.join(ROOT, "tests"))
        if name.startswith("test_") and name.endswith(".py"))
