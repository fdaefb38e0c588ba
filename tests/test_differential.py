"""Self-test of tools/differential.py on two cases: a tree against itself is
identical, and a copy with a mutated text renderer differs in exactly the
text case."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)

FIG1 = str(differential.CORPUS / "fig1.up")
CASES = [("fig1 text", (FIG1, *differential.SPEC)),
         ("fig1 concrete machine", (FIG1, *differential.SPEC, "--mode",
                                    "concrete", "--format", "machine"))]


@pytest.fixture(scope="module")
def head(tmp_path_factory):
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True)
    if found.returncode:
        pytest.skip("not a git checkout")
    return differential.extract("HEAD", tmp_path_factory.mktemp("head"))


def test_head_against_itself_is_identical(head):
    assert differential.compare(head, head, CASES) == []


def test_mutated_copy_differs(head, tmp_path):
    mutated = tmp_path / "src"
    shutil.copytree(head, mutated)
    cli = mutated / "probrange" / "cli.py"
    text = cli.read_text()
    assert 'f"converged: {status}' in text
    cli.write_text(text.replace('f"converged: {status}',
                                'f"converged:  {status}'))
    assert differential.compare(head, mutated, CASES) == ["fig1 text"]
