"""Self-test of tools/differential.py on two cases: a tree against itself is
identical, a copy with a mutated text renderer differs in exactly the text
case, and with --values-only a copy whose probabilities all change differs
in no case and lists the changed probabilities of both."""

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


def test_values_only_lists_changed_probabilities(head, tmp_path):
    mutated = tmp_path / "src"
    shutil.copytree(head, mutated)
    hardware = mutated / "probrange" / "hardware.py"
    text = hardware.read_text()
    assert "return p + (1.0 - p) / space" in text
    hardware.write_text(text.replace("return p + (1.0 - p) / space",
                                     "return p * p + (1.0 - p) / space"))
    assert differential.compare(head, mutated, CASES) == [label for label, _
                                                          in CASES]
    differing, changed = differential.compare_values(head, mutated, CASES)
    assert differing == []
    # fig1's rows in both formats: as text, and as machine JSON's repr
    assert ("changed: fig1 text: line 3 x: 0.999850006526 -> 0.999650051522"
            in changed)
    assert ("changed: fig1 concrete machine: line 4 x: 0.997952031168 -> "
            "0.995659289447" in changed)
    assert {line.split(": ")[1] for line in changed} == {label for label, _
                                                          in CASES}
