"""Self-test of tools/differential.py on two cases: a tree against itself is
identical, a copy with a mutated text renderer differs in exactly the text
case, and with --values-only a copy whose probabilities all change differs
in no case and lists the changed probabilities of both. A copy that charges
each read as a write and each write as a read differs under the mixed spec
only. Every rejected program of the matrix also exits 1 with one line of
message."""

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


def test_swapped_charges_differ_under_the_mixed_spec_only(head, tmp_path):
    # a uniform spec gives read and write the same reliability, so only the
    # mixed spec's cases can tell a charge applied to the wrong op
    mutated = tmp_path / "src"
    shutil.copytree(head, mutated)
    engine = mutated / "probrange" / "engine.py"
    text = engine.read_text()
    assert 'rel("read")' in text and 'rel("write")' in text
    engine.write_text(text.replace('rel("read")', "READ").replace(
        'rel("write")', 'rel("read")').replace("READ", 'rel("write")'))
    mixed = [(f"{label} mixed", (args[0], *differential.MIXED, *args[3:]))
             for label, args in CASES]
    assert differential.compare(head, mutated, CASES + mixed) == [
        label for label, _ in mixed]


def test_rejected_programs_exit_1(tmp_path):
    rejected = [case for case in differential.cases(tmp_path)
                if case[0].startswith("rejected-")]
    assert len(rejected) == len(differential.REJECTED)
    for label, args in rejected:
        code, out, err = differential.run(ROOT / "src", args)
        assert (code, out) == (1, b""), label
        assert err.startswith(b"probrange: ") and err.count(b"\n") == 1, label
