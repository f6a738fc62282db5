"""README's "Family grammar examples" must each generate, and label when
the kind has a labeler."""

import re
from pathlib import Path

import pytest

from nplabel import families, labelers
from nplabel.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def grammar_examples():
    text = README.read_text()
    start = text.index("Family grammar examples:")
    return re.findall(r"`([a-z0-9]+:[^`]*)`", text[start:text.index("\n\n", start)])


EXAMPLES = grammar_examples()


def test_every_kind_has_an_example():
    assert {e.partition(":")[0] for e in EXAMPLES} == set(families._FAMILIES)


@pytest.mark.parametrize("spec", EXAMPLES)
def test_example_generates_and_labels(capsys, spec):
    assert main(["gen", "--family", spec]) == EXIT_OK
    if spec.partition(":")[0] in labelers._LABELERS:
        capsys.readouterr()
        assert main(["label", "--family", spec]) == EXIT_OK
        assert "VERIFIED" in capsys.readouterr().out
