"""Every dotted name that the benchmark's traced runs wrap must exist.

``perfbench/run.py --trace 1`` replaces each target with a wrapper, so a
refactor that renames or removes a traced function breaks only traced
runs; this test makes it fail the ordinary suite instead."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def trace_targets():
    # the workload modules import their helpers as top-level modules
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        family_label = importlib.import_module("family_label")
        tree_scan = importlib.import_module("tree_scan")
        return family_label.TARGETS + tree_scan.workload(None).targets


TARGETS = trace_targets()


def test_targets_listed():
    assert len(TARGETS) > 10
    assert "nplabel.labelers.label_path" in TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_callable(target):
    module, _, name = target.rpartition(".")
    assert module.split(".")[0] == "nplabel"
    assert callable(getattr(importlib.import_module(module), name, None)), target
