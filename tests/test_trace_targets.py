"""Every dotted name that the benchmark's traced runs wrap must exist, and
each workload must call every one of them.

``perfbench/run.py --trace 1`` replaces each target with a wrapper and fails
on a target that is missing or never called, so a refactor that renames,
removes or stops calling a traced function breaks only traced runs; these
tests make it fail the ordinary suite instead."""

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


@pytest.mark.parametrize("name", ["family-label", "tree-scan"])
def test_workload_calls_every_target(name, tmp_path, monkeypatch):
    # the first repetition of seed 1, run once under perfbench's own tracer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").load(name, tmp_path / "scratch")
    tracer = importlib.import_module("tracing").Tracer(workload.targets)
    inputs = workload.build(1, 0)
    tracer.install(0)
    try:
        output = workload.run(inputs)
    finally:
        tracer.uninstall()
    tracer.check_called(name)
    attempted, failed, _ = workload.check(inputs, output)
    assert attempted > 0 and failed == 0
