"""The package's top-level names, what each import loads, and how the
records behave.

Top-level names resolve on first use (``nplabel.__getattr__``), so a caller
pays only for the submodules it reads; the records are NamedTuples, which
need neither ``dataclasses`` nor ``inspect``."""

import ast
import glob
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import nplabel
from nplabel import search, treescan  # submodules, not names in __all__
from nplabel.errors import UsageError
from nplabel.families import FamilySpec
from nplabel.graph import VerificationReport, Violation
from nplabel.search import SearchConfig, SearchOutcome
from nplabel.treescan import ConjectureReport, SizeResult, scan_conjecture

SRC = os.path.dirname(os.path.dirname(nplabel.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Every top-level name, by the submodule that defines it.
EXPORTS = {
    "errors": ("InvalidSpec", "LabelingInvalid", "NPLabelError", "ParseError",
               "PreconditionViolated", "UnsupportedParameters",
               "UnsupportedStructure", "UsageError"),
    "graph": ("Graph", "VerificationReport", "Violation", "is_tree", "verify"),
    "families": ("FamilySpec", "generate", "parse_family", "random_tree"),
    "labelers": ("HEAD_MIN", "INTERIOR_MIN", "contract_one_max", "extend_pendant",
                 "label_banana", "label_bivalent_free", "label_book", "label_book5",
                 "label_caterpillar", "label_firecracker", "label_full_binary",
                 "label_gear", "label_mobius", "label_path", "label_snake",
                 "label_spider", "label_star_gon", "shifted_path_labels"),
    "numtheory": ("bertrand_prime", "coprime_matching"),
    "search": ("EXHAUSTED", "FOUND", "INCONCLUSIVE", "SearchConfig", "SearchOutcome",
               "all_labelings", "brute_force_oracle", "find_labeling", "kernel_name"),
    "treescan": ("ConjectureReport", "ahu_canonical", "enumerate_free_trees",
                 "enumerate_free_trees_by_extension", "scan_conjecture"),
}


def loaded_by(statement):
    """Modules that ``statement`` adds to ``sys.modules`` in a fresh
    interpreter."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "%s\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n" % statement)
    out = subprocess.run([sys.executable, "-c", script], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
    return set(json.loads(out.stdout))


class TestImportFootprint:
    def test_scan_loads_only_what_it_uses(self):
        loaded = loaded_by("from nplabel import search, treescan")
        assert {"nplabel.search", "nplabel.treescan"} <= loaded
        unused = {"nplabel.families", "nplabel.labelers", "nplabel.numtheory",
                  "nplabel.fileio", "nplabel.cli", "dataclasses", "inspect"}
        assert not loaded & unused

    def test_cli_defers_the_scan(self):
        loaded = loaded_by("import nplabel.cli")
        assert "nplabel.labelers" in loaded
        assert "nplabel.treescan" not in loaded
        assert "nplabel.search" not in loaded
        assert not loaded & {"dataclasses", "inspect"}

    def test_package_loads_no_submodule(self):
        loaded = loaded_by("import nplabel")
        assert "nplabel" in loaded
        assert not [m for m in loaded if m.startswith("nplabel.")]


class TestExports:
    def test_names_pinned(self):
        assert len(nplabel.__all__) == 51
        assert nplabel.__all__ == sorted(n for names in EXPORTS.values() for n in names)

    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items()
                                              for n in names])
    def test_name_is_the_submodule_object(self, module, name):
        defined = getattr(importlib.import_module("nplabel." + module), name)
        assert getattr(nplabel, name) is defined

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from nplabel import *", namespace)
        assert set(nplabel.__all__) <= set(namespace)
        assert all(namespace[n] is getattr(nplabel, n) for n in nplabel.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nplabel.no_such_name
        with pytest.raises(ImportError):
            exec("from nplabel import no_such_name", {})


def referenced_names(statement):
    """Every name a statement reads: names, attributes, imported names, and
    the last part of a dotted ``"nplabel.x.y"`` string, which is how the
    benchmark names what it traces.  Other strings (docstrings) are not
    read."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("nplabel.")):
            names.add(node.value.rsplit(".", 1)[-1])
    return names


class TestProgramReferences:
    def test_test_only_names_pinned(self):
        # top-level functions and classes, private ones included (dunders
        # aside), that nothing else in the program reads: no other module of
        # src/nplabel or perfbench/, and no other top-level statement of
        # their own module.  These three are the oracle and the cross-checks
        # the tests compare against; a new one is code that only tests run.
        statements = []  # (defined in src/nplabel, statement, names it reads)
        for pattern in (os.path.join(SRC, "nplabel", "*.py"),
                        os.path.join(PERFBENCH, "*.py")):
            for path in glob.glob(pattern):
                with open(path) as fh:
                    statements += [(pattern.startswith(SRC), node, referenced_names(node))
                                   for node in ast.parse(fh.read()).body]
        unread = {
            node.name for in_src, node, _ in statements
            if in_src and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and not any(node.name in names for _, other, names in statements
                        if other is not node)
        }
        assert unread == {"brute_force_oracle", "crosscheck_tree_counts", "extend_pendant"}


RECORDS = [
    (Violation(2, (4, 6), 2), "vertex"),
    (VerificationReport(True, (), 3), "ok"),
    (FamilySpec("gear", (7,)), "args"),
    (SearchConfig(), "node_budget"),
    (SearchOutcome("found", (1, 2), 2), "status"),
    (SizeResult(1, 1, 1, (), (), 0.0), "nodes"),
    (ConjectureReport(1, ()), "rows"),
]


class TestRecords:
    @pytest.mark.parametrize("record, field", RECORDS,
                             ids=[type(r).__name__ for r, _ in RECORDS])
    def test_fields_are_read_only(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.new_attribute = None
        assert getattr(record, field) == before

    def test_search_config_checks(self):
        assert SearchConfig(5) == (5,)
        assert SearchConfig()._replace(node_budget=7) == SearchConfig(7)
        assert SearchConfig._fields == ("node_budget",)
        with pytest.raises(TypeError):
            SearchConfig(5, True)  # a stale find_all argument

    @pytest.mark.parametrize("budget", [None, 0, -1, 2.5, True, "5"])
    def test_search_config_budget_is_a_positive_int(self, budget):
        message = re.escape("node_budget must be an int >= 1, got %r" % (budget,))
        with pytest.raises(UsageError, match=message):
            SearchConfig(budget)
        with pytest.raises(UsageError, match=message):
            SearchConfig()._replace(node_budget=budget)

    def test_family_spec_repr(self):
        assert repr(FamilySpec("gear", (7,))) == "FamilySpec(kind='gear', args=(7,))"

    def test_search_config_repr(self):
        assert repr(SearchConfig()) == "SearchConfig(node_budget=10000000)"

    def test_defaults(self):
        assert SearchOutcome("exhausted", None, 5).all_solutions is None
        row = SizeResult(3, 1, 1, (), (), 0.5)
        assert (row.failure_graphs, row.nodes, row.core_searches, row.steps) == ((), 0, 0, 0)
        assert SearchOutcome("found", (1,), 0).steps == 0

    def test_scan_rows_unchanged(self, monkeypatch):
        # every local search gets its 1/64 share and no depth-first search
        # gets a budget below 1
        shares, budgets = [], []
        local, kernel = search._local_search, search._backtrack

        def local_checked(g, max_steps):
            shares.append(max_steps)
            return local(g, max_steps)

        def checked(g, order, budget, find_all):
            budgets.append(budget)
            return kernel(g, order, budget, find_all)

        monkeypatch.setattr(search, "_local_search", local_checked)
        monkeypatch.setattr(search, "_backtrack", checked)
        rows = [(r.n, r.tree_count, r.solved_count, r.failures, r.inconclusive,
                 r.failure_graphs, r.nodes, r.core_searches, r.steps)
                for r in scan_conjecture(12).rows]
        assert rows == [
            (1, 1, 1, (), (), (), 0, 1, 0),
            (2, 1, 1, (), (), (), 0, 1, 0),
            (3, 1, 1, (), (), (), 0, 1, 0),
            (4, 2, 2, (), (), (), 0, 1, 0),
            (5, 3, 3, (), (), (), 0, 1, 0),
            (6, 6, 6, (), (), (), 0, 1, 3),
            (7, 11, 11, (), (), (), 0, 2, 2),
            (8, 23, 23, (), (), (), 0, 2, 5),
            (9, 47, 47, (), (), (), 0, 4, 21),
            (10, 106, 106, (), (), (), 0, 8, 63),
            (11, 235, 235, (), (), (), 0, 10, 50),
            (12, 551, 551, (), (), (), 0, 22, 189),
        ]
        assert shares == [SearchConfig().node_budget // 64] * 54  # one per core shape
        assert budgets == []  # the local search labels every core
        # at a budget of 64 the local search gets 1 step; when that fails,
        # the depth-first search gets the 63 left
        scan_conjecture(9, SearchConfig(node_budget=64))
        assert budgets and set(budgets) == {63}

    def test_equal_to_plain_tuple(self):
        assert FamilySpec("gear", (7,)) == ("gear", (7,))
        assert Violation(2, (4, 6), 2) == (2, (4, 6), 2)
