import argparse
import os
import resource
import subprocess
import sys

import pytest

import nplabel
from nplabel import cli, labelers, search
from nplabel.cli import (
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    main,
)
from nplabel.fileio import parse_edge_list, parse_labels, write_edge_list, write_labels
from nplabel.families import cycle_graph, gear_graph
from nplabel.graph import Graph, verify
from nplabel import treescan
from nplabel.search import EXHAUSTED, FOUND, INCONCLUSIVE, SearchConfig, SearchOutcome

SRC = os.path.dirname(os.path.dirname(nplabel.__file__))

# run the CLI on argv[1:], then print the peak bytes it allocated
REPORT_PEAK = """import sys, tracemalloc
from nplabel.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""

# run the CLI on argv[1:] and exit with its code
RUN_MAIN = """import sys
from nplabel.cli import main
sys.exit(main(sys.argv[1:]))
"""

# the irreducible core ((((()))((())))(((())))(((())))(((())))) on 20
# vertices, numbered in preorder from its center
HARD_CORE = Graph(20, [(1, 2), (1, 9), (1, 13), (1, 17), (2, 3), (2, 6), (3, 4),
                       (4, 5), (6, 7), (7, 8), (9, 10), (10, 11), (11, 12), (13, 14),
                       (14, 15), (15, 16), (17, 18), (18, 19), (19, 20)])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "gear:3")
        assert code == EXIT_OK
        assert parse_edge_list(out) == gear_graph(3)

    def test_to_file_and_dot(self, capsys, tmp_path):
        el = tmp_path / "g.el"
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "gen", "--family", "mobius:4", "--out", str(el), "--dot", str(dot))
        assert code == EXIT_OK
        assert parse_edge_list(el.read_text()).n == 8
        assert dot.read_text().startswith("graph G {")

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "wheel:5")
        assert code == EXIT_ERROR
        assert "error:" in err


class TestLabel:
    def test_gear4_swap_and_verified_line(self, capsys):
        code, out, _ = run(capsys, "label", "--family", "gear:4")
        assert code == EXIT_OK
        assert "VERIFIED" in out
        labels = parse_labels(out.replace("VERIFIED", ""))
        assert labels == [1, 2, 3, 4, 5, 6, 9, 8, 7]

    def test_labels_verify_against_generated_graph(self, capsys, tmp_path):
        lab = tmp_path / "x.lab"
        gr = tmp_path / "x.el"
        code, _, _ = run(
            capsys, "label", "--family", "snake:5,4",
            "--out", str(lab), "--graph-out", str(gr),
        )
        assert code == EXIT_OK
        g = parse_edge_list(gr.read_text())
        assert verify(g, parse_labels(lab.read_text())).ok

    def test_unsupported_suggests_search(self, capsys):
        code, _, err = run(capsys, "label", "--family", "snake:6,4")
        assert code == EXIT_ERROR
        assert "search" in err

    @pytest.mark.parametrize(
        "spec", ["path:abc", "gear:x", "caterpillar:1,x", "book:5", "firecracker:3"]
    )
    def test_malformed_spec_is_an_error(self, capsys, spec):
        code, out, err = run(capsys, "label", "--family", spec)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen", "label"])
    @pytest.mark.parametrize("spec", ["kary", "kary:", "kary:,", "cayley", "cayley:,,"])
    def test_missing_shape_is_an_error(self, capsys, command, spec):
        code, out, err = run(capsys, command, "--family", spec)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: expected a shape bit-string parameter\n"

    def test_quadrilateral_book_is_labeled(self, capsys):
        code, out, _ = run(capsys, "label", "--family", "book:4,3")
        assert code == EXIT_OK
        assert "VERIFIED" in out
        assert parse_labels(out.replace("VERIFIED", "")) == list(range(1, 9))

    def test_no_labeler_for_cycles(self, capsys):
        code, _, err = run(capsys, "label", "--family", "cycle:5")
        assert code == EXIT_ERROR
        assert "search" in err

    @pytest.mark.parametrize("spec", ["snake:6,4", "cycle:5", "randomtree:5,1"])
    def test_search_hint_given_once(self, capsys, spec):
        code, out, err = run(capsys, "label", "--family", spec)
        assert code == EXIT_ERROR
        assert out == ""
        assert err.count("search") == 1
        assert err.endswith(" (fallback: nplabel search)\n")

    def test_unverified_labeling_is_not_written(self, capsys, tmp_path, monkeypatch):
        # P4 labelled 2, 1, 4, 3 along the path: vertex 2 sees 2 and 4
        monkeypatch.setattr(labelers, "label_family", lambda spec, g: [2, 1, 4, 3])
        lab = tmp_path / "x.lab"
        code, out, err = run(capsys, "label", "--family", "path:4", "--out", str(lab))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "UNVERIFIED: internal labeling failed verification\n"
        assert not lab.exists()

    def test_star_gon_builds_two_graphs(self, capsys, monkeypatch):
        # the star-gon from generate, then the snake S_{5,31} that the
        # contraction lemma starts from; the contracted graph is not built
        built = []
        store = Graph._store

        def counting(self, n, m, adj):
            built.append(n)
            store(self, n, m, adj)

        monkeypatch.setattr(Graph, "_store", counting)
        code, out, _ = run(capsys, "label", "--family", "stargon:5,30")
        assert code == EXIT_OK
        assert out.endswith("VERIFIED\n")
        assert built == [120, 121]


class TestVerify:
    def test_ok(self, capsys, tmp_path):
        g = tmp_path / "p3.el"
        lab = tmp_path / "p3.lab"
        g.write_text("3 2\n1 2\n2 3\n")
        lab.write_text("2\n1\n3\n")
        code, out, _ = run(capsys, "verify", "--graph", str(g), "--labels", str(lab))
        assert code == EXIT_OK
        assert out.startswith("OK")

    def test_violations_listed(self, capsys, tmp_path):
        g = tmp_path / "c4.el"
        lab = tmp_path / "c4.lab"
        g.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")
        lab.write_text("1\n2\n3\n4\n")
        code, out, _ = run(capsys, "verify", "--graph", str(g), "--labels", str(lab))
        assert code == EXIT_ERROR
        assert "violations=2" in out

    def test_non_bijection(self, capsys, tmp_path):
        g = tmp_path / "p3.el"
        lab = tmp_path / "bad.lab"
        g.write_text("3 2\n1 2\n2 3\n")
        lab.write_text("1\n1\n2\n")
        code, _, err = run(capsys, "verify", "--graph", str(g), "--labels", str(lab))
        assert code == EXIT_ERROR
        assert "bijection" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--graph", str(tmp_path / "no.el"),
            "--labels", str(tmp_path / "no.lab"),
        )
        assert code == EXIT_ERROR
        assert "error:" in err

    @pytest.mark.parametrize("bad", ["graph", "labels"])
    def test_not_utf8(self, capsys, tmp_path, bad):
        files = {"graph": tmp_path / "p3.el", "labels": tmp_path / "p3.lab"}
        files["graph"].write_text("3 2\n1 2\n2 3\n")
        files["labels"].write_text("2\n1\n3\n")
        files[bad].write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "verify", "--graph", str(files["graph"]),
                             "--labels", str(files["labels"]))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: %s is not UTF-8 text" % files[bad])
        assert err.count("\n") == 1

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        # Windows editors, and PowerShell 5's Out-File -Encoding utf8, start a
        # UTF-8 file with a byte-order mark; verify and search read past it
        g, lab, plain = tmp_path / "p3.el", tmp_path / "p3.lab", tmp_path / "plain.el"
        plain.write_text("3 2\n1 2\n2 3\n")
        g.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        lab.write_bytes(b"\xef\xbb\xbf2\n1\n3\n")
        assert run(capsys, "verify", "--graph", str(g), "--labels", str(lab)) == (
            EXIT_OK, "OK checked=1\n", "")
        found = run(capsys, "search", "--graph", str(g))
        assert found[0] == EXIT_OK
        assert found == run(capsys, "search", "--graph", str(plain))


class TestSearch:
    def test_not_utf8(self, capsys, tmp_path):
        g = tmp_path / "bad.el"
        g.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "search", "--graph", str(g))
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: %s is not UTF-8 text" % g)
        assert err.count("\n") == 1

    def test_c6_exhausted_exit_2(self, capsys, tmp_path):
        g = tmp_path / "c6.el"
        g.write_text(write_edge_list(cycle_graph(6)))
        code, out, _ = run(capsys, "search", "--graph", str(g))
        assert code == EXIT_EXHAUSTED
        assert out.startswith("EXHAUSTED")

    def test_c5_found_labels_printed(self, capsys, tmp_path):
        g = tmp_path / "c5.el"
        g.write_text(write_edge_list(cycle_graph(5)))
        code, out, _ = run(capsys, "search", "--graph", str(g))
        assert code == EXIT_OK
        labels = parse_labels("\n".join(out.splitlines()[1:]))
        assert verify(cycle_graph(5), labels).ok

    def test_budget_inconclusive_exit_3(self, capsys, tmp_path):
        g = tmp_path / "c12.el"
        g.write_text(write_edge_list(cycle_graph(12)))
        code, out, _ = run(capsys, "search", "--graph", str(g), "--budget", "3")
        assert code == EXIT_INCONCLUSIVE
        assert out.startswith("INCONCLUSIVE")

    @pytest.mark.parametrize("family, steps", [
        ("stargon:6,4", 194), ("stargon:8,4", 167), ("snake:9,4", 35),
        ("snake:6,4", 100), ("core20", 73)])
    def test_local_search_settles_uncovered_members(self, capsys, tmp_path, family,
                                                    steps):
        # members no closed form covers, and the hard core; the depth-first
        # search alone leaves each inconclusive at the default budget
        g, lab = tmp_path / "g.el", tmp_path / "g.lab"
        if family == "core20":
            assert treescan.ahu_canonical(HARD_CORE) == "((((()))((())))(((())))(((())))(((()))))"
            assert not treescan._strip_leaves(HARD_CORE)[0]  # irreducible
            g.write_text(write_edge_list(HARD_CORE))
        else:
            assert run(capsys, "gen", "--family", family, "--out", str(g))[0] == EXIT_OK
        code, out, _ = run(capsys, "search", "--graph", str(g))
        assert code == EXIT_OK
        head, _, labels = out.partition("\n")
        assert head == "FOUND nodes=0 steps=%d" % steps
        lab.write_text(labels)
        code, out, _ = run(capsys, "verify", "--graph", str(g), "--labels", str(lab))
        assert (code, out.split()[0]) == (EXIT_OK, "OK")

    @pytest.mark.parametrize("flags", [(), ("--all",)], ids=["find-one", "all"])
    def test_unverified_labeling_exit_1(self, capsys, tmp_path, monkeypatch, flags):
        # vertex 1 of C5 sees labels 2 and 4: a labeling no search may print
        g = tmp_path / "c5.el"
        g.write_text(write_edge_list(cycle_graph(5)))
        bad = (1, 2, 3, 5, 4)
        entry = "all_labelings" if flags else "find_labeling"
        monkeypatch.setattr(search, entry, lambda graph, cfg: SearchOutcome(
            FOUND, bad, 5, (bad,) if flags else None))
        code, out, err = run(capsys, "search", "--graph", str(g), *flags)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("UNVERIFIED")

    def test_find_all(self, capsys, tmp_path):
        g = tmp_path / "p3.el"
        g.write_text("3 2\n1 2\n2 3\n")
        code, out, _ = run(capsys, "search", "--graph", str(g), "--all")
        assert code == EXIT_OK
        assert "solutions=" in out

    def test_find_all_exhausted_reports_zero(self, capsys, tmp_path):
        g = tmp_path / "c6.el"
        g.write_text(write_edge_list(cycle_graph(6)))
        code, out, _ = run(capsys, "search", "--graph", str(g), "--all")
        assert code == EXIT_EXHAUSTED
        assert "solutions=0" in out.splitlines()


class TestScanTrees:
    def test_small_scan(self, capsys):
        code, out, _ = run(capsys, "scan-trees", "--max-n", "5")
        assert code == EXIT_OK
        assert "trees" in out

    def test_fail_dir_created_empty(self, capsys, tmp_path):
        fail = tmp_path / "bad"
        code, _, _ = run(
            capsys, "scan-trees", "--max-n", "4", "--fail-dir", str(fail)
        )
        assert code == EXIT_OK
        assert list(fail.iterdir()) == []

    def test_budget_starvation_exits_inconclusive(self, capsys):
        code, out, err = run(capsys, "scan-trees", "--max-n", "6", "--budget", "2")
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in err

    def test_exhausted_tree_wins_over_inconclusive(self, capsys, monkeypatch, tmp_path):
        # every search gives up except on the 6-vertex path, which "exhausts"
        def fake(g, cfg=SearchConfig()):
            if g.n == 6 and len(g.edges) == 5 and max(map(len, g.adj)) == 2:
                return SearchOutcome(EXHAUSTED, None, 1)
            return SearchOutcome(INCONCLUSIVE, None, 1)

        monkeypatch.setattr(treescan, "find_labeling", fake)
        fail = tmp_path / "bad"
        code, _, err = run(
            capsys, "scan-trees", "--max-n", "6", "--fail-dir", str(fail)
        )
        assert code == EXIT_ERROR
        assert "COUNTEREXAMPLE" in err
        assert [p.name for p in fail.iterdir()] == ["counterexample_n6_0.el"]


class TestUsageErrors:
    # argparse exits 2 on its own, which would read as "search exhausted"
    def test_option_table(self, capsys, tmp_path):
        # every subcommand's options, so that one added or dropped shows up
        sub, = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        options = {name: [s for a in p._actions for s in a.option_strings
                          if s not in ("-h", "--help")]
                   for name, p in sub.choices.items()}
        assert options == {
            "gen": ["--family", "--out", "--dot"],
            "label": ["--family", "--out", "--graph-out"],
            "verify": ["--graph", "--labels"],
            "search": ["--graph", "--budget", "--all"],
            "scan-trees": ["--max-n", "--budget", "--fail-dir"],
            "match-coprime": ["--n"],
        }
        # a dropped option is a usage error: exit 1, never 2 ("exhausted")
        g = tmp_path / "c5.el"
        g.write_text(write_edge_list(cycle_graph(5)))
        code, out, err = run(capsys, "search", "--graph", str(g), "--order", "nat")
        assert (code, out) == (EXIT_ERROR, "")
        assert "--order" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == EXIT_ERROR
        assert "--graph" in err

    def test_unknown_option(self, capsys):
        code, _, err = run(capsys, "scan-trees", "--max-n", "5", "--jobs", "2")
        assert code == EXIT_ERROR
        assert "--jobs" in err

    @pytest.mark.parametrize("argv", [("search", "--budget", "0"),
                                      ("scan-trees", "--max-n", "4", "--budget", "-1")],
                             ids=["search", "scan-trees"])
    def test_budget_below_1(self, capsys, tmp_path, argv):
        g = tmp_path / "c5.el"
        g.write_text(write_edge_list(cycle_graph(5)))
        graph = ("--graph", str(g)) if argv[0] == "search" else ()
        code, out, err = run(capsys, *argv, *graph)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: node_budget must be an int >= 1, got %s\n" % argv[-1]

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "usage: nplabel" in out


class TestMatchCoprime:
    def test_pairs_printed(self, capsys):
        code, out, _ = run(capsys, "match-coprime", "--n", "3")
        assert code == EXIT_OK
        assert out.splitlines() == ["1 7", "2 9", "3 8"]

    def test_guard(self, capsys):
        code, _, err = run(capsys, "match-coprime", "--n", "0")
        assert code == EXIT_ERROR
        assert "error:" in err


class TestSizeTooLarge:
    # 2^62 and 2^64 are refused by CPython before anything is allocated:
    # 2^62 list slots or bits overflow the address space (MemoryError), and
    # 2^64 does not fit a C ssize_t (OverflowError)
    @pytest.mark.parametrize("command", ["search", "verify"])
    @pytest.mark.parametrize("n", ["4611686018427387904", "18446744073709551616"])
    def test_edge_list_header(self, capsys, tmp_path, command, n):
        g = tmp_path / "huge.el"
        g.write_text("%s 0\n" % n)
        labels = tmp_path / "one.lab"
        labels.write_text("1\n")
        argv = ["--graph", str(g)] + (["--labels", str(labels)] if command == "verify" else [])
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: line 1: vertex count %s is too large to hold\n" % n

    @pytest.mark.parametrize("argv, kind", [
        (["gen", "--family", "path:4611686018427387904"], "MemoryError"),
        (["label", "--family", "gear:4611686018427387904"], "OverflowError"),
        (["match-coprime", "--n", "4611686018427387904"], "MemoryError"),
        (["gen", "--family", "path:18446744073709551616"], "OverflowError"),
    ])
    def test_family_and_matching_sizes(self, capsys, argv, kind):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: size too large to hold (%s)\n" % kind

    @pytest.mark.parametrize("family", ["completebinary:%d", "randomtree:%d,1"],
                             ids=["completebinary", "randomtree"])
    @pytest.mark.parametrize("n, kind", [(2 ** 62, "MemoryError"),
                                         (2 ** 64, "OverflowError")], ids=["2^62", "2^64"])
    def test_trees_refused_before_building(self, family, n, kind):
        # A generator that grows a list per vertex before Graph sees n would
        # run until memory ran out, so the command runs in a child capped at
        # 256 MB of address space and stopped after a few seconds.  The child
        # prints the peak it allocated: a refusal up front allocates next to
        # nothing, where a growing list reaches the cap before its MemoryError.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        done = subprocess.run(
            [sys.executable, "-c", REPORT_PEAK, "gen", "--family", family % n],
            capture_output=True, text=True, timeout=5, preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert done.returncode == EXIT_ERROR
        assert done.stderr == "error: size too large to hold (%s)\n" % kind
        assert int(done.stdout) < 1 << 20


class TestProcess:
    def test_reader_leaving_early_is_quiet(self):
        # ``label --family gear:20000 | head -1``: the labels fill the pipe
        # many times over, so writing fails once the reader has left
        with subprocess.Popen(
                [sys.executable, "-c", RUN_MAIN, "label", "--family", "gear:20000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=SRC)) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert first == b"1\n"
        assert (proc.returncode, err) == (EXIT_ERROR, b"")

    def test_python_m_nplabel(self, capsys):
        done = subprocess.run([sys.executable, "-m", "nplabel", "label", "--family", "path:5"],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert done.returncode == EXIT_OK
        assert done.stdout.endswith("VERIFIED\n")
        assert (done.stdout, done.stderr) == run(capsys, "label", "--family", "path:5")[1:]
