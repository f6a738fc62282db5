import pytest

from nplabel.cli import (
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    main,
)
from nplabel.fileio import parse_edge_list, parse_labels, write_edge_list, write_labels
from nplabel.families import cycle_graph, gear_graph
from nplabel.graph import verify
from nplabel import treescan
from nplabel.search import EXHAUSTED, INCONCLUSIVE, SearchConfig, SearchOutcome


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


class TestSearch:
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
    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "search")
        assert code == EXIT_ERROR
        assert "--graph" in err

    def test_unknown_option(self, capsys):
        code, _, err = run(capsys, "scan-trees", "--max-n", "5", "--jobs", "2")
        assert code == EXIT_ERROR
        assert "--jobs" in err

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
