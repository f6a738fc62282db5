"""Command-line entry point wiring the generators, labelers, verifier,
searcher and conjecture scanner together."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .errors import NPLabelError, UnsupportedParameters, UnsupportedStructure
from .families import generate, parse_family
from .graph import verify
from . import labelers
from .numtheory import coprime_matching
from .search import (
    EXHAUSTED,
    FOUND,
    INCONCLUSIVE,
    ORDER_DEGREE,
    ORDER_NATURAL,
    SearchConfig,
    find_labeling,
)
from .treescan import scan_conjecture

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2
EXIT_INCONCLUSIVE = 3


def _cmd_gen(ns) -> int:
    g = generate(parse_family(ns.family))
    text = fileio.write_edge_list(g)
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)
    if ns.dot:
        Path(ns.dot).write_text(fileio.to_dot(g))
    return EXIT_OK


def _cmd_label(ns) -> int:
    spec = parse_family(ns.family)
    g = generate(spec)
    labels = labelers.label_family(spec, g)
    report = verify(g, labels)
    if not report.ok:
        print("UNVERIFIED: internal labeling failed verification", file=sys.stderr)
        return EXIT_ERROR
    text = fileio.write_labels(labels)
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)
    if ns.graph_out:
        Path(ns.graph_out).write_text(fileio.write_edge_list(g))
    print("VERIFIED")
    return EXIT_OK


def _cmd_verify(ns) -> int:
    g = fileio.parse_edge_list(Path(ns.graph).read_text())
    labels = fileio.parse_labels(Path(ns.labels).read_text())
    report = verify(g, labels)
    if report.ok:
        print("OK checked=%d" % report.checked_count)
        return EXIT_OK
    print("FAIL checked=%d violations=%d" % (report.checked_count, len(report.violations)))
    for v in report.violations:
        print(
            "  vertex %d: neighbor labels %s, gcd %d"
            % (v.vertex, list(v.neighbor_labels), v.gcd_value)
        )
    return EXIT_ERROR


def _cmd_search(ns) -> int:
    g = fileio.parse_edge_list(Path(ns.graph).read_text())
    order = ORDER_DEGREE if ns.order == "deg" else ORDER_NATURAL
    cfg = SearchConfig(node_budget=ns.budget, order=order, find_all=ns.all)
    outcome = find_labeling(g, cfg)
    print("%s nodes=%d" % (outcome.status.upper(), outcome.nodes_explored))
    if outcome.status == FOUND and not ns.all:
        sys.stdout.write(fileio.write_labels(outcome.labeling))
    if ns.all and outcome.all_solutions:
        print("solutions=%d" % len(outcome.all_solutions))
        for sol in outcome.all_solutions:
            print(" ".join(str(x) for x in sol))
    if outcome.status == FOUND:
        return EXIT_OK
    if outcome.status == EXHAUSTED:
        return EXIT_EXHAUSTED
    return EXIT_INCONCLUSIVE


def _cmd_scan_trees(ns) -> int:
    cfg = SearchConfig(node_budget=ns.budget)
    report = scan_conjecture(ns.max_n, cfg, jobs=ns.jobs)
    sys.stdout.write(report.table())
    if ns.fail_dir:
        fail_dir = Path(ns.fail_dir)
        fail_dir.mkdir(parents=True, exist_ok=True)
        for row in report.rows:
            for i, g in enumerate(row.failure_graphs):
                path = fail_dir / ("counterexample_n%d_%d.el" % (row.n, i))
                path.write_text(fileio.write_edge_list(g))
    if not report.conjecture_holds:
        print("COUNTEREXAMPLE FOUND", file=sys.stderr)
        return EXIT_ERROR
    unsettled = sum(len(row.inconclusive) for row in report.rows)
    if unsettled:
        print("INCONCLUSIVE: %d trees unsettled within the node budget" % unsettled,
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_match_coprime(ns) -> int:
    m = coprime_matching(ns.n)
    for x in range(1, ns.n + 1):
        print("%d %d" % (x, m[x]))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nplabel",
        description="Neighborhood-prime labelings: generate, label, verify, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.add_argument("--dot")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("label", help="run the constructive labeler for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.add_argument("--graph-out", dest="graph_out")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("verify", help="verify a labeling against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exact backtracking search for a labeling")
    p.add_argument("--graph", required=True)
    p.add_argument("--budget", type=int, default=SearchConfig().node_budget)
    p.add_argument("--all", action="store_true")
    p.add_argument("--order", choices=["deg", "nat"], default="deg")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scan-trees", help="conjecture scan over all small trees")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=SearchConfig().node_budget)
    p.add_argument("--fail-dir", dest="fail_dir")
    p.set_defaults(func=_cmd_scan_trees)

    p = sub.add_parser("match-coprime", help="print the coprime matching pairs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_match_coprime)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (UnsupportedParameters, UnsupportedStructure) as exc:
        print("error: %s (fallback: nplabel search)" % exc, file=sys.stderr)
        return EXIT_ERROR
    except NPLabelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
