"""tree-scan: the conjecture scan over every free tree on 1..14 vertices."""

from nplabel import search, treescan

from workloads import Workload

# Number of free trees on n vertices, n = 1..14 (OEIS A000055).
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)

SCAN_MAX_N = 14  # largest size the seed-state scan settles within budget


def build(seed, rep):
    return SCAN_MAX_N  # exhaustive: takes no seed


def run(max_n):
    return treescan.scan_conjecture(max_n, search.SearchConfig(), jobs=1)


def check(max_n, report):
    # An inconclusive tree counts as failed here; ConjectureReport's own
    # conjecture_holds ignores inconclusive trees.
    rows = {r.n: r for r in report.rows}
    attempted = failed = 0
    for n in range(1, max_n + 1):
        expected = A000055[n - 1]
        row = rows.get(n)
        solved = row.solved_count if row and row.tree_count == expected else 0
        attempted += expected
        failed += expected - solved
    counters = {
        "trees_per_size": [r.tree_count for r in report.rows],
        "solved": sum(r.solved_count for r in report.rows),
        "exhausted": sum(len(r.failures) for r in report.rows),
        "inconclusive": sum(len(r.inconclusive) for r in report.rows),
    }
    return attempted, failed, counters


def workload(scratch):
    return Workload("tree-scan", build, run, check,
                    ("nplabel.treescan.enumerate_free_trees",
                     "nplabel.treescan.find_labeling"))
