"""family-label: ``nplabel label`` run in-process on large family members."""

import contextlib
import io
import random
import shutil

from nplabel import cli, families, fileio, graph

from workloads import Workload

# Members that take no seed.  Each runs a different labeler; together they
# reach every closed-form labeler, the verifier and both number-theory
# routines.
FIXED_MEMBERS = (
    "gear:20000",
    "mobius:20000",
    "book5:5000",
    "stargon:5,3000",
    "snake:2000,5",
    "banana:200,50",
    "spider:" + ",".join(["40"] * 500),
    # full 3-ary tree of depth 8: (3^9 - 1) / 2 = 9841 vertices
    "kary:3," + "1" * ((3 ** 8 - 1) // 2) + "0" * 3 ** 8,
    "completebinary:30000",
)
FIRECRACKER_N = (1900, 2000)
FIRECRACKER_K = (3, 5)
CATERPILLAR_SPINE = 400
CATERPILLAR_PENDANTS = 1200

TARGETS = (
    "nplabel.cli.main",
    "nplabel.cli.generate",
    "nplabel.cli.verify",
    "nplabel.labelers.label_path",
    "nplabel.labelers.label_gear",
    "nplabel.labelers.label_snake",
    "nplabel.labelers.label_star_gon",
    "nplabel.labelers.label_book5",
    "nplabel.labelers.label_mobius",
    "nplabel.labelers.label_caterpillar",
    "nplabel.labelers.label_spider",
    "nplabel.labelers.label_banana",
    "nplabel.labelers.label_firecracker",
    "nplabel.labelers.label_full_binary",
    "nplabel.labelers.label_bivalent_free",
    "nplabel.labelers.coprime_matching",
    "nplabel.labelers.bertrand_prime",
    "nplabel.labelers.verify",
)


def build(seed, rep):
    """Two even-n and two odd-n firecrackers in the band (coprime_matching is
    slow for even n), one caterpillar with its pendants spread at random, and
    the fixed members."""
    rng = random.Random("family-label:%d:%d" % (seed, rep))
    lo, hi = FIRECRACKER_N
    evens = rng.sample(range(lo + lo % 2, hi + 1, 2), 2)
    odds = rng.sample(range(lo + 1 - lo % 2, hi + 1, 2), 2)
    members = ["firecracker:%d,%d" % (n, rng.randint(*FIRECRACKER_K))
               for n in evens + odds]
    counts = [0] * CATERPILLAR_SPINE
    for _ in range(CATERPILLAR_PENDANTS):
        counts[rng.randrange(CATERPILLAR_SPINE)] += 1
    members.append("caterpillar:" + ",".join(map(str, counts)))
    return tuple(members) + FIXED_MEMBERS


def workload(label_dir):
    """family-label writes one label file per member into ``label_dir``; the
    check reads them back and removes them."""

    def run(members):
        label_dir.mkdir(parents=True, exist_ok=True)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for i, spec in enumerate(members):
                out = label_dir / ("%d.lab" % i)
                codes.append(cli.main(["label", "--family", spec, "--out", str(out)]))
        return codes

    def check(members, codes):
        failed = len(members) - len(codes)
        vertices = 0
        try:
            for i, (spec, code) in enumerate(zip(members, codes)):
                g = families.generate(families.parse_family(spec))
                vertices += g.n
                out = label_dir / ("%d.lab" % i)
                if code != 0 or not out.exists():
                    failed += 1
                    continue
                labels = fileio.parse_labels(out.read_text())
                failed += len(labels) != g.n or not graph.verify(g, labels).ok
        finally:
            shutil.rmtree(label_dir, ignore_errors=True)
        counters = {"members": len(members), "vertices": vertices,
                    "firecrackers": list(members[:4])}
        return len(members), failed, counters

    return Workload("family-label", build, run, check, TARGETS)
