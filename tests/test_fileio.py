import hashlib
import re
import tracemalloc

import pytest

from nplabel import families
from nplabel.errors import ParseError
from nplabel.fileio import (
    parse_edge_list,
    parse_labels,
    to_dot,
    write_edge_list,
    write_labels,
)
from nplabel.families import gear_graph, parse_family, generate
from nplabel.graph import Graph, verify
from nplabel.labelers import label_gear


class TestParseEdgeList:
    def test_p3(self):
        g = parse_edge_list("3 2\n1 2\n2 3\n")
        assert g == Graph(3, [(1, 2), (2, 3)])

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n\n3 2\n1 2\n\n# middle\n2 3\n")
        assert g.n == 3

    def test_duplicate_edge_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3 2\n1 2\n1 2\n")
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: duplicate edge (1,2)"

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3\n1 2\n")
        assert exc.value.line == 1

    def test_non_integer_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("three 2\n1 2\n2 3\n")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("3 2\n1 2\n2 4\n")
        assert exc.value.line == 3

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n2 1\n2 3\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n1 2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("")


class TestLabels:
    def test_write(self):
        assert write_labels([2, 1, 3]) == "2\n1\n3\n"

    def test_parse(self):
        assert parse_labels("2\n1\n3\n") == [2, 1, 3]
        assert parse_labels("# header\n2\n\n1\n3\n") == [2, 1, 3]

    def test_parse_bad_value(self):
        with pytest.raises(ParseError) as exc:
            parse_labels("2\nx\n3\n")
        assert exc.value.line == 2

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            parse_labels("# nothing\n")


def test_label_write_and_check_peaks():
    # 40,001 labels: writing them takes one format operation and checking
    # the bijection builds no second list of n ints, so each peaks under 1 MB
    g = gear_graph(20000)
    labels = label_gear(20000)
    peaks = []
    for step in (lambda: write_labels(labels), lambda: verify(g, labels).ok):
        tracemalloc.start()
        try:
            assert step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1 << 20, peaks


class TestRoundTrips:
    def test_edge_list_round_trip(self):
        for family in ("gear:5", "snake:4,3", "mobius:4", "spider:1,2,3"):
            g = generate(parse_family(family))
            assert parse_edge_list(write_edge_list(g)) == g

    def test_labels_round_trip(self):
        labels = list(range(1, 12))
        assert parse_labels(write_labels(labels)) == labels


# sha256 prefixes of write_edge_list(g) and to_dot(g): one README example per
# kind, then large members of the kinds the family-label benchmark runs.  They
# pin the edge order, which a round trip does not.
GOLDEN_OUTPUT = [
    ("path:9", "aac734d206ca5c17", "0efe31069b5f3ca2"),
    ("cycle:6", "4ef067949de35567", "fb0b335525be51ca"),
    ("gear:7", "f9003a34291b8449", "2945cbaa3044ea28"),
    ("snake:9,3", "d2ec446fb2125de0", "a1663bd88a3bdb89"),
    ("stargon:4,3", "49ff976f6545ac3f", "8761a3a1092812d7"),
    ("book:3,6", "984c7c963d6b554c", "6e6a003f034ca16d"),
    ("book5:6", "af1cb7421786cc12", "d13895d9f8f1c566"),
    ("mobius:6", "855a9849a4f09f0d", "9c2d2cbd214b23ff"),
    ("caterpillar:0,2,1", "7eb70a7dfbd3459e", "6552814b7cc7f1da"),
    ("spider:2,2,4,4,4,6", "aacb1272c8b03c10", "76bdff57c0f4de5f"),
    ("banana:3,6", "57bf23bbd443aa26", "e8c39d937b3b53e4"),
    ("firecracker:6,3", "ebfed13f32f3b1e5", "e06b6f8905580478"),
    ("fullbinary:1100100", "e7e871af76f34575", "f592e5ee7dda1edb"),
    ("kary:3,1000", "6a7e04d7810caeda", "4f25dc7071f03f26"),
    ("cayley:4,11000000", "ddac0f1af8533a65", "3b75845e6f2f090b"),
    ("completebinary:15", "18642be72601aa2d", "d7377f3103de3725"),
    ("randomtree:20,7", "4aea7f0e51f46f66", "3f60113ec2423e49"),
    ("gear:20000", "d0c1b37576f4098b", "e9f1de327ca1bc0f"),
    ("stargon:5,3000", "d53f764d73dfbe78", "4725b2baa694dde2"),
    ("snake:2000,5", "f0bf5c870e74ed51", "596be7a4ad0e0a16"),
    ("banana:200,50", "a32bbae38c5f0d4e", "959278c7062c171c"),
    ("completebinary:30000", "3f969caee7f40db1", "c8278780e50fa437"),
    ("firecracker:1946,3", "558be8d5e8dde1bc", "edddecef4e7c5897"),
]


class TestGoldenOutput:
    def test_every_kind_pinned(self):
        assert {spec.partition(":")[0] for spec, _, _ in GOLDEN_OUTPUT} == set(
            families._FAMILIES)

    @pytest.mark.parametrize("spec, edge_list, dot", GOLDEN_OUTPUT)
    def test_digests(self, spec, edge_list, dot):
        g = generate(parse_family(spec))
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (digest(write_edge_list(g)), digest(to_dot(g))) == (edge_list, dot)


class TestDot:
    def test_plain_graph(self):
        text = to_dot(Graph(2, [(1, 2)]))
        assert "graph G {" in text
        assert "v1 -- v2;" in text

    def test_gear_has_all_vertices(self):
        g = gear_graph(3)
        text = to_dot(g)
        for v in range(1, 8):
            assert ("v%d" % v) in text


# input checks, each with the text, the error and its message
INPUT_CHECKS = [
    ("0 0\n", ParseError, "line 1: need n >= 1 and m >= 0"),
    ("3 -1\n", ParseError, "line 1: need n >= 1 and m >= 0"),
    ("3 2\n1 2 3\n2 3\n", ParseError, "line 2: edge line must be 'u v'"),
    ("3 2\n1 x\n2 3\n", ParseError, "line 2: edge endpoints must be integers"),
    # a vertex count too large to hold is refused before anything is
    # allocated, on the header line
    ("# huge\n4611686018427387904 0\n", ParseError,
     "line 2: vertex count 4611686018427387904 is too large to hold"),
]


@pytest.mark.parametrize("text, error, message", INPUT_CHECKS,
                         ids=[repr(text) for text, _, _ in INPUT_CHECKS])
def test_input_checks(text, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        parse_edge_list(text)
