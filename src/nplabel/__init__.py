"""Neighborhood-prime labelings: constructors, constructive labelers,
verifier, exact search, and an exhaustive conjecture scan over small trees.

Every public name below resolves on first use: ``import nplabel`` loads no
submodule, and ``nplabel.find_labeling`` imports :mod:`nplabel.search` (and
what it imports) the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "InvalidSpec": "errors",
    "LabelingInvalid": "errors",
    "NPLabelError": "errors",
    "ParseError": "errors",
    "PreconditionViolated": "errors",
    "UnsupportedParameters": "errors",
    "UnsupportedStructure": "errors",
    "UsageError": "errors",
    "Graph": "graph",
    "VerificationReport": "graph",
    "Violation": "graph",
    "is_tree": "graph",
    "verify": "graph",
    "FamilySpec": "families",
    "generate": "families",
    "parse_family": "families",
    "random_tree": "families",
    "HEAD_MIN": "labelers",
    "INTERIOR_MIN": "labelers",
    "contract_one_max": "labelers",
    "extend_pendant": "labelers",
    "label_banana": "labelers",
    "label_bivalent_free": "labelers",
    "label_book": "labelers",
    "label_book5": "labelers",
    "label_caterpillar": "labelers",
    "label_firecracker": "labelers",
    "label_full_binary": "labelers",
    "label_gear": "labelers",
    "label_mobius": "labelers",
    "label_path": "labelers",
    "label_snake": "labelers",
    "label_spider": "labelers",
    "label_star_gon": "labelers",
    "shifted_path_labels": "labelers",
    "bertrand_prime": "numtheory",
    "coprime_matching": "numtheory",
    "EXHAUSTED": "search",
    "FOUND": "search",
    "INCONCLUSIVE": "search",
    "SearchConfig": "search",
    "SearchOutcome": "search",
    "all_labelings": "search",
    "brute_force_oracle": "search",
    "find_labeling": "search",
    "kernel_name": "search",
    "ConjectureReport": "treescan",
    "ahu_canonical": "treescan",
    "enumerate_free_trees": "treescan",
    "enumerate_free_trees_by_extension": "treescan",
    "scan_conjecture": "treescan",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines ``name`` and cache the value here,
    so later reads are plain module attributes (PEP 562)."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
