"""Neighborhood-prime labelings: constructors, constructive labelers,
verifier, exact search, and an exhaustive conjecture scan over small trees.
"""

from .errors import (
    InvalidSpec,
    LabelingInvalid,
    NPLabelError,
    ParseError,
    PreconditionViolated,
    UnsupportedParameters,
    UnsupportedStructure,
    UsageError,
)
from .graph import (
    Graph,
    VerificationReport,
    Violation,
    gcd_of,
    is_tree,
    neighborhood,
    verify,
)
from .families import FamilySpec, generate, parse_family, random_tree
from .labelers import (
    HEAD_MIN,
    INTERIOR_MIN,
    contract_one_max,
    extend_pendant,
    label_banana,
    label_bivalent_free,
    label_book,
    label_book5,
    label_caterpillar,
    label_firecracker,
    label_full_binary,
    label_gear,
    label_mobius,
    label_path,
    label_snake,
    label_spider,
    label_star_gon,
    shifted_path_labels,
    snake_supported,
)
from .numtheory import CoprimeMatching, bertrand_prime, coprime_matching
from .search import (
    EXHAUSTED,
    FOUND,
    INCONCLUSIVE,
    SearchConfig,
    SearchOutcome,
    brute_force_oracle,
    find_labeling,
    kernel_name,
)
from .treescan import (
    ConjectureReport,
    ahu_canonical,
    enumerate_free_trees,
    enumerate_free_trees_by_extension,
    scan_conjecture,
)

__version__ = "0.1.0"
