"""Exact search and certification toolkit for super edge-magic labelings.

Decides and witnesses super edge-magic labelings, computes the super
edge-magic deficiency and the strength of a graph, searches graceful /
boundary-valuation / harmonious / sequential labelings, computes minimum
pairwise-sum spans of well-spread sets, and emits machine-checkable
certificates of infinite deficiency.
"""

from .graphs import (
    Graph,
    Graph6Error,
    bipartition,
    build_complete,
    build_cycle,
    build_family,
    build_lower_bound_witness,
    build_path,
    build_prism,
    build_star,
    canonical_form,
    emit_graph6,
    enumerate_k_minus,
    enumerate_trees,
    is_caterpillar,
    is_connected,
    is_tree,
    parse_graph6,
)
from .labelings import (
    DuplicateSumsError,
    Labeling,
    LabelingError,
    NonConsecutiveSumsError,
    NotBijectiveError,
    SemCertificate,
    gap,
    is_consecutive,
    label_domain,
    recheck_sem_certificate,
    strength_of_numbering,
    sum_set,
    verify_alpha,
    verify_graceful,
    verify_harmonious,
    verify_sem,
    verify_sequential,
)
from .search import (
    DeficiencyResult,
    SearchBudget,
    SearchBudgetExceeded,
    deficiency,
    deficiency_upper_via_alpha,
    find_alpha_valuation,
    find_harmonious,
    find_sem_labeling,
    find_sequential,
    strength,
)
from .sidon import (
    EXACT_RHO_STAR,
    CertificateError,
    InfinityCertificate,
    certify_infinite_deficiency,
    is_ws_set,
    kotzig_lower_bound,
    max_clique,
    pairwise_sum_span,
    recheck_infinity_certificate,
    rho_star,
    rho_star_lower_bound,
)
from .bounds import (
    LnBracket,
    PrismBoundRow,
    j_threshold,
    l_bracket,
    l_lower_bound,
    prism_bounds,
)

__version__ = "0.1.0"
