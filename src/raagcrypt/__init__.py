"""Right-angled Artin group toolkit.

Graphs double as group presentations: vertices are generators and edges
are commutation relations. On top of the linear-time word-problem solver
sit two threshold secret-sharing schemes whose shares are columns of
words (decoded with the holder's relator graph, though today length
parity alone gives every bit away: see ``raag.sample_nontrivial_word``)
and two challenge-response authentication schemes built on graph
homomorphism and induced subgraph isomorphism.
"""

from .graphs import (
    GraphError,
    SearchBudgetExceeded,
    SimplicialGraph,
    VertexMap,
    VertexSubset,
    find_graph_homomorphism,
    find_induced_subgraph_isomorphism,
    induced_subgraph,
    parse_graph,
    format_graph,
    random_graph,
    validate_graph,
    verify_graph_homomorphism,
    verify_induced_subgraph_isomorphism,
)
from .raag import (
    OracleBoundError,
    Piling,
    Raag,
    empty_piling,
    is_trivial,
    oracle_is_trivial,
    push_letter,
    sample_nontrivial_word,
    sample_trivial_word,
)
from .words import (
    Letter,
    Word,
    WordError,
    concat,
    exponent_sums,
    format_word,
    free_reduce,
    invert,
    parse_word,
)

__version__ = "0.1.0"
