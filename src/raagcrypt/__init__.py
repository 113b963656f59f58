"""Right-angled Artin group toolkit.

Graphs double as group presentations: vertices are generators and edges
are commutation relations. On top of the linear-time word-problem solver
sit two threshold secret-sharing schemes whose shares are columns of
words (decoded with the holder's relator graph, though today length
parity alone gives every bit away: see ``raag.sample_nontrivial_word``)
and two challenge-response authentication schemes built on graph
homomorphism and induced subgraph isomorphism. Each public name is
imported from the module whose ``__all__`` lists it, such as
``raagcrypt.graphs``; importing the package alone loads no module.
"""

__version__ = "0.1.0"
