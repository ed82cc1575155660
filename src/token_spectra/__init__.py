"""Token graphs, Laplacian spectra, and exact verification certificates."""

from .graphs import (
    Graph,
    GraphError,
    KiteSpec,
    add_edges,
    build_bipartite_extension,
    build_cut_clique_join,
    build_extended_cycle,
    build_kite,
    build_standard,
    build_superkite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    remove_edges,
    star_graph,
)
from .tokens import (
    DEFAULT_CAP,
    CapExceededError,
    TokenGraph,
    token_graph,
)
from .spectra import (
    NumericalError,
    Spectrum,
    algebraic_connectivity,
    eig_sym,
    eigenspace_has_equal_pair,
    laplacian,
    theta,
)
from .exact import (
    IntPoly,
    char_poly,
    poly_divides,
)

__version__ = "0.1.0"
