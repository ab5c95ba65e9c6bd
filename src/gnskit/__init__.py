"""Upper bounds on the sum-rate of multiple-unicasts network coding.

The toolkit connects a unicast network to the side-information graph of its
dual index-coding instance and computes, approximates and cross-validates
the resulting bound chain: fractional cycle packing, acyclic maxima and
feedback sets, exact GNS cuts on the staged network, achievable
cycle-saving index codes, and minrank brackets over prime fields.
"""

from .bounds import (
    BoundReport,
    bound_report,
    mais_exact,
    min_fvs_exact,
    parse_report,
    serialize_report,
    shannon_capacity_lb,
    tensor_bound,
)
from .caps import Caps, DEFAULT_CAPS
from .cyclepack import (
    CyclePacking,
    SpreadingMetric,
    fes_to_fvs,
    rcp_exact,
    solve_spreading_metric,
    subset_fes_approx,
)
from .digraph import (
    Digraph,
    blowup,
    complement,
    enumerate_simple_cycles,
    parse_digraph,
    serialize_digraph,
    strong_product,
    tensor_power,
    verify_product_blowup_embedding,
)
from .errors import CapacityError, ContractViolation, FormatError, GnsKitError
from .indexcoding import (
    GFMatrix,
    IndexCode,
    build_cycle_code,
    co_rate_from_beta,
    gf_rank,
    minrank,
    minrank_blowup_normalized,
    parse_index_code,
    serialize_index_code,
    uncertainty_check,
    verify_index_code,
)
from .instances import (
    LSParams,
    lubetzky_stav,
    network_from_side_info_graph,
    is_vertex_transitive_under_ground_permutations,
    random_dag_network,
    random_digraph,
)
from .network import (
    GnsCertificate,
    GnsRefusal,
    Link,
    MUNetwork,
    build_network,
    closure_links,
    fvs_to_gns_cut,
    is_gns_cut,
    min_gns_cut_exact,
    mincut,
    parse_network,
    serialize_network,
    tilde_transform,
    to_index_graph,
)

__version__ = "0.1.0"
