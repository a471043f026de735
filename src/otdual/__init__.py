"""Exact Monge-Kantorovich duality on finite probability spaces.

The package computes the four transport values (alpha, alpha*, beta,
beta*) with optimality witnesses, in exact rational arithmetic or floats
with one global tolerance, together with the constructive devices used to
relate them: Lipschitz infimal convolutions, oscillation partitions and
discretization, coupling extension, rectangle covers, and the Wasserstein
dual over 1-Lipschitz potentials.
"""

from .approx import (
    ApproximantSequence,
    BetaStarLimitReport,
    beta_star_limit_check,
    infconv_sequence,
    lipschitz_infconv,
    lipschitz_modulus,
    normalize_cost,
    oscillation,
    oscillation_partition,
    partition_discretize,
    row_min_potential,
    shifted_infconv,
)
from .costs import PotentialPair, potential_defect
from .couplings import (
    CoarseCoupling,
    diagonal_coupling,
    extend_coupling,
    monge_coupling,
    product_coupling,
)
from .errors import (
    DimensionMismatch,
    DualityError,
    EmptyAnchorSet,
    IndexOutOfRange,
    InfeasibleMarginals,
    InfeasibleWitness,
    InstanceTooLarge,
    InvariantViolation,
    LipschitzBoundViolated,
    MarginalMismatch,
    MissingRepresentative,
    NotMeasurePreserving,
    NotMonotone,
    ParseError,
    SpaceMismatch,
    UnknownObjective,
    ValidationError,
    ZeroMassCell,
)
from .instances import (
    Instance,
    generate_instance,
    instance_to_jsonable,
    load_instance,
    parse_instance,
    save_instance,
)
from .numeric import FLOAT, RATIONAL, Context, format_number
from .oracle import oracle_enumerate, transport_polytope_vertices
from .rectangles import (
    Cover,
    NotNullReport,
    RectangleFamily,
    arveson_witness,
    covers,
    indicator_cost,
    min_cover,
    truncation_duality,
)
from .spaces import (
    Partition,
    ProbabilitySpace,
    SpaceValidation,
    conditional_measure,
    limsup_mass,
    make_space,
    mask_from_indices,
    mask_indices,
    mask_mass,
    mask_union,
    metric_repair,
    pushforward,
    singleton_partition,
    validate_space,
)
from .transport import (
    ChainReport,
    Coupling,
    SolveReport,
    check_chain,
    coupling_defects,
    solve_alpha,
    solve_alpha_star,
    solve_beta,
    solve_beta_star,
    transport_value,
)
from .wasserstein import WassersteinReport, lipschitz_dual, wasserstein1

__version__ = "0.1.0"
