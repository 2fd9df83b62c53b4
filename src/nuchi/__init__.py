"""nuchi: exact symbolic toolkit for Milnor numbers, normal-cone cycles and
weighted Euler characteristics of singular loci.

All arithmetic is exact (rationals or a prime field); every object is
immutable and safe to share across threads.
"""

__version__ = "0.1.0"

from .poly import (  # noqa: F401
    DEGREVLEX,
    GF,
    LEX,
    LOCAL_DEGREVLEX,
    MonomialOrder,
    Polynomial,
    QQ,
    Ring,
    elimination_order,
    parse_point,
    parse_polynomial,
)
from .groebner import (  # noqa: F401
    INFINITE,
    Ideal,
    Infinite,
    StandardBasis,
    colength,
    eliminate,
    groebner_basis,
    hs_multiplicity,
    ideal_membership,
    krull_dimension,
    normal_form,
    standard_basis,
)
from .singular import (  # noqa: F401
    NOT_CRITICAL,
    AlmostClosedCheck,
    NuReport,
    OneForm,
    behrend_at,
    behrend_report,
    differential,
    is_almost_closed,
    is_smooth_at,
    jacobian_ideal,
    milnor_fibre_euler,
    milnor_number,
)
from .arcs import (  # noqa: F401
    ArcSeries,
    INFINITE_WITHIN_TRUNCATION,
    ParameterForm,
    TruncatedSeries,
    arc_from_strings,
    arc_vanishing_order,
    compose_along_arc,
    lagrangian_obstruction,
    parse_arc,
)
from .cycles import (  # noqa: F401
    ConeIdealReport,
    Cycle,
    Presentation,
    distinguished_cycle,
    euler_obstruction,
    monomial_presentation,
    normal_cone_ideal,
    nu_from_cycle,
    presentation_from_critical_locus,
    rational_points_of_zero_dim,
    regular_sequence_presentation,
    smooth_presentation,
)
from .euler import (  # noqa: F401
    ConstructibleFunction,
    Stratification,
    Stratum,
    chi_combine,
    hilbert_demo,
    macmahon_coefficients,
    plane_partition_counts,
    point_count_chi,
    weighted_euler,
)
