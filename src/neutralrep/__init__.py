"""Neutrality criteria for diagonal representations of finite abelian group
schemes, with replayable certificates and field-of-moduli applications."""

from .abelian import (
    DEFAULT_CAP,
    Character,
    CyclicFactorPresentation,
    FiniteAbelianGroup,
    PrimaryPart,
    Subgroup,
    generates,
    is_prime,
    mod_p_image,
    primary_projection,
    rank_mod_p,
    restriction_faithful_on_primary,
    smith_normal_form,
)
from .autgroup import (
    Automorphism,
    AutVSubgroup,
    Orbit,
    acts_trivially_on_lines,
    aut_generators,
    aut_v_subgroup,
    close_group,
    induced_mod_p_matrix,
    is_scalar_matrix_mod_p,
    orbit_partition,
)
from .criteria import (
    Certificate,
    NeutralityReport,
    PrimeVerdict,
    RSingularityReport,
    check_cyclic_general,
    check_easy_cyclic,
    check_large_prime,
    check_lines_generators,
    check_prime,
    neutrality_report,
    r_singularity_report,
    report_from_json,
    report_to_json,
    verify_certificate,
)
from .geometry import (
    CurveInstance,
    GeometryReport,
    MarkedInstance,
    curve_check,
    curve_to_representation_note,
    marked_check,
)
from .rep import (
    BlendedDecomposition,
    GroupElement,
    Representation,
    blended_decomposition,
    fixed_dim,
    group_elements,
    is_faithful,
    pairing,
    pseudoreflections,
    rep_from_input,
)

from_relations = FiniteAbelianGroup.from_relations
from_cyclic_factors = FiniteAbelianGroup.from_cyclic_factors

__version__ = "0.1.0"
