"""Neutrality criteria for diagonal representations of finite abelian group
schemes, with replayable certificates and field-of-moduli applications."""

from .abelian import (
    DEFAULT_CAP,
    Character,
    FiniteAbelianGroup,
    PrimaryPart,
    generates,
    is_prime,
    mod_p_image,
    primary_projection,
    rank_mod_p,
    smith_normal_form,
)
from .autgroup import (
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
    Representation,
    blended_decomposition,
    is_faithful,
    pseudoreflection_count,
    pseudoreflections,
    rep_from_input,
)

from_relations = FiniteAbelianGroup.from_relations

__version__ = "0.1.0"
