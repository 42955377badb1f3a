"""conifold-lab: numerical laboratory for the Ricci-flat metric family on the
resolved conifold and its Gromov-Hausdorff collapse onto the singular cone."""

from .chart import (
    OMEGA,
    ConePoint,
    DomainSpec,
    FlopPoint,
    ResolvedPoint,
    contract,
    fibre_coordinate,
    flop_backward,
    flop_forward,
    in_domain,
    nu_coords,
    omega_r,
    rho,
    rho_alpha,
    second_chart,
)
from .curvature import StencilSpec, complex_hessian, ricci_form, ricci_potential_residual
from .forms import (
    CONE_METRIC,
    CONIFOLD_FLAT,
    FUBINI_STUDY,
    OMEGA_HAT,
    TAU,
    FibreForm,
    FormKind,
    HermitianForm,
    calabi_family,
    compare_forms,
    eval_form,
    fibrewise_trace_H,
    restrict_to_fibre,
    vector_norm_sq,
)
from .metricgeom import (
    CloudStructure,
    GHEstimate,
    build_cloud,
    cloud_diameter,
    cloud_structure,
    fs_diameter,
    gh_upper_bound,
    gh_upper_bounds,
    radial_length,
    radial_length_from_rho,
    radial_stub,
    sample_domain,
    zero_section_area,
    zero_section_diameter,
)
from .profile import (
    ProfileEval,
    ProfileParams,
    cone_profile,
    eval_profile,
    kahler_criterion,
)

__version__ = "0.1.0"
