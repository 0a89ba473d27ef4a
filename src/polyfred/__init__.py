"""Fredholm analysis of layer potential operators on domains with corners
and cracks: geometry, limit symbols, weight windows, and a Nystrom harness."""

__version__ = "0.1.0"

from .geometry import (
    ConicalDomain,
    DomainError,
    UnfoldedDomain,
    desingularize_boundary,
    interior_angles,
    parse_domain,
    smoothed_distance,
    theta0,
    unfold,
)
from .groupoid import (
    GroupoidDescriptor,
    MellinOperator,
    VertexStratum,
    build_groupoid,
    limit_operator,
    orbit_representatives,
)
from .mellin import (
    MellinError,
    ScanResult,
    admissible_weight_window,
    invertibility_scan,
    line_offset,
    mellin_transform,
    symbol_on_line,
    wedge_np_kernel,
)
from .layerpot import (
    BoundaryMesh,
    FredholmVerdict,
    StudyResult,
    WindowReport,
    assemble_np,
    domain_windows,
    double_layer_potential,
    fredholm_verdict,
    graded_mesh,
    limit_operators,
    min_singular_value_study,
    np_kernel,
    solve_dirichlet,
)
