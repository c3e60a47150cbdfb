"""Dirichlet-kernel regression smoothing on the simplex.

Three nonparametric regression estimators for responses observed at fixed
design points on the d-dimensional simplex — a cell-integrated weighted sum
(GM), a kernel-weighted average (NW), and a local linear smoother (LL) —
together with their bandwidth selectors, closed-form asymptotic constants,
adaptive cubature, Voronoi partitions of the 2-simplex, a reproducible Monte
Carlo study harness, and a compositional-data application pipeline.
"""

from .asymptotics import (
    TargetFunction,
    VarianceProfile,
    bias_g,
    clt_standardize,
    mise_opt_bandwidth,
    mse_opt_bandwidth,
    psi_J,
    uniform_profile,
    variance_leading,
)
from .bandwidth import (
    BandwidthResult,
    BandwidthSearch,
    default_grid,
    loocv_ll,
    lscv,
    minimize_bandwidth,
    select_loocv_ll,
    select_lscv,
)
from .cubature import (
    CubatureConfig,
    CubatureResult,
    integrate_polygon,
    integrate_simplex,
)
from .estimators import (
    GM,
    LL,
    NW,
    Design,
    KernelWeights,
    batch_estimate,
    gm_estimate,
    gm_weight_matrix,
    ll_estimate,
    nw_estimate,
)
from .geometry import (
    ConvexCell,
    SimplexPartition,
    cell_area,
    cell_diameter,
    mesh_design_points,
    uniform_simplex_sample,
    voronoi_partition,
)
from .kernel import (
    global_bound,
    kappa,
    kappa_gradient_coordinate,
    log_dirichlet_density,
    log_kappa,
    log_kappa_matrix,
)
from .simulation import (
    FUNCTION_IDS,
    StudyConfig,
    StudyResult,
    clt_study,
    generate_responses,
    run_study,
    target_function,
)
from .app import (
    PH_CATEGORIES,
    PhCategory,
    classify_ph,
    fit_and_grid,
    load_composition_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
