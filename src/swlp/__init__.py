"""Pseudo-spectral shallow-water simulator with dyadic-analysis tooling."""

from .besov import (
    BesovSpec,
    HybridBesovSpec,
    active_levels,
    besov_minus1_infty,
    besov_norm,
    block_norms,
    heat_characterization_ratio,
    hybrid_besov_norm,
    lp_norm,
    time_besov_norm,
    time_hybrid_besov_norm,
)
from .dyadic import (
    ANNULUS_HI,
    ANNULUS_LO,
    DyadicFilter,
    build_dyadic_filter,
    cover_range,
    default_filter,
    dyadic_block,
    freq_split,
    low_sum,
)
from .grid import (
    Grid,
    SpectralField,
    dealias,
    dilate,
    div,
    dump_field,
    grad,
    helmholtz_split,
    inverse_transform,
    laplacian,
    load_field,
    make_grid,
    mult,
    transform,
    xi_mag2,
)
from .paraproduct import (
    bony_parts,
    composition_ratio,
    hybrid_para_ratio,
    para,
    product_law_ratio,
    remainder,
)
from .quasi import (
    FrictionReport,
    friction_exact_residual,
    gaussian_bump,
    heat_estimate_ratio,
    heat_evolve,
    kernel_decay_fit,
    kernel_rate,
    log_density,
    max_principle_check,
    quasi_residual,
    velocity_from_density,
)
from .solver import (
    BlowupError,
    CflError,
    SimState,
    SolverConfig,
    assemble_rhs,
    cfl_number,
    ft_specs,
    gronwall_integrand,
    full_residual,
    initial_state,
    random_band_field,
    recompose,
    scaling_check,
    step,
)

__version__ = "0.1.0"
