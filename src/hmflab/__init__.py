"""
hmflab: a numerical laboratory for the gliding-frame Vlasov-HMF kinetic model.

The package evolves small perturbations of homogeneous states spectrally in
the free-transport-filtered frame, certifies linear stability with a
Penrose-type winding criterion, solves the associated causal field equation,
and measures nonlinear damping and scattering rates at desk scale.
"""

from .grids import (
    InvariantViolation,
    PhaseGrid,
    SpectralField,
    cubic_interp,
    embedding_constant,
    make_grid,
    norm_ladder,
    shift_add,
    shift_plan,
    sobolev_norm,
    write_field_csv,
)
from .profiles import (
    HomogeneousProfile,
    Perturbation,
    load_profile_csv,
    maxwellian,
    profile_hat,
    profile_values,
    save_profile_csv,
    synth_initial,
    tabulated,
    two_stream,
)
from .penrose import (
    InteractionKernel,
    PenroseReport,
    critical_parameter,
    growth_rate,
    memory_kernel,
    memory_kernel_transform,
    penrose_check,
)
from .volterra import (
    ModeSeries,
    lemvolterra_harness,
    product_trapezoid,
    solve_volterra,
)
from .simulate import (
    NonFiniteState,
    SimConfig,
    Trajectory,
    assemble_rhs,
    extract_field_modes,
    run,
)
from .diagnostics import (
    NormMonitor,
    ScatteringResult,
    conservation_drifts,
    convergence_series,
    decay_fit,
    q_monitor,
    scattering_limit,
    weak_limit_profile,
    weighted_mode_series,
)

__version__ = "0.1.0"
