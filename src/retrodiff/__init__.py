"""retrodiff: time-reversed diffusion simulation and source recovery.

A numpy/scipy library for solving terminal-condition Fokker-Planck
problems by simulating the time-reversed McKean particle dynamics,
verifying the probabilistic representation against closed-form
affine-model (OU) solutions, and reconstructing initial distributions
from terminal data.
"""

from .distributions import (
    DegenerateDensityError,
    DiracMixture,
    GaussianMixture,
    dirac,
    gaussian,
)
from .density import (
    KdeField,
    score_bandwidth,
    silverman_bandwidth,
)
from .forward import (
    EnsemblePath,
    MomentBoundReport,
    ParticleEnsemble,
    check_moment_bound,
    empirical_moments,
    euler_maruyama_path,
    export_snapshots_csv,
    sample_initial,
)
from .grids import MatrixPath, TimeGrid
from .metrics import (
    energy_distance_nd,
    ks_statistic,
    ks_two_sample,
    sliced_wasserstein1,
    wasserstein1,
)
from .inverse import (
    AffineDrift,
    InjectivityReport,
    SearchResult,
    extract_source_location,
    heat_initial_transform,
    injectivity_probe,
    reconstruct_dirac_affine,
    reconstruct_dirac_affine_mc,
    reconstruct_dirac_search,
)
from .models import (
    DiffusionModel,
    EllipticityReport,
    LipschitzEstimate,
    OUModel,
    check_ellipticity,
    estimate_lipschitz,
    make_model,
)
from .ou_analytic import (
    AmplificationWindowError,
    OUAnalytic,
    consistency_triangle,
    fourier_invert_terminal,
    fourier_ode_solve,
    gaussian_bound_check,
    make_fourier_solution,
    ou_marginal,
    ou_reversal_drift,
)
from .resolvents import (
    compute_ou_covariance,
    min_eigenvalue_path,
    solve_adjoint_resolvent,
    solve_adjoint_resolvent_inverse,
    solve_resolvent,
)
from .reversal import (
    IntegrabilityReport,
    RepresentationReport,
    ReversalRun,
    check_integrability_proxy,
    export_diagnostics_csv,
    simulate_reversal_analytic,
    simulate_reversal_selfconsistent,
    verify_representation,
)
from .streams import substream

__version__ = "0.1.0"
