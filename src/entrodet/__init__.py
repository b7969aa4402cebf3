"""entrodet: quantum entropies via spectral formulas and Fredholm determinants.

Dense spectral core (validation, eigendecomposition, partial traces,
trace distance), the von Neumann / Tsallis / Renyi / unified entropy
family with determinant and Carleman-regularized reformulations,
Gauss-Legendre Nystrom Fredholm determinants, state and spectrum
generators, and reproducible experiment runners.
"""

from .entropy import (
    EntropyParams,
    EntropyResult,
    ProbeResult,
    alpha_star,
    divergence_probe,
    evaluate,
    hu_ye,
    hy_bound,
    hy_fredholm,
    hy_renormalized,
    log_det_r,
    log_det_ren,
    renyi,
    trace_power,
    tsallis,
    vn_renormalized,
    vn_via_fredholm,
    von_neumann,
)
from .fredholm import (
    KernelSpec,
    QuadratureRule,
    first_k_primes,
    fredholm_det,
    gauss_legendre,
    log_fredholm_det,
    nystrom_matrix,
    zeta_ratio_product,
    zeta_series,
)
from .linalg import (
    DensityMatrix,
    Spectrum,
    as_spectrum,
    eig_hermitian,
    partial_trace,
    spectrum_of,
    trace_distance,
    validate_density,
)
from .matrixio import load_matrix, save_matrix
from .states import (
    diag_state,
    gaussian_entropy_analytic,
    log_power_spectrum,
    power_law_generator,
    random_density,
    squeezed_kernel,
    squeezed_schmidt_spectrum,
    x_state,
    x_state_random,
    zeta_spectrum,
)
from .experiments import (
    ExperimentReport,
    run_gaussian_experiment,
    run_quad_test,
    run_xstate_experiment,
    run_zeta_check,
)

__version__ = "0.1.0"
