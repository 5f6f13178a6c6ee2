"""Recovery of signals from phaseless quadratic measurements.

Lifts the unknown signal x to the rank-1 matrix xx*, solves
min Tr X s.t. ||A(X) - b|| <= eps over the PSD cone, b the measured
intensities |<x, z_i>|^2, and extracts (and debiases) the top
rank-1 component.  Also ships the verification toolkit for the theory:
dual certificates, l1-isometry constants, and moment identities of the
Gaussian measurement model.
"""

from .analysis import (
    L1IsometryReport,
    l1_isometry_check,
    rank2_l1_mc,
    rank2_l1_mean_complex,
    rank2_l1_mean_real,
)
from .certificate import (
    CertificateReport,
    build_certificate,
    check_mean_gram,
    mean_gram,
    mean_gram_inverse,
    verify_certificate,
)
from .hermitian import (
    COMPLEX,
    REAL,
    as_hermitian,
    as_signal,
    eig,
    project_tangent,
)
from .measurement import (
    IntensityData,
    SensingEnsemble,
    add_noise,
    apply_adjoint,
    apply_measurement,
    intensities,
    sample_ensemble,
)
from .recovery import RecoveryResult, debias, recover, rel_mse
from .solver import (
    SolveReport,
    estimate_lipschitz,
    prox_psd_trace,
    solve_constrained,
    solve_regularized,
)

__all__ = [
    "COMPLEX",
    "REAL",
    "CertificateReport",
    "IntensityData",
    "L1IsometryReport",
    "RecoveryResult",
    "SensingEnsemble",
    "SolveReport",
    "add_noise",
    "apply_adjoint",
    "apply_measurement",
    "as_hermitian",
    "as_signal",
    "build_certificate",
    "check_mean_gram",
    "debias",
    "eig",
    "estimate_lipschitz",
    "intensities",
    "l1_isometry_check",
    "mean_gram",
    "mean_gram_inverse",
    "project_tangent",
    "prox_psd_trace",
    "rank2_l1_mc",
    "rank2_l1_mean_complex",
    "rank2_l1_mean_real",
    "recover",
    "rel_mse",
    "sample_ensemble",
    "solve_constrained",
    "solve_regularized",
    "verify_certificate",
]

__version__ = "0.1.0"
