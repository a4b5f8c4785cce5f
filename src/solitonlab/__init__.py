"""Numerical workbench for reflectionless (N-soliton) potentials.

Constructs determinant tau functions and their potentials, eigenfunctions,
and KdV-hierarchy flows from spectral data; applies Darboux, Krein-Adler,
and Abraham-Moses deformations as exact parameter rewrites; and verifies
the underlying determinant identities and spectral claims numerically.
"""

from .jets import Jet, JetMismatchError, SingularJetError, jet_det, jet_exp, jet_log_d2
from .solitons import (
    CoefficientRule,
    ConfigError,
    RangeError,
    SolitonConfig,
    TauEval,
    TauGrid,
    apply_time_flows,
    default_grid,
    deletion_rule,
    drop_rule,
    dt_potential,
    eigenfunction,
    eigenfunction_grid,
    eigenfunction_rule,
    pair_rule,
    potential,
    potential_fn,
    potential_jet,
    random_config,
    rescale_rule,
    tau_det,
    tau_grid,
    tau_hirota_grid,
    tau_jet_sum,
    tau_jet_sum_grid,
    tau_logdet_grid,
)
from .transforms import (
    AMResult,
    RegularityError,
    SeedFunction,
    TransformResult,
    am_add,
    am_delete,
    darboux_ground,
    darboux_potential,
    deleted_seed_image,
    eigenfunction_seed,
    eigenfunction_seeds,
    free_seed,
    generic_am,
    generic_darboux,
    krein_adler_check,
    krein_adler_delete,
    plane_wave_seed,
    seed_config_from_free,
    wronskian,
)
from .identities import (
    VerificationReport,
    inner_tail,
    run_identity_suite,
    verify_addition_determinant,
    verify_bilinear_derivative,
    verify_deletion_determinant,
    verify_seed_wronskian,
    verify_tau_split,
    verify_wronskian_identity,
)
from .numerics import (
    ScatteringResult,
    SpectrumResult,
    bound_spectrum,
    kdv_residual,
    phase_shift_check,
    quadrature,
    scatter,
    transmission_product,
)

__version__ = "0.1.0"
