"""Finite-volume numerics for quasi-periodic block Jacobi operators with
meromorphic diagonal potentials."""

__version__ = "0.1.0"

from .errors import (
    AllDegenerate,
    AllZero,
    DegenerateSymbol,
    ModelFormatError,
    NearSingular,
    PoleProximity,
    TooManyExclusions,
)
from .symbols import (
    BlockModel,
    Dioph,
    MeroScalar,
    SymbolTables,
    TrigPoly,
    check_nondegeneracy,
    is_diophantine,
    locate_zeros,
    symbol_tables,
)
from .operator import (
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
)
from .greens import (
    BoundFitReport,
    avg_logdet,
    check_det_lower_bound,
    check_minor_bound,
    logdet_abs,
    midpoint_grid,
)
from .ergodic import DeviationReport, deviation_measure, ldt_decay_fit
from .localization import (
    DecayFit,
    LocalizationReport,
    block_profile,
    decay_fit,
    eigensolve,
    green_decay_scan,
    localize,
    lyapunov_rates,
    resolvent_patch_check,
)
from .models import bundled, load_model, model_hash, resolve_model, save_model
