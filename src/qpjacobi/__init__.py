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
    TooFewPoints,
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
    BlockTridiagonal,
    OperatorParams,
    assemble_hamiltonian,
    assemble_regularized,
    index_split,
)
from .greens import (
    BoundFitReport,
    GreenEntryQuery,
    avg_logdet,
    check_det_lower_bound,
    check_minor_bound,
    green_entry_cramer,
    green_full,
    logdet_abs,
    midpoint_grid,
    minor_oracle,
)
from .ergodic import DeviationReport, birkhoff_avg, deviation_measure, ldt_decay_fit
from .localization import (
    DecayFit,
    EigenPair,
    LocalizationReport,
    block_profile,
    decay_fit,
    eigensolve,
    green_decay_scan,
    localize,
    lyapunov_rates,
    lyapunov_transfer,
    resolvent_patch_check,
)
from .models import bundled, load_model, model_hash, resolve_model, save_model
