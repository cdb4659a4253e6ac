"""Spin-chain state transfer: spectrum design, synthesis, and analysis.

The package covers the full workflow: closed-form dome spectra and their
tridiagonal realizations (`spectrum`, `inverse_eigen`, `models`), closed
and open-system propagation (`dynamics`), entanglement and process
metrics (`metrics`), disorder and decoherence sweeps (`noise`), and
coupling-budget cascade planning (`cascade`).  `cli` exposes the same
workflow as the `domechain` command.
"""

from .cascade import (
    CascadeInfeasibleError,
    CascadePlan,
    ChainKind,
    CouplingBudget,
    TransferMode,
    feasible_N,
    max_coupling,
    plan_cascade,
    segment_lengths,
)
from .chain import TridiagonalHamiltonian
from .dynamics import (
    DecoherenceConfig,
    Trajectory,
    eigendecompose,
    evolve_closed,
    evolve_lindblad,
    site_state,
)
from .inverse_eigen import (
    ReconstructionError,
    compute_weights,
    synthesize,
)
from .metrics import (
    bell_state,
    chain_bell_target,
    corner_w_target,
    quarter_period_phase,
    reduce_to_sites,
    state_fidelity,
    transfer_fidelity,
)
from .models import (
    DomeParams,
    EffectiveTwoSite,
    Grid2D,
    PerturbativeBreakdownError,
    dome_hamiltonian,
    schrieffer_wolff_reduce,
    single_excitation_matrix,
)
from .noise import (
    DisorderConfig,
    DisorderTarget,
    DecoherenceScan,
    SweepMetric,
    SweepResult,
    sweep_coherent,
    sweep_decoherence,
)
from .spectrum import (
    FstPhase,
    Spectrum,
    check_pst_spacing,
    dome_spectrum,
    solve_fst_phase,
)

__all__ = [
    "CascadeInfeasibleError",
    "CascadePlan",
    "ChainKind",
    "CouplingBudget",
    "DecoherenceConfig",
    "DecoherenceScan",
    "DisorderConfig",
    "DisorderTarget",
    "DomeParams",
    "EffectiveTwoSite",
    "FstPhase",
    "Grid2D",
    "PerturbativeBreakdownError",
    "ReconstructionError",
    "Spectrum",
    "SweepMetric",
    "SweepResult",
    "Trajectory",
    "TransferMode",
    "TridiagonalHamiltonian",
    "bell_state",
    "chain_bell_target",
    "check_pst_spacing",
    "compute_weights",
    "corner_w_target",
    "dome_hamiltonian",
    "dome_spectrum",
    "eigendecompose",
    "evolve_closed",
    "evolve_lindblad",
    "feasible_N",
    "max_coupling",
    "plan_cascade",
    "quarter_period_phase",
    "reduce_to_sites",
    "schrieffer_wolff_reduce",
    "segment_lengths",
    "single_excitation_matrix",
    "site_state",
    "solve_fst_phase",
    "state_fidelity",
    "sweep_coherent",
    "sweep_decoherence",
    "synthesize",
    "transfer_fidelity",
]
