"""Outage and symbol-error analysis of two-way AF relaying with relay hardware impairments.

Submodules, each importing only modules listed above it:
    specfun     special-function kernels (array K1 and log(z*K1); erfc, incomplete gamma, Q)
    model       every input rule: configuration, query and modulation types, checked power
                sweeps; the instantaneous SNDR and its high-power limits
    analytic    closed-form outage and its floor, SER quadrature and floors, inversions;
                each for one point or a whole power sweep, from specfun and model
    montecarlo  block-wise Monte-Carlo estimators of the same quantities from model alone,
                an independent check of analytic; each for one point or a power sweep
    cli         command-line curve sweeps, validation runs, and inversion queries
"""

from .analytic import (
    InfeasibleTargetError,
    QuadratureError,
    invert_impairment_for_op,
    invert_impairment_for_ser,
    outage_asymptotic,
    outage_probability,
    outage_sweep,
    ser,
    ser_asymptotic,
    ser_floor_quadrature,
    ser_sweep,
)
from .model import (
    MODULATIONS,
    Direction,
    DerivedConstants,
    HighPowerRegime,
    ImpairmentPair,
    Modulation,
    OutageQuery,
    SystemConfig,
    derived_constants,
    equal_split_kappa,
    optimal_split,
    relaying_gain,
    relaying_gain_asymptotic,
    sndr,
    sndr_asymptotic,
    sndr_ceiling,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    SignalRealization,
    mc_outage,
    mc_outage_asymptotic,
    mc_outage_sweep,
    mc_ser_expectation,
    mc_ser_expectation_sweep,
    mc_ser_signal_level,
    mc_ser_signal_level_sweep,
    sample_channel_gains,
    wilson_interval,
)

__version__ = "0.1.0"
