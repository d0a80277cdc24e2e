"""System parameterization and instantaneous SNDR math for two-way AF relaying.

Two terminals T1, T2 exchange symbols through an amplify-and-forward relay R
whose transceiver adds power-proportional Gaussian distortion noise on both
the receive side (EVM level kappa_r) and the transmit side (kappa_t).  This
module holds the configuration and query types with every input rule of the
package, the per-direction derived constants, the variable relaying gain, the
per-realization SNDR, and the high-power limits.

One SNDR form covers every relay, whatever receive EVM kappa_hat_r its gain
normalization assumes: kappa_hat_r enters only the constants of
derived_constants.

sndr and relaying_gain take one SystemConfig, so a Monte-Carlo power sweep
calls them once per sweep point; link_params and derived_constants also take
whole sweep arrays (`powers=`), for the analytic layer's closed forms.

All powers and noise variances are linear watts; dB conversion belongs to the
CLI.  Every function is pure and accepts either scalars or numpy arrays for
the channel gains rho1, rho2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ImpairmentPair",
    "SystemConfig",
    "Direction",
    "Modulation",
    "MODULATIONS",
    "OutageQuery",
    "DerivedConstants",
    "HighPowerRegime",
    "derived_constants",
    "relaying_gain",
    "sndr",
    "sndr_asymptotic",
    "sndr_ceiling",
    "relaying_gain_asymptotic",
    "optimal_split",
    "equal_split_kappa",
    "link_params",
]


def _check_positive(**values: float):
    """Reject, by name and value, any of the values that is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_nonnegative(**values: float):
    """Reject, by name and value, any of the values that is not finite and >= 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _check_threshold(x):
    """Outage thresholds x (a number or an array) as floats; names the first not >= 0 (inf is legal)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError(f"outage threshold must be a number >= 0, got {float(x[~(x >= 0)].flat[0])!r}")
    return x


@dataclass(frozen=True)
class ImpairmentPair:
    """Relay EVM levels: kappa_t on the transmit side, kappa_r on the receive side."""

    kappa_t: float
    kappa_r: float

    def __post_init__(self):
        _check_nonnegative(kappa_t=self.kappa_t, kappa_r=self.kappa_r)

    def aggregate(self) -> float:
        """Aggregate EVM sqrt(kappa_t^2 + kappa_r^2).

        A single receive-side (or transmit-side) distortion of this level
        produces the same added noise variance as the pair, so per-link
        impairment budgets can be folded into one number.
        """
        return float(np.hypot(self.kappa_t, self.kappa_r))

    def c(self) -> float:
        """Distortion severity c = kappa_t^2 + kappa_r^2 + kappa_t^2 * kappa_r^2.

        The ceiling coefficient of a relay whose gain uses its true receive
        EVM (see derived_constants for the general one); c = 0 iff the
        hardware is ideal.
        """
        kt2 = self.kappa_t * self.kappa_t
        kr2 = self.kappa_r * self.kappa_r
        return kt2 + kr2 + kt2 * kr2


@dataclass(frozen=True)
class SystemConfig:
    """Full link parameterization: powers, noise variances, average channel gains.

    p1, p2, p3 are the average transmit powers of T1, T2, and the relay;
    n1, n2, n3 the corresponding noise variances; omega1, omega2 the average
    gains of the Rayleigh channels T1-R and T2-R.  `assumed_kappa_r` is the
    receive-EVM value the relay plugs into its gain normalization; leave it
    None for a relay that knows its own hardware.  Every SNDR, outage and SER
    function accepts either kind of relay.
    """

    p1: float
    p2: float
    p3: float
    n1: float
    n2: float
    n3: float
    omega1: float
    omega2: float
    relay_impairments: ImpairmentPair = field(default_factory=lambda: ImpairmentPair(0.0, 0.0))
    assumed_kappa_r: float | None = None

    def __post_init__(self):
        _check_positive(**{name: getattr(self, name)
                           for name in ("p1", "p2", "p3", "n1", "n2", "n3", "omega1", "omega2")})
        if self.assumed_kappa_r is not None:
            _check_nonnegative(assumed_kappa_r=self.assumed_kappa_r)

    @property
    def kappa_t(self) -> float:
        return self.relay_impairments.kappa_t

    @property
    def kappa_r(self) -> float:
        return self.relay_impairments.kappa_r

    @property
    def gain_kappa_r(self) -> float:
        """Receive EVM used inside the relaying gain (assumed value if set)."""
        if self.assumed_kappa_r is None:
            return self.relay_impairments.kappa_r
        return self.assumed_kappa_r


@dataclass(frozen=True)
class Direction:
    """Detection direction: terminal T_i decodes the symbol sent by its partner."""

    i: int

    def __post_init__(self):
        if self.i not in (1, 2):
            raise ValueError("direction index must be 1 or 2")

    @property
    def r_i(self) -> int:
        """Index of the partner terminal whose symbol is being detected."""
        return 2 // self.i


@dataclass(frozen=True)
class Modulation:
    """Constants (alpha, beta) of the conditional error rate alpha*Q(sqrt(2*beta*snr))."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_positive(alpha=self.alpha, beta=self.beta)


MODULATIONS = {
    "bpsk": Modulation(alpha=1.0, beta=1.0),
}


@dataclass(frozen=True)
class OutageQuery:
    """Outage threshold (linear SNDR) and detection direction."""

    x: float
    direction: Direction

    def __post_init__(self):
        _check_threshold(self.x)


def _sweep_powers(powers):
    """The (p1, p2, p3) arrays of a power sweep, checked: equal length, finite, positive."""
    p1, p2, p3 = (np.atleast_1d(np.asarray(p, dtype=float)) for p in powers)
    if not (p1.ndim == 1 and p1.shape == p2.shape == p3.shape and p1.size):
        raise ValueError("a power sweep needs three nonempty 1-D arrays of equal length")
    for name, p in (("p1", p1), ("p2", p2), ("p3", p3)):
        if not np.all(np.isfinite(p) & (p > 0.0)):
            raise ValueError(f"{name} must be finite and strictly positive at every sweep point")
    return p1, p2, p3


def _own_powers(config: SystemConfig):
    """A one-point sweep at the config's own powers."""
    return np.array([config.p1]), np.array([config.p2]), np.array([config.p3])


@dataclass(frozen=True)
class DerivedConstants:
    """Per-direction constants of the gain-substituted SNDR denominator.

    c is the ceiling coefficient: the SNDR stays below 1/c for every channel
    draw and tends to rho_ri / ((rho1 + rho2) c) at high power.
    """

    a_i: float | np.ndarray
    b_i: float | np.ndarray
    c: float


def link_params(config: SystemConfig, direction: Direction, powers=None):
    """(p_i, p_ri, n_i, omega_i, omega_ri) as seen from the receiving terminal.

    `powers=(p1, p2, p3)`, scalars or the arrays of a power sweep, stand in
    for the config's own transmit powers (the analytic closed forms).
    """
    p1, p2, _ = (config.p1, config.p2, config.p3) if powers is None else powers
    if direction.i == 1:
        return p1, p2, config.n1, config.omega1, config.omega2
    return p2, p1, config.n2, config.omega2, config.omega1


def _rho_roles(direction: Direction, rho1, rho2):
    """(rho_i, rho_ri): own-channel gain first, partner's second."""
    if direction.i == 1:
        return rho1, rho2
    return rho2, rho1


def derived_constants(config: SystemConfig, direction: Direction, powers=None) -> DerivedConstants:
    """Constants a_i, b_i, c of the closed-form SNDR denominator.

    a_i = (n3/p_ri)(1 + kappa_t^2), b_i = (n_i/p3)(1 + kappa_hat_r^2),
    c = kappa_t^2 + kappa_r^2 + kappa_t^2 kappa_hat_r^2, where kappa_hat_r
    is the receive EVM of the relaying gain (config.gain_kappa_r); with
    kappa_hat_r = kappa_r, c is ImpairmentPair.c() bit for bit.  With
    `powers=(p1, p2, p3)` (see link_params) a_i and b_i are arrays over the
    sweep.
    """
    _, p_ri, n_i, _, _ = link_params(config, direction, powers)
    p3 = config.p3 if powers is None else powers[2]
    kt2 = config.kappa_t**2
    kr2 = config.kappa_r**2
    kh2 = config.gain_kappa_r**2
    return DerivedConstants(
        a_i=(config.n3 / p_ri) * (1.0 + kt2),
        b_i=(n_i / p3) * (1.0 + kh2),
        c=kt2 + kr2 + kt2 * kh2,
    )


def relaying_gain(config: SystemConfig, rho1, rho2):
    """Variable relaying gain G for instantaneous channel gains (rho1, rho2).

    G = sqrt(p3 / ((rho1 p1 + rho2 p2)(1 + kappa_hat_r^2) + n3)) where
    kappa_hat_r is the relay's assumed receive EVM.  With a matched
    assumption the relay's average transmit power is exactly p3; a
    mismatched assumption mis-normalizes the output power.
    """
    khat2 = config.gain_kappa_r**2
    received = (rho1 * config.p1 + rho2 * config.p2) * (1.0 + khat2) + config.n3
    return np.sqrt(config.p3 / received)


def sndr(config: SystemConfig, direction: Direction, rho1, rho2):
    """Effective SNDR at terminal T_i for channel gains (rho1, rho2).

    rho1*rho2 / (c (p_i/p_ri) rho_i^2 + c rho1 rho2 + b_i rho_ri
    + (a_i + (p_i/p_ri) b_i) rho_i + n_i n3/(p_ri p3)), with the constants of
    derived_constants; valid whatever receive EVM the relaying gain assumes.
    rho values of exactly 0 are legal and yield SNDR 0.
    """
    p_i, p_ri, n_i, _, _ = link_params(config, direction)
    rho_i, rho_ri = _rho_roles(direction, rho1, rho2)
    dc = derived_constants(config, direction)
    ratio = p_i / p_ri
    denom = (
        rho_i * rho_i * ratio * dc.c
        + rho1 * rho2 * dc.c
        + rho_ri * dc.b_i
        + rho_i * (dc.a_i + ratio * dc.b_i)
        + n_i * config.n3 / (p_ri * config.p3)
    )
    return rho1 * rho2 / denom


def sndr_asymptotic(direction: Direction, rho1, rho2, c: float):
    """High-power limit of the SNDR: rho_ri / ((rho1 + rho2) c).

    Holds when p1 = p2 = tau*p3 grow without bound; the power ratio tau
    cancels.  Only the ceiling coefficient c (of derived_constants) and the
    channel-gain ratio survive, so the limit stays random: performance
    floors follow.
    """
    _check_positive(c=c)  # ideal hardware (c = 0) has no limit
    _, rho_ri = _rho_roles(direction, rho1, rho2)
    return rho_ri / ((rho1 + rho2) * c)


def sndr_ceiling(c: float) -> float:
    """Hard upper bound 1/c on the SNDR, independent of transmit power."""
    _check_positive(c=c)  # ideal hardware (c = 0) has no ceiling
    return 1.0 / c


@dataclass(frozen=True)
class HighPowerRegime:
    """Power scaling p1 = p2 = tau * p3 with every power sent to infinity."""

    tau: float

    def __post_init__(self):
        _check_positive(tau=self.tau)


def relaying_gain_asymptotic(regime: HighPowerRegime, rho1, rho2, kappa_r: float):
    """Limit of the relaying gain: sqrt(1 / (tau (rho1+rho2) (1+kappa_r^2))).

    Finite and strictly positive, which is what keeps the relay's distortion
    from being amplified away in the high-power regime.
    """
    _check_nonnegative(kappa_r=kappa_r)
    return np.sqrt(1.0 / (regime.tau * (rho1 + rho2) * (1.0 + kappa_r**2)))


def optimal_split(kappa_tot: float) -> ImpairmentPair:
    """Even transmit/receive split of a total EVM budget kappa_t + kappa_r.

    The even split maximizes kappa_t*kappa_r and therefore minimizes
    c = (kappa_t + kappa_r)^2 - 2 kappa_t kappa_r + (kappa_t kappa_r)^2 over
    the fixed-sum constraint (for budgets below 2, which covers any real
    EVM): same-quality hardware on both sides is optimal.
    """
    _check_positive(kappa_tot=kappa_tot)
    half = 0.5 * kappa_tot
    return ImpairmentPair(half, half)


def equal_split_kappa(c: float) -> float:
    """Per-side EVM of an even split achieving severity c.

    Inverts c = 2 kappa^2 + kappa^4 to kappa = sqrt(sqrt(1 + c) - 1),
    written as sqrt(c / (1 + sqrt(1 + c))) so that small c does not cancel.
    """
    _check_nonnegative(c=c)
    return float(np.sqrt(c / (1.0 + np.sqrt(1.0 + c))))
