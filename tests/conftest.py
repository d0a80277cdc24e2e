"""References shared by the test modules, as fixtures: mpmath kernels and the
explicit-gain SNDR."""

import pytest

from twoway_impair.model import Direction, SystemConfig, _rho_roles, link_params, relaying_gain


def zk1_minus_one_mp(z):
    """z*K1(z) - 1 in mpmath at 40 digits, without cancellation as z -> 0.

    Below z = 2 it sums DLMF 10.31.1 term by term, z*ln(z/2)*I1(z) - q*sum_k
    (psi(k+1) + psi(k+2)) q^k/(k!(k+1)!) with q = z^2/4, through mpmath's own
    besseli and digamma; above, z*besselk(1, z) - 1 has nothing to cancel.
    """
    import mpmath as mp

    with mp.workdps(40):
        z = mp.mpf(z)
        if z > 2:
            return z * mp.besselk(1, z) - 1
        q = z * z / 4
        total, term, k = mp.mpf(0), mp.mpf(1), 0
        while term > mp.eps:
            total += (mp.digamma(k + 1) + mp.digamma(k + 2)) * term
            k += 1
            term *= q / (k * (k + 1))
        return z * mp.log(z / 2) * mp.besseli(1, z) - q * total


@pytest.fixture(scope="session")
def mp_zk1_minus_one():
    return zk1_minus_one_mp


def sndr_from_gain(config: SystemConfig, direction: Direction, rho1, rho2):
    """SNDR at T_i evaluated through the explicit relaying gain.

    The gain carries the assumed receive EVM while the distortion variances
    carry the true one.  Algebraically equal to model.sndr; kept as the
    reference that checks the constants of derived_constants.
    """
    _, p_ri, n_i, _, _ = link_params(config, direction)
    rho_i, _ = _rho_roles(direction, rho1, rho2)
    g = relaying_gain(config, rho1, rho2)
    kr2 = config.kappa_r**2
    kt2 = config.kappa_t**2
    noise = rho_i * (config.n3 + kr2 * (rho1 * config.p1 + rho2 * config.p2))
    noise = noise + (rho_i * kt2 * config.p3 + n_i) / (g * g)
    return rho1 * rho2 * p_ri / noise


@pytest.fixture(scope="session")
def explicit_gain_sndr():
    # session-scoped, so the hypothesis tests can take it too
    return sndr_from_gain


@pytest.fixture(scope="session")
def mp_outage():
    """outage_mp(config, direction) -> the exact outage CDF x -> float in mpmath.

    It evaluates 1 - e^(-E) arg*K1(arg) / (1 + F) on the coefficient rows of
    analytic._closed_form at 40 digits, through log terms so that nothing
    cancels at tiny thresholds.
    """
    import mpmath as mp

    from twoway_impair import analytic

    def outage_mp(config, direction):
        c, delta, rows = analytic._closed_form(config, direction, analytic._own_powers(config))
        c, delta = mp.mpf(c), mp.mpf(delta)
        e_lin, e_quad, n_lin, n_cub, d_lin = (mp.mpf(float(row[0])) for row in rows)

        def cdf(x):
            with mp.workdps(40):
                x = mp.mpf(x)
                s = 1 - c * x
                if x == 0 or s <= 0:
                    return float(x > 0)
                exponent = x / s * e_lin + x * (1 + c * x) / s**2 * e_quad
                num = (x + delta * x * x) / s**2 * n_lin + x * x / s**3 * n_cub
                floor = c * x / s * d_lin
                arg = 2 * mp.sqrt(num * (1 + floor))
                return float(-mp.expm1(-exponent + mp.log1p(zk1_minus_one_mp(arg)) - mp.log1p(floor)))

        return cdf

    return outage_mp
