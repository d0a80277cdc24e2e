"""Regenerate the Chebyshev coefficients used by specfun.bessel_k1_scaled.

Fits f(t) = exp(z) * K1(z) * sqrt(z) on z in [2, inf) with the variable
change t = 4/z - 1 (so t in (-1, 1], t = -1 at z = inf).  Coefficients are
computed from high-precision besselk values at Chebyshev nodes and trimmed
once they fall below 1e-15.  Run with mpmath installed and paste the output
into specfun.py.
"""

import mpmath as mp

mp.mp.dps = 60

N = 128  # quadrature nodes for the coefficient integrals


def f(t):
    z = 4 / (1 + t)
    return mp.exp(z) * mp.besselk(1, z) * mp.sqrt(z)


def main():
    nodes = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / N) for k in range(N)]
    fvals = [f(t) for t in nodes]
    coeffs = []
    for j in range(N):
        acc = mp.mpf(0)
        for k in range(N):
            acc += fvals[k] * mp.cos(j * mp.pi * (k + mp.mpf(1) / 2) / N)
        coeffs.append(2 * acc / N)

    # trim trailing coefficients below the target precision
    keep = N
    while keep > 1 and abs(coeffs[keep - 1]) < mp.mpf("1e-15"):
        keep -= 1
    trimmed = coeffs[:keep]

    print(f"# {keep} coefficients, |c_last| = {mp.nstr(abs(trimmed[-1]), 3)}")
    print("_K1E_CHEB = (")
    for c in trimmed:
        print(f"    {mp.nstr(c, 20)},")
    print(")")

    # verify the truncated fit on a dense log grid
    def clenshaw(t):
        b1 = mp.mpf(0)
        b2 = mp.mpf(0)
        for c in reversed(trimmed[1:]):
            b1, b2 = 2 * t * b1 - b2 + c, b1
        return t * b1 - b2 + trimmed[0] / 2

    worst = mp.mpf(0)
    for i in range(4000):
        z = 2 * mp.power(10, 7 * mp.mpf(i) / 3999)  # z in [2, 2e7]
        t = 4 / z - 1
        approx = clenshaw(t) / mp.sqrt(z)
        exact = mp.exp(z) * mp.besselk(1, z)
        worst = max(worst, abs(approx / exact - 1))
    print(f"# max relative error on [2, 2e7]: {mp.nstr(worst, 3)}")


if __name__ == "__main__":
    main()
