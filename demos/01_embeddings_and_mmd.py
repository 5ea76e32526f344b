#!/usr/bin/env python3
"""Embedding basics: discrete measures, kernel inner products, MMD.

Walks through the core objects:

  1. finitely supported signed measures (atoms + weights, exact merging),
  2. the mean embedding of a measure under a kernel,
  3. the MMD between two measures, computed two ways (expand or merge),
  4. the integral identity mu(f_nu) = <mu, nu>.

Everything here is exact or near machine precision; the printed deltas
show how close the two MMD routes stay.
"""

import math

import numpy as np

from mmdlab import (
    SignedDiscreteMeasure,
    dirac,
    gaussian,
    inner,
    integrate,
    kme_eval,
    kme_probe,
    mmd,
    mmd_oracle,
)


def main():
    k = gaussian(sigma=1.0, dim=1)

    print("== two Diracs ==")
    a, b = dirac(0.0), dirac(1.0)
    closed_form = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    print(f"mmd(delta_0, delta_1)      = {mmd(k, a, b):.15f}")
    print(f"closed form sqrt(2-2e^-.5) = {closed_form:.15f}")
    print(f"brute-force oracle         = {mmd_oracle(k, a, b):.15f}")

    print("\n== a small signed measure ==")
    mu = SignedDiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), [0.7, 0.5, -0.3], 1)
    print(f"total mass {mu.total_mass}, support size {mu.support_size}")
    print(f"embedding at x=0.5: {kme_eval(k, mu, 0.5):.12f}")
    print(f"norm^2 = <mu, mu> = {inner(k, mu, mu):.12f}")

    print("\n== overlapping supports: the oracle merges, the main route does not ==")
    nu = SignedDiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5], 1)
    direct = mmd(k, dirac(0.0), nu)
    merged = mmd_oracle(k, dirac(0.0), nu)
    print(f"mmd  = {direct:.15f}")
    print(f"orac = {merged:.15f}   (delta {abs(direct - merged):.2e})")

    print("\n== integral identity ==")
    f_nu = kme_probe(k, nu)
    lhs = integrate(mu, f_nu)
    rhs = inner(k, mu, nu)
    print(f"mu(f_nu) = {lhs:.15f}")
    print(f"<mu, nu> = {rhs:.15f}   (delta {abs(lhs - rhs):.2e})")


if __name__ == "__main__":
    main()
