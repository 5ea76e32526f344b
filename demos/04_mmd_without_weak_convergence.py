#!/usr/bin/env python3
"""The counterexample: MMD convergence without weak convergence.

Construction, step by step:

  1. Scale a gaussian by a field g vanishing only at xi: the new kernel k'
     maps delta_xi to the zero function, so |P_n - delta_xi| = |P_n| for
     any P_n supported where g > 0.
  2. Shift: kappa = k' + 1 separates all signed measures again (no measure
     is silenced), but induces exactly k''s metric on probability measures.
  3. Diffuse: build P_n with every atom far from xi and |P_n| -> 0.

Under kappa, the P_n converge in MMD to delta_xi.  Yet a bump function
sitting on xi integrates to 0 against every P_n (versus 1 against the
limit), the mass inside every fixed ball is 0 forever, and the total mass
stays 1: the sequence converges to nothing in the weak sense -- its mass
escapes to infinity.  The probe report states both findings side by side.
"""

import numpy as np

from mmdlab import (
    ExclusionRegion,
    MeasureSequence,
    bump,
    diffusing_sequence,
    dirac,
    dirac_null_kernel,
    gaussian,
    integrate,
    mmd,
    norm,
    probe_sequence,
    shift_kernel,
)


def main():
    xi = np.zeros(1)
    base = gaussian(sigma=1.0, dim=1)
    null_k = dirac_null_kernel(base, xi)
    kappa = shift_kernel(null_k, 1.0)
    print(f"|delta_xi| under the scaled kernel: {norm(null_k, dirac(xi))!r}")

    excl = ExclusionRegion(xi, radius=9.0)
    sizes = (2, 4, 8, 16, 32, 64)
    parts = [diffusing_sequence(null_k, n, 1.0 / n, excl) for n in sizes]
    target = dirac(xi)
    hat_on_xi = bump(xi, 0.5, 1.0)

    print("\nn     mmd_kappa(P_n, delta_xi)  |P_n|_k'      P_n(bump at xi)")
    for n, p_n in zip(sizes, parts):
        d = mmd(kappa, p_n, target)
        print(f"{n:<5} {d:.9e}        {norm(null_k, p_n):.9e}  {integrate(p_n, hat_on_xi):.1f}")

    seq = MeasureSequence(tuple(parts), indices=sizes)
    report = probe_sequence(seq, target, kappa, ball_center=xi)
    print("\nverdicts:")
    for key, value in report.verdicts.as_dict().items():
        shown = "n/a" if value is None else value
        print(f"  {key:<22} {shown}")
    print(
        "\nthe MMD row settles while every weak probe refuses: the distance"
        "\nconverges to a limit the measures never weakly reach."
    )


if __name__ == "__main__":
    main()
