"""Lower bounds for truncated Grothendieck constants, and the Blei check.

Replacing the signs in a bilinear sup-norm problem by unit vectors on the
sphere S^(d-1) can only increase the value; the ratio of the spherical
maximum to 1 over extreme coefficient matrices gives a lower bound for
the order-d truncated Grothendieck constant. d = 1 is solved by exact
sign enumeration, d >= 2 by alternating maximization with deterministic
seeded restarts. The script also prints the Blei KKT maximum, exactly 1,
which blei_kkt_max proves by two polynomial identities checked exactly.

Run:  python3 demos/04_grothendieck_bounds.py [--restarts 32] [--seed 0]
"""

import argparse
import math
from fractions import Fraction

from extremeforms.grothendieck import (
    blei_kkt_max,
    inner_sphere_max,
    kg_lower_bound,
)
from extremeforms.search import extreme_points


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--restarts", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    es22 = extreme_points(2, 2)

    # ----------------------------------------------------------------------
    # a single matrix first: the half-coefficient matrix reaches sqrt(2)
    # once the signs may rotate in the plane (d = 2)
    # ----------------------------------------------------------------------
    chsh = next(p for p in es22.points
                if all(abs(c) == Fraction(1, 2) for c in p.coeffs))
    for d in (1, 2):
        config = inner_sphere_max(chsh, d, restarts=args.restarts,
                                  seed=args.seed)
        print(f"inner_sphere_max(half matrix, d={d}) = {config.value:.9f}")
    print(f"  sqrt(2) = {math.sqrt(2):.9f}")
    print()

    # ----------------------------------------------------------------------
    # scan the full extreme set: lower bounds grow with d and start at
    # exactly 1 for d = 1 (signs cannot beat the sup norm)
    # ----------------------------------------------------------------------
    for d in (1, 2, 3):
        report = kg_lower_bound(2, d, es22, restarts=args.restarts,
                                seed=args.seed)
        note = f"  (= {report.exact_note})" if report.exact_note else ""
        print(f"{report.name}: {report.value:.9f}{note}")
        print(f"  attained at {tuple(str(c) for c in report.argmax.coeffs)}")
    print()

    # ----------------------------------------------------------------------
    # Blei KKT maximum: two polynomial identities, checked exactly on a
    # rational grid, bound the objective by 1, and two witnesses attain it
    # ----------------------------------------------------------------------
    print(f"blei_kkt_max = {blei_kkt_max()} (proved: 1)")


if __name__ == "__main__":
    main()
