#!/usr/bin/env python3
"""Run the singularity gallery through both computation routes.

For each gallery function f the critical locus X = Z(df) is evaluated at a
critical point twice: via the Milnor route (local colength of the Jacobian
ideal from a Mora standard basis, and the Milnor-fibre formula) and via the
cycle route (Euler obstruction of the distinguished cycle of the normal cone,
whose coefficients are read off the multiplicities of the roots of the
eliminants, with no Mora basis).  The classic gallery is taken at the origin;
the last rows are the critical points away from the origin of functions in
sheared coordinates whose critical points are multiple roots.  The two
integers must agree; the script prints the comparison table and exits
nonzero on any mismatch.
"""

import sys
import time

from nuchi import Ring, behrend_report
from nuchi.cycles import nu_from_cycle, presentation_from_critical_locus

R1 = Ring(("x",))
R2 = Ring(("x", "y"))

# critical points of mu 4, 4 and of mu 4, 2
SHEARED = [
    ("(x^2 - 1)^3 + (x + y)^3", [(1, -1), (-1, 1)]),
    ("1/4*x^4 - 3/2*x^2 + 2*x + 1/3*(y - 2*x + 1)^3", [(1, 1), (-2, -5)]),
]


def gallery():
    """(text of f, ring, point) rows."""
    items = [("x^3", R1, (0,)), ("x^3 + y^3", R2, (0, 0))]
    items += [(f"x^{k + 1} + y^2", R2, (0, 0)) for k in range(1, 9)]
    items.append(("x*y", R2, (0, 0)))
    items += [(text, R2, point) for text, points in SHEARED for point in points]
    return items


def main() -> int:
    print(
        f"{'f':>46} {'point':>8} {'mu (Mora)':>9} {'nu (Milnor)':>12} {'nu (cycle)':>11} "
        f"{'agree':>6}"
    )
    started = time.monotonic()
    failures = 0
    rows = gallery()
    for text, ring, point in rows:
        f = ring.parse(text)
        report = behrend_report(f, point)
        cycle_nu = nu_from_cycle(presentation_from_critical_locus(f), point)
        ok = report.nu == cycle_nu
        failures += not ok
        coords = ",".join(map(str, point))
        print(
            f"{text:>46} {coords:>8} {report.mu:>9} {report.nu:>12} {cycle_nu:>11} "
            f"{'yes' if ok else 'NO'}"
        )
    print(f"\n{len(rows)} critical points checked in {time.monotonic() - started:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
