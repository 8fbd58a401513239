"""Three witnesses of non-Markovianity, and where they agree.

The trace-distance revival measure (information backflow), the
intermediate-map Choi scan, and the closed-form divisibility boundary all
flag the same transition: the dephasing family leaves the CP-divisible
regime exactly when p exceeds s^2 / 8.
"""

import numpy as np

from qsemimarkov import (
    DephasingSemiMarkov,
    blp_measure,
    cp_divisibility_scan,
)


def _violations(proc, grid) -> str:
    report = cp_divisibility_scan(proc, grid)
    first = (f"{report.first_violation:.4f}"
             if report.first_violation is not None else "none")
    return f"{report.violation_count} (first at t = {first})"


def main() -> None:
    for p in (0.1, 3.0):
        proc = DephasingSemiMarkov(s=1.0, p=p)
        blp = blp_measure(proc, 10.0)
        print(f"s=1, p={p:g} [{proc.regime()}]")
        print(f"  revival measure      : {blp.measure:.6f}")
        print(f"  violating steps      : "
              f"{_violations(proc, np.linspace(0.0, 10.0, 1000))}")

    boundary = 1.0**2 / 8.0
    print(f"\nboundary at s=1: p* = s^2/8 = {boundary:g}; the scan on "
          f"[0, 60] either side of it")
    for p in (0.98 * boundary, 1.02 * boundary):
        proc = DephasingSemiMarkov(s=1.0, p=p)
        print(f"  p={p:.5f} [{proc.regime()}]: violating steps "
              f"{_violations(proc, np.linspace(0.0, 60.0, 1200))}")


if __name__ == "__main__":
    main()
