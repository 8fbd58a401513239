"""Dynamical maps as Kraus sets, superoperators, and Choi matrices.

Every snapshot Phi(t) of either family is a CPTP channel; the propagator
between two snapshots, V = Phi(t2) Phi(t1)^{-1}, is CPTP only while the
dynamics is CP-divisible. Past the boundary its Choi matrix picks up a
negative eigenvalue -- the witness the divisibility scan automates.
"""

import numpy as np

from qsemimarkov import (
    DephasingSemiMarkov,
    choi_of_superop,
    intermediate_map,
    is_cptp,
    map_at,
    superop_at,
)


def main() -> None:
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    t = 0.4
    kraus = map_at(proc, t)
    print(f"Phi({t:g}) Kraus weights:",
          ", ".join(f"{np.linalg.norm(K):.4f}" for K in kraus))
    report = is_cptp(choi_of_superop(superop_at(proc, t)))
    print(f"snapshot CPTP check: ok={report.ok}, "
          f"min Choi eigenvalue {report.min_eigenvalue:.2e}, "
          f"trace defect {report.trace_defect:.2e}")

    # (0.2, 0.4): coherence shrinks, the propagator is a channel.
    # (0.8, 1.0): inside the first revival |q| grows, CP fails.
    for t1, t2 in ((0.2, 0.4), (0.8, 1.0)):
        V = intermediate_map(superop_at(proc, t2), superop_at(proc, t1))
        eig = np.linalg.eigvalsh(0.5 * (choi_of_superop(V)
                                        + choi_of_superop(V).conj().T))
        flag = "CPTP" if eig.min() > -1e-10 else "NOT CP"
        print(f"V({t2:g} <- {t1:g}): min Choi eigenvalue "
              f"{eig.min():+.4f}  [{flag}]")


if __name__ == "__main__":
    main()
