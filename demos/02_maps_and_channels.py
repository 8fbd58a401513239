"""Dynamical maps as Kraus sets, and the CP witness of their step maps.

Every snapshot Phi(t) of either family is a CPTP channel; the propagator
between two snapshots, V = Phi(t2) Phi(t1)^{-1}, is CPTP only while the
dynamics is CP-divisible. Past the boundary its Choi matrix picks up a
negative eigenvalue -- the witness the divisibility scan automates. For
dephasing that eigenvalue is min(0, 1 - |q(t2)/q(t1)|), and the snapshot
Phi(t) is the step map from 0 to t.
"""

import numpy as np

from qsemimarkov import DephasingSemiMarkov, cp_divisibility_scan, q_of_t


def main() -> None:
    proc = DephasingSemiMarkov(s=1.0, p=3.0)
    t = 0.4
    # Kraus set {sqrt((1+q)/2) 1, sqrt((1-q)/2) Z}: Frobenius norms sqrt(1 +- q)
    q = float(q_of_t(proc, t))
    print(f"Phi({t:g}) Kraus weights:",
          ", ".join(f"{np.sqrt(w):.4f}" for w in (1.0 + q, 1.0 - q)))
    report = cp_divisibility_scan(proc, [0.0, t])
    print(f"snapshot CPTP check: ok={report.cp_divisible}, "
          f"min Choi eigenvalue {report.min_eigenvalues[0]:.2e}")

    # (0.2, 0.4): coherence shrinks, the propagator is a channel.
    # (0.8, 1.0): inside the first revival |q| grows, CP fails.
    for t1, t2 in ((0.2, 0.4), (0.8, 1.0)):
        report = cp_divisibility_scan(proc, [t1, t2])
        flag = "CPTP" if report.cp_divisible else "NOT CP"
        print(f"V({t2:g} <- {t1:g}): min Choi eigenvalue "
              f"{report.min_eigenvalues[0]:+.4f}  [{flag}]")


if __name__ == "__main__":
    main()
