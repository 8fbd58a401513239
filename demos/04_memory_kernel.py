"""Time-nonlocal route: integrate the memory-kernel equation and compare.

The renewal process with two-exponential waits obeys
d Phi / dt = int_0^t k(t - tau) [Z . Z - 1] Phi(tau) d tau with the scalar
kernel k(t) = p exp(-s t). On the coherence the bracket acts as -2 (see
``solve_volterra``), so dq/dt = -2 int_0^t k(t - tau) q(tau) d tau.
The Volterra integration of that scalar equation must reproduce the
closed-form coherence factor, with second-order convergence in the step --
including for p > s^2/4, where no real rate pair (l1, l2) exists but the
kernel (and the dynamics) is still perfectly well defined.
"""

import numpy as np

from qsemimarkov import (
    DephasingSemiMarkov,
    q_of_t,
    solve_volterra,
)


def main() -> None:
    for s, p in ((1.0, 0.1), (1.0, 3.0)):
        proc = DephasingSemiMarkov(s=s, p=p)
        print(f"s={s:g}, p={p:g}")
        prev = None
        for dt in (8e-3, 4e-3, 2e-3):
            sol = solve_volterra(p, s, 5.0, dt)
            q_num = sol.coherence
            q_ref = np.asarray(q_of_t(proc, sol.times))
            dev = float(np.abs(q_num - q_ref).max())
            note = "" if prev is None else f"  ratio {prev / dev:.3f}"
            print(f"  dt={dt:g}: max |q_volterra - q_closed| = {dev:.3e}{note}")
            prev = dev


if __name__ == "__main__":
    main()
