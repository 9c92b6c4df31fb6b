"""Randomised stress sweep: blow up random rank-dropping two-weight actions.

Each instance scales random linear derivations by the weight-zero
coordinate, so the constant-rank condition fails along its zero locus; the
sweep builds the centre, the recursive elements and the chart, and verifies
the repaired condition plus all exact certificates.  It then builds the
chart's staged quotient and verifies it.  The exit code is 1 when any check
fails.

Each trial prints its wall time; the last line names the slowest instance
next to the total, as the worst instance counts as much as the total.

Usage: python scripts/random_blowup_sweep.py [count] [seed]
"""

import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from uhat import blowup as bl
from uhat.infinitesimal import check_cdrs
from uhat.lie import DerivationAction, GradedLieAlgebra
from uhat.quotient import staged_quotient, verify_quotient
from uhat.rings import GradedRing, PresentedAlgebra


def sample(seed):
    while True:
        rng = random.Random(seed)
        seed += 1
        ny, nz = rng.randint(1, 2), rng.randint(1, 2)
        names = ["x"] + [f"y{i}" for i in range(ny)] + [f"z{i}" for i in range(nz)]
        R = GradedRing(names, [0] + [-1] * ny + [-2] * nz)
        A = PresentedAlgebra(R)
        L = GradedLieAlgebra([2, 1], [["a1"], ["b1"]])
        x = R.var("x")

        def rnd():
            return rng.choice([1, -1, 2]) * rng.randint(0, 1)

        t1 = {f"z{i}": x * rnd() for i in range(nz)}
        t2 = {f"y{i}": x * rnd() for i in range(ny)}
        for i in range(nz):
            t2[f"z{i}"] = sum((R.var(f"y{j}") * rnd() for j in range(ny)), R.zero())
        if not (any(p for p in t1.values()) and any(t2[f"y{i}"] for i in range(ny))):
            continue
        action = DerivationAction(A, L, {"a1": t1, "b1": t2})
        if action.validate() or check_cdrs(action)["holds"] or not bl.check_wuu(action)[0]:
            continue
        return action, seed


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    t0 = time.perf_counter()
    walls = []
    for trial in range(count):
        t_trial = time.perf_counter()
        action, seed = sample(seed)
        cd = bl.centre(action)
        els = bl.construct_b(action, cd)
        chart = bl.build_chart(action, cd, els)
        rep = bl.verify_chart_cdrs(chart)
        ok = rep["holds"] and rep["certificate_ok"]
        beta_ok = True
        for level, bs in els.per_level.items():
            w = action.lie.weights[level - 1]
            for mu in range(len(bs)):
                for p in action.lie.pbw_monomials_of_weight(w, exact=True):
                    beta_ok = beta_ok and bl.beta_check(action, cd, els, level, mu, p)
        quotient_ok = ok and verify_quotient(staged_quotient(chart.action))["ok"]
        wall = time.perf_counter() - t_trial
        walls.append((wall, trial, action.ring.names))
        print(
            f"trial {trial:>3}: vars={action.ring.names} k={cd.k_vector} a={cd.a} "
            f"chart_ok={ok} beta_ok={beta_ok} quotient_ok={quotient_ok} wall={wall:.2f}s"
        )
        if not (ok and beta_ok and quotient_ok):
            sys.exit(1)
    summary = f"{count} instances verified in {time.perf_counter() - t0:.1f}s"
    if walls:
        wall, trial, names = max(walls)
        summary += f"; slowest: trial {trial} vars={names} in {wall:.2f}s"
    print(summary)


if __name__ == "__main__":
    main()
