"""The benchmark's own copy of the random blow-up sweep generator.

It reproduces `sample` from `scripts/random_blowup_sweep.py` as it stands
when the benchmark was defined, so later edits to that script do not change
the `sweep` workload.  Each instance scales random linear derivations by
the weight-zero coordinate x, so the constant rank drops along x = 0.
"""

import random


def sample(uhat, seed):
    """The next rank-dropping two-weight instance at or after `seed`.

    Returns (ring, action table, next seed); `uhat` is a namespace holding
    the imported `rings`, `lie`, `infinitesimal` and `blowup` modules.
    """
    rings, lie, inf, bl = uhat.rings, uhat.lie, uhat.infinitesimal, uhat.blowup
    while True:
        rng = random.Random(seed)
        seed += 1
        ny, nz = rng.randint(1, 2), rng.randint(1, 2)
        names = ["x"] + [f"y{i}" for i in range(ny)] + [f"z{i}" for i in range(nz)]
        R = rings.GradedRing(names, [0] + [-1] * ny + [-2] * nz)
        L = lie.GradedLieAlgebra([2, 1], [["a1"], ["b1"]])
        x = R.var("x")

        def rnd():
            return rng.choice([1, -1, 2]) * rng.randint(0, 1)

        t1 = {f"z{i}": x * rnd() for i in range(nz)}
        t2 = {f"y{i}": x * rnd() for i in range(ny)}
        for i in range(nz):
            t2[f"z{i}"] = sum((R.var(f"y{j}") * rnd() for j in range(ny)), R.zero())
        if not (any(p for p in t1.values()) and any(t2[f"y{i}"] for i in range(ny))):
            continue
        table = {"a1": t1, "b1": t2}
        action = lie.DerivationAction(rings.PresentedAlgebra(R), L, table)
        if action.validate() or inf.check_cdrs(action)["holds"] or not bl.check_wuu(action)[0]:
            continue
        return R, table, seed
