import functools
import importlib.util
import pathlib

import pytest

from uhat.scenario import load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _scenario_action(name):
    """A fresh derivation action from `scenarios/<name>.uhat`."""
    return load_scenario(SCENARIOS / f"{name}.uhat").build()


def one_weight_jump():
    """Q[x,y], xi.y = x: the stabiliser jumps along x = 0."""
    return _scenario_action("one_weight")


def one_weight_free():
    """Q[x,y], xi.y = 1: free translation."""
    return _scenario_action("one_weight_free")


def two_weight_chain():
    """Q[x,y,z], xi2: z->y->x->0 at weight 1, xi1: z->x at weight 2."""
    return _scenario_action("two_weight")


def heisenberg_free():
    """Heisenberg translating its own coordinate ring (free action)."""
    return _scenario_action("heisenberg_free")


def heisenberg_scaled():
    """Heisenberg action damped by powers of a weight-zero coordinate."""
    return _scenario_action("heisenberg_scaled")


def rank_drop_pair():
    """Two one-weight vectors, one acting by zero: minimal Fitting index 1."""
    return _scenario_action("rank_drop_pair")


@functools.cache
def sweep_script():
    """`scripts/random_blowup_sweep.py`, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "random_blowup_sweep.py"
    spec = importlib.util.spec_from_file_location("random_blowup_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@functools.cache
def blowup_charts():
    """(label, action, chart): four failing scenario files, then the first six sweep instances."""
    from uhat.blowup import build_chart, centre, construct_b
    from uhat.quotient import DEGREE_BOUND

    actions = []
    for name in ("one_weight", "two_weight", "rank_drop_pair", "heisenberg_scaled"):
        actions.append((name, load_scenario(SCENARIOS / f"{name}.uhat").build()))
    seed = 1
    for i in range(6):
        action, seed = sweep_script().sample(seed)
        actions.append((f"sweep_{i}", action))
    charts = []
    for label, action in actions:
        cd = centre(action, DEGREE_BOUND)
        elements = construct_b(action, cd)
        chart = build_chart(action, cd, elements)
        charts.append((label, action, chart))
    return charts


def random_two_level_action(seed):
    """The sweep script's random rank-dropping two-weight action at `seed`."""
    return sweep_script().sample(seed)[0]


def nilpotent_sweep_sample(seed):
    """The sweep script's `sample` over a non-reduced algebra: (action, next seed).

    A weight-0 variable u with relation u^2 joins x, and each entry that
    `sample` draws as x*c is c1*x + c2*u + c3*x*u, each c drawn as there.
    So a witness product can be nilpotent, or zero, modulo the relations.
    """
    import random

    from uhat.blowup import check_wuu
    from uhat.infinitesimal import check_cdrs
    from uhat.lie import DerivationAction, GradedLieAlgebra
    from uhat.rings import GradedRing, PresentedAlgebra

    while True:
        rng = random.Random(seed)
        seed += 1
        ny, nz = rng.randint(1, 2), rng.randint(1, 2)
        names = ["x", "u"] + [f"y{i}" for i in range(ny)] + [f"z{i}" for i in range(nz)]
        R = GradedRing(names, [0, 0] + [-1] * ny + [-2] * nz)
        x, u = R.var("x"), R.var("u")
        A = PresentedAlgebra(R, [u * u])
        L = GradedLieAlgebra([2, 1], [["a1"], ["b1"]])

        def rnd():
            return rng.choice([1, -1, 2]) * rng.randint(0, 1)

        def weight_zero():
            return x * rnd() + u * rnd() + x * u * rnd()

        t1 = {f"z{i}": weight_zero() for i in range(nz)}
        t2 = {f"y{i}": weight_zero() for i in range(ny)}
        for i in range(nz):
            t2[f"z{i}"] = sum((R.var(f"y{j}") * rnd() for j in range(ny)), R.zero())
        if not (any(p for p in t1.values()) and any(t2[f"y{i}"] for i in range(ny))):
            continue
        action = DerivationAction(A, L, {"a1": t1, "b1": t2})
        if action.validate() or check_cdrs(action)["holds"] or not check_wuu(action)[0]:
            continue
        return action, seed


@pytest.fixture
def ga_jump():
    return one_weight_jump()


@pytest.fixture
def ga_free():
    return one_weight_free()


@pytest.fixture
def chain3():
    return two_weight_chain()
