import functools
import importlib.util
import pathlib

import pytest

from uhat.rings import GradedRing, PresentedAlgebra
from uhat.lie import DerivationAction, GradedLieAlgebra


def one_weight_jump():
    """Q[x,y], xi.y = x: the stabiliser jumps along x = 0."""
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    return DerivationAction(A, L, {"xi": {"y": R.var("x")}})


def one_weight_free():
    """Q[x,y], xi.y = 1: free translation."""
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi"]])
    return DerivationAction(A, L, {"xi": {"y": R.one()}})


def two_weight_chain():
    """Q[x,y,z], xi2: z->y->x->0 at weight 1, xi1: z->x at weight 2."""
    R = GradedRing(["x", "y", "z"], [0, -1, -2])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["xi1"], ["xi2"]])
    return DerivationAction(
        A, L, {"xi1": {"z": R.var("x")}, "xi2": {"z": R.var("y"), "y": R.var("x")}}
    )


def heisenberg_free():
    """Heisenberg translating its own coordinate ring (free action)."""
    R = GradedRing(["p", "q", "c"], [-1, -1, -2])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["e_c"], ["e_p", "e_q"]], {("e_p", "e_q"): {"e_c": 1}})
    return DerivationAction(
        A,
        L,
        {"e_c": {"c": R.one()}, "e_p": {"p": R.one()}, "e_q": {"q": R.one(), "c": R.var("p")}},
    )


def heisenberg_scaled():
    """Heisenberg action damped by powers of a weight-zero coordinate."""
    R = GradedRing(["x", "p", "q", "c"], [0, -1, -1, -2])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([2, 1], [["e_c"], ["e_p", "e_q"]], {("e_p", "e_q"): {"e_c": 1}})
    x = R.var("x")
    return DerivationAction(
        A,
        L,
        {
            "e_c": {"c": x * x},
            "e_p": {"p": x},
            "e_q": {"q": x, "c": x * R.var("p")},
        },
    )


def rank_drop_pair():
    """Two one-weight vectors, one acting by zero: minimal Fitting index 1."""
    R = GradedRing(["x", "y"], [0, -1])
    A = PresentedAlgebra(R)
    L = GradedLieAlgebra([1], [["xi1", "xi2"]])
    return DerivationAction(A, L, {"xi1": {"y": R.var("x")}})


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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
    """(label, chart) for the four failing scenario files and the first six sweep instances."""
    from uhat.blowup import build_chart, centre, construct_b
    from uhat.scenario import Options, load_scenario

    actions = []
    for name in ("one_weight", "two_weight", "rank_drop_pair", "heisenberg_scaled"):
        scenario = load_scenario(SCENARIOS / f"{name}.uhat")
        actions.append((name, scenario.build(), scenario.options))
    seed = 1
    for i in range(6):
        action, seed = sweep_script().sample(seed)
        actions.append((f"sweep_{i}", action, Options()))
    charts = []
    for label, action, options in actions:
        cd = centre(action, options.degree_bound)
        elements = construct_b(action, cd)
        chart = build_chart(action, cd, elements, j_search_degree=options.j_search_degree)
        charts.append((label, chart))
    return charts


def random_two_level_action(seed):
    """The sweep script's random rank-dropping two-weight action at `seed`."""
    return sweep_script().sample(seed)[0]


@pytest.fixture
def ga_jump():
    return one_weight_jump()


@pytest.fixture
def ga_free():
    return one_weight_free()


@pytest.fixture
def chain3():
    return two_weight_chain()
