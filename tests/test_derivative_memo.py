"""Each derivative of a swept member's fields is taken once, through the one
derivative memo the member holds, and a drawn ensemble holds no array."""

import functools
import hashlib
from collections import Counter
from itertools import islice

import numpy as np
import pytest

import mfglab.coefficients
import mfglab.grid
import mfglab.models
import mfglab.statedet
import mfglab.verify
from mfglab.coefficients import CoeffRecipe, NonlinearRecipe
from mfglab.grid import DiffMemo, GridFn, build_grid, diff
from mfglab.models import cosine_pairs, mms_case_ensemble
from mfglab.statedet import thm1_experiment, thm4_experiment
from mfglab.verify import estimate_constant, generate_ensemble, lemma3_kind

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})
FN_KINDS = ("LEMMA1", "LEMMA2", "THM3", "LEMMA4")
ENERGY_KINDS = ("ENERGY_3_8", "ENERGY_3_9")
LAMS = (1.0,)
S_VALUES = (0.5, 1.0)
EPS_GRID = (0.1, 0.2)
MODULES = (mfglab.grid, mfglab.coefficients, mfglab.models, mfglab.verify,
           mfglab.statedet)


def test_memo_equals_chained_diff_bit_for_bit():
    g = build_grid((1.0, 1.5), 1.0, (9, 11), 9, ["x1+"])
    f = GridFn(g, "space-time", np.random.default_rng(3).normal(size=g.shape))
    memo = DiffMemo(f)
    assert memo.diff() is memo
    for t_order, x in ((1, ()), (0, (0,)), (0, (1, 1)), (0, (0, 1)), (0, (1, 0)),
                       (2, ()), (1, (0, 0))):
        node = memo.diff(t_order=t_order, x=x)
        assert memo.diff(t_order=t_order, x=list(x)) is node  # taken once
        assert np.array_equal(node.values, diff(f, t_order=t_order, x=x).values)
    # a path: x-derivatives of the time derivative
    chained = diff(diff(f, t_order=1), x=(0, 0))
    assert np.array_equal(memo.diff(t_order=1).diff(x=(0, 0)).values, chained.values)
    # the stencils in another order are another entry
    assert memo.diff(x=(0, 1)) is not memo.diff(x=(1, 0))


def test_memo_refuses_a_slice():
    g = build_grid(1.0, 1.0, 9, 9, ["x+"])
    with pytest.raises(ValueError, match="space-time"):
        DiffMemo(GridFn(g, "spatial-slice", np.zeros(g.space_shape)))


# ---------------------------------------------------------------------------
# one swept member takes each (array, derivative path) once


@pytest.fixture
def stencil_calls(monkeypatch):
    """(array content, t_order, x) of every ``grid.diff`` call that applies a
    stencil, made through any module of the package."""
    calls = []
    orig = mfglab.grid.diff

    def counted(f, *, t_order=0, x=()):
        x = tuple(int(a) for a in x)
        if t_order or x:
            calls.append((hashlib.sha1(f.values.tobytes()).hexdigest(), t_order, x))
        return orig(f, t_order=t_order, x=x)

    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def assert_each_once(calls, expected):
    repeats = {k: n for k, n in Counter(calls).items() if n > 1}
    assert repeats == {}
    assert len(calls) == expected


def test_carleman_member_takes_each_derivative_once(stencil_calls):
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    estimate_constant(FN_KINDS, generate_ensemble(7, 1, g), LAMS, S_VALUES,
                      COUPLED, g, refine=False)
    # the residual: u_t, u_x, u_xx, v_t, v_x, v_xx (the operators, the
    # left sides, opA/opB and D0 read these); LEMMA4: the same six of u_t
    # and v_t, then F_t and G_t
    assert_each_once(stencil_calls, 14)


def test_case_member_takes_each_derivative_once(stencil_calls):
    g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
    ens = mms_case_ensemble(21, 1, g, COUPLED, 1.0, 1.0, q_min=0.02)
    stencil_calls.clear()  # drawing the case takes its own residual
    estimate_constant(FN_KINDS + ENERGY_KINDS, ens, LAMS, S_VALUES, COUPLED, g,
                      refine=False)
    # the consistency check's residual, then LEMMA4's, as above
    assert_each_once(stencil_calls, 14)


def test_state_det_member_takes_each_derivative_once(stencil_calls):
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    thm1_experiment(generate_ensemble(7, 1, g), COUPLED, g, EPS_GRID, refine=False)
    # the residual's six; the interior norms read them
    assert_each_once(stencil_calls, 6)


def test_nonlinear_pair_takes_each_derivative_once(stencil_calls):
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    pairs = tuple(islice(cosine_pairs(5, g, 2, 2, 1.0), 2))
    thm4_experiment(pairs, NonlinearRecipe(a=1.0, kappa=0.5, p=0.2), g, EPS_GRID)
    # the pair's states and bounds: t, x and xx of each state; a_x, a_xx,
    # kappa_x; (kappa v2)_x for m2; then x, xx and t of each state
    # difference for its interior norms
    assert_each_once(stencil_calls, 4 * 3 + 3 + 1 + 2 * 3)


def test_lemma3_sweep_takes_no_derivative(stencil_calls, monkeypatch):
    prop = mfglab.verify._Member.antiderivative
    taken = []

    def counted(member):
        taken.append(id(member))
        return prop.func(member)

    wrapped = functools.cached_property(counted)
    wrapped.__set_name__(mfglab.verify._Member, "antiderivative")
    monkeypatch.setattr(mfglab.verify._Member, "antiderivative", wrapped)
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    estimate_constant([lemma3_kind(p) for p in (0, 1, 2)], generate_ensemble(7, 3, g),
                      LAMS, S_VALUES, COUPLED, g, refine=False)
    # Lemma 3 reads u and its time antiderivative: no residual sources, no
    # stencil, and each member's antiderivative once for all three powers
    assert stencil_calls == []
    assert len(taken) == 3


# ---------------------------------------------------------------------------
# a draw holds no array: both ensembles are closed forms


def arrays_in(obj) -> int:
    """The number of ndarrays reachable from ``obj`` through sequences,
    dicts and instance attributes (functions are not entered)."""
    if isinstance(obj, np.ndarray):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(arrays_in(x) for x in obj)
    if isinstance(obj, dict):
        return sum(arrays_in(x) for x in (*obj.keys(), *obj.values()))
    if hasattr(obj, "__dict__") and not callable(obj):
        return sum(arrays_in(x) for x in vars(obj).values())
    return 0


def test_draws_hold_no_array():
    g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
    pairs = generate_ensemble(7, 3, g)
    recipes = mms_case_ensemble(21, 3, g, COUPLED, 1.0, 1.0, q_min=0.02)
    assert len(pairs) == len(recipes) == 3
    assert arrays_in(pairs) == arrays_in(recipes) == 0
    # the walk does reach a built case's arrays
    assert arrays_in(recipes[0].build(g)) > 0
