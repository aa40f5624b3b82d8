"""The refined pass of a sweep samples each member on the doubled grid just
before it is swept: its rows equal a sweep over members built on that grid
directly (for state-det at the eps nodes of the coarse grid), and its
memory does not grow with the member count.  A sweep also holds one weight
bundle at a time, so its memory beyond the weight-factor stacks does not
grow with the cell count."""

import gc
import tracemalloc
import weakref
from itertools import islice

import numpy as np
import pytest

import mfglab.statedet
import mfglab.verify
from mfglab.coefficients import CoeffRecipe, NonlinearRecipe
from mfglab.grid import build_grid
from mfglab.models import cosine_pairs, mms_case_ensemble
from mfglab.statedet import thm1_experiment, thm4_experiment
from mfglab.verify import estimate_constant, generate_ensemble

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})
NL_RECIPE = NonlinearRecipe(a=1.0, kappa=0.5, p=0.2)
FN_KINDS = ("LEMMA1", "THM3")
ENERGY_KINDS = ("ENERGY_3_8", "ENERGY_3_9")
LAMS = (1.0,)
S_VALUES = (0.5, 1.0)
EPS_GRID = (0.1, 0.2)


def ensemble(kinds, n, grid):
    if kinds == ENERGY_KINDS:
        return mms_case_ensemble(
            21, n, grid, COUPLED,
            lambda x: 1.0 + 0.3 * np.cos(np.pi * x),
            lambda x: 1.0 - 0.3 * np.cos(np.pi * x),
            q_min=0.05,
        )
    return generate_ensemble(7, n, grid, max_modes=2, t_degree=2)


def fields(ens):
    return [(m.u_field, m.v_field) for m in ens]


def capture(monkeypatch, module, name):
    """Record the return value of every call of ``module.name``."""
    calls = []
    orig = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(orig(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("kinds", [FN_KINDS, ENERGY_KINDS])
def test_refined_rows_equal_sweep_on_doubled_grid(kinds, monkeypatch):
    g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
    fine = g.refined(2)
    ens, direct = ensemble(kinds, 3, g), ensemble(kinds, 3, fine)
    assert fields(direct) == fields(ens)  # the same members, drawn on each grid
    expected = estimate_constant(kinds, direct, LAMS, S_VALUES, COUPLED, fine,
                                 refine=False)
    sweeps = capture(monkeypatch, mfglab.verify, "_grid_sweeps")
    estimate_constant(kinds, ens, LAMS, S_VALUES, COUPLED, g, refine=True)
    assert len(sweeps) == 2
    for (rows, cell_max, invalid), rep in zip(sweeps[1], expected):
        assert tuple(rows) == rep.rows
        assert (cell_max, tuple(invalid)) == (rep.cell_max, rep.invalid)


def assert_refined_pass_equals_run_on_doubled_grid(experiment, monkeypatch):
    """``experiment(grid, eps_grid, refine)``'s refined pass sweeps what a
    run on the doubled grid does at the eps the coarse pass reports: each
    eps moved inward to the coarse node its interval starts at."""
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    sweeps = capture(monkeypatch, mfglab.statedet, "_eps_sweep")
    rep = experiment(g, EPS_GRID, True)
    assert rep.eps_grid == (0.125, 0.25)  # 0.2 would start at 0.21875 on 33
    assert list(rep.per_eps_max) == [r.eps for r in rep.rows[:2]] == list(rep.eps_grid)
    expected = experiment(g.refined(2), rep.eps_grid, False)
    assert len(sweeps) == 3
    rows, excluded, per_eps = sweeps[1]
    assert tuple(rows) == expected.rows
    assert (tuple(excluded), per_eps) == (expected.excluded, expected.per_eps_max)
    assert rep.drift == max(per_eps.values()) / max(rep.per_eps_max.values())


def test_thm1_refined_rows_equal_run_on_doubled_grid(monkeypatch):
    assert_refined_pass_equals_run_on_doubled_grid(
        lambda grid, eps_grid, refine: thm1_experiment(
            ensemble(FN_KINDS, 3, grid), COUPLED, grid, eps_grid, refine=refine),
        monkeypatch)


def test_thm4_refined_rows_equal_run_on_doubled_grid(monkeypatch):
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    pairs = tuple(islice(cosine_pairs(5, g, 3, 3, 1.0), 2))
    assert_refined_pass_equals_run_on_doubled_grid(
        lambda grid, eps_grid, refine: thm4_experiment(
            pairs, NL_RECIPE, grid, eps_grid, refine=refine),
        monkeypatch)


# ---------------------------------------------------------------------------
# the refined pass holds one member at a time


def traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("experiment", ["functions", "cases", "thm1"])
def test_refined_peak_independent_of_member_count(experiment):
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    kinds = ENERGY_KINDS if experiment == "cases" else FN_KINDS
    peaks = []
    for n in (2, 12):
        ens = ensemble(kinds, n, g)
        if experiment == "thm1":
            peaks.append(traced_peak(
                lambda: thm1_experiment(ens, COUPLED, g, EPS_GRID, refine=True)))
        else:
            peaks.append(traced_peak(
                lambda: estimate_constant(kinds, ens, LAMS, S_VALUES, COUPLED, g,
                                          refine=True)))
    fine = g.refined(2)
    one_member = sum(f.sample(fine).values.nbytes for f in (ens[0].u_field, ens[0].v_field))
    # sampling the whole refined ensemble would add ten members' states
    assert peaks[1] - peaks[0] < 2 * one_member


# ---------------------------------------------------------------------------
# a sweep holds one weight bundle at a time

# the (m, lam_power) weight factors that LEMMA1 and THM3 read: (0, 0),
# (2, 2), (4, 4) and (1, 0) on the u side, (-1, 0), (1, 2) and (3, 4) on the v side
FN_POWERS = 7


def test_sweep_memory_beyond_stacks_independent_of_cell_count():
    g = build_grid(1.0, 1.0, 65, 65, ["x+"])
    ens = ensemble(FN_KINDS, 1, g)
    grid_array = g.st_weights.nbytes
    beyond_stacks = []
    for s_grid in ((0.5, 1.0), (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)):
        peak = traced_peak(lambda: estimate_constant(
            FN_KINDS, ens, LAMS, s_grid, COUPLED, g, refine=False))
        beyond_stacks.append(peak - len(s_grid) * FN_POWERS * grid_array)
    # holding every cell's bundle, or a cells x N product, would add
    # several grid arrays per cell
    assert beyond_stacks[1] - beyond_stacks[0] < 3 * grid_array


@pytest.mark.parametrize("kinds", [FN_KINDS, ENERGY_KINDS])
def test_sweep_drops_each_bundle_before_building_the_next(kinds, monkeypatch):
    g = build_grid(1.0, 1.0, 17, 17, ["x-", "x+"])
    built = []
    alive_at_build, alive_at_members = [], []

    def alive():
        return sum(ref() is not None for ref in built)

    orig_bundle = mfglab.verify.eval_weight_bundle

    def recorded_bundle(*args, **kwargs):
        alive_at_build.append(alive())
        bundle = orig_bundle(*args, **kwargs)
        built.append(weakref.ref(bundle))
        return bundle

    orig_members = mfglab.verify._members

    def recorded_members(*args, **kwargs):
        alive_at_members.append(alive())  # the stacks exist by now
        return orig_members(*args, **kwargs)

    monkeypatch.setattr(mfglab.verify, "eval_weight_bundle", recorded_bundle)
    monkeypatch.setattr(mfglab.verify, "_members", recorded_members)
    estimate_constant(kinds, ensemble(kinds, 2, g), LAMS, S_VALUES, COUPLED, g,
                      refine=True)
    assert len(built) == 2 * len(LAMS) * len(S_VALUES)
    assert alive_at_build == [0] * len(built)
    assert alive_at_members == [0, 0]
