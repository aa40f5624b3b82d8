"""The refined pass of a sweep builds each member on the doubled grid just
before it is swept: its rows equal a sweep over members built on that grid
directly, and its memory does not grow with the member count."""

import gc
import tracemalloc

import numpy as np
import pytest

import mfglab.statedet
import mfglab.verify
from mfglab.coefficients import CoeffRecipe
from mfglab.grid import build_grid
from mfglab.models import mms_case_ensemble
from mfglab.statedet import thm1_experiment
from mfglab.verify import estimate_constant, generate_ensemble

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})
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


def instances(ens):
    return ens.cases if hasattr(ens, "cases") else ens.members


def fields(ens):
    return [(m.u_field, m.v_field) for m in instances(ens)]


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


def test_thm1_refined_rows_equal_run_on_doubled_grid(monkeypatch):
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    fine = g.refined(2)
    expected = thm1_experiment(ensemble(FN_KINDS, 3, fine), COUPLED, EPS_GRID,
                               refine=False)
    sweeps = capture(monkeypatch, mfglab.statedet, "_thm1_sweep")
    rep = thm1_experiment(ensemble(FN_KINDS, 3, g), COUPLED, EPS_GRID, refine=True)
    assert len(sweeps) == 2
    rows, excluded, per_eps = sweeps[1]
    assert tuple(rows) == expected.rows
    assert (tuple(excluded), per_eps) == (expected.excluded, expected.per_eps_max)
    assert rep.drift == max(per_eps.values()) / max(rep.per_eps_max.values())


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


def member_bytes(member) -> int:
    """Bytes of one member's space-time arrays (a case also holds its sources
    and their two modulations)."""
    arrays = [member.u, member.v]
    if hasattr(member, "F"):
        arrays += [member.F, member.G]
    total = sum(a.values.nbytes for a in arrays)
    if hasattr(member, "sources"):
        total += member.sources.q1.nbytes + member.sources.q2.nbytes
    return total


@pytest.mark.parametrize("experiment", ["functions", "cases", "thm1"])
def test_refined_peak_independent_of_member_count(experiment):
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    kinds = ENERGY_KINDS if experiment == "cases" else FN_KINDS
    peaks = []
    for n in (2, 12):
        ens = ensemble(kinds, n, g)
        if experiment == "thm1":
            peaks.append(traced_peak(
                lambda: thm1_experiment(ens, COUPLED, EPS_GRID, refine=True)))
        else:
            peaks.append(traced_peak(
                lambda: estimate_constant(kinds, ens, LAMS, S_VALUES, COUPLED, g,
                                          refine=True)))
    one_member = member_bytes(instances(ens)[0].resample(g.refined(2)))
    # building the whole refined ensemble would add ten members' arrays
    assert peaks[1] - peaks[0] < 2 * one_member
