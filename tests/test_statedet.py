import math
from pathlib import Path

import pytest

from mfglab.basis import SeparableField, Term
from mfglab.cli import run
from mfglab.coefficients import CoeffRecipe, NonlinearRecipe
from mfglab.config import load_config
from mfglab.grid import build_grid, norm
from mfglab.statedet import thm1_experiment, thm4_experiment
from mfglab.verify import EnsembleMember, generate_ensemble

COUPLED = CoeffRecipe(c0=1.0, b_gamma={(0,): 0.5, (2,): 0.3})
EPS_GRID = (0.05, 0.1, 0.2)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def member_curve(rep, member):
    """A member's ratios over the eps grid."""
    return [r.ratio for r in rep.rows if r.member == member]


def c_max(rep):
    """The largest finite per-eps maximum, inf when there is none."""
    vals = [v for v in rep.per_eps_max.values() if math.isfinite(v)]
    return max(vals) if vals else math.inf


def test_curve_non_increasing_per_member():
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    ens = generate_ensemble(4, 5, g)
    rep = thm1_experiment(ens, COUPLED, g, EPS_GRID, refine=False)
    for i in range(len(ens)):
        curve = member_curve(rep, i)
        assert len(curve) == len(EPS_GRID)
        assert all(curve[k] >= curve[k + 1] for k in range(len(curve) - 1))
    assert math.isfinite(c_max(rep))


def test_curve_equals_per_eps_norms():
    # one set of derivative parts per member serves every eps exactly
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(4, 3, g)
    rep = thm1_experiment(ens, COUPLED, g, EPS_GRID, refine=False)
    assert len(rep.rows) == 3 * len(EPS_GRID)
    for row in rep.rows:
        m = ens[row.member]
        assert row.lhs == (norm(m.u, "H21_interior", eps=row.eps)
                           + norm(m.v, "H21_interior", eps=row.eps))


def test_zero_members_excluded():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(4, 2, g, amplitude=0.0)
    rep = thm1_experiment(ens, COUPLED, g, (0.1,), refine=False)
    assert rep.excluded == (0, 1)
    assert rep.rows == ()


def test_eps_grid_validation():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(4, 1, g)
    with pytest.raises(ValueError, match="outside"):
        thm1_experiment(ens, COUPLED, g, (0.7,), refine=False)
    with pytest.raises(ValueError, match="slices"):
        thm1_experiment(ens, COUPLED, g, (0.49,), refine=False)
    with pytest.raises(ValueError, match="both start at the time node 0.125"):
        thm1_experiment(ens, COUPLED, g, (0.1, 0.11), refine=False)


@pytest.mark.parametrize("name", ["state_det", "nonlinear_diff"])
def test_shipped_drift_measures_refinement(name):
    # both passes integrate over one interval per eps, so the shipped drifts
    # read 1 (1.00020 and 0.99933)
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    assert abs(run(cfg).summary["drift"] - 1.0) <= 1e-3


def test_ratio_scale_invariance():
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    ens = generate_ensemble(8, 2, g)
    scaled = tuple(EnsembleMember(m.u_field.scaled(3.0), m.v_field.scaled(3.0), g)
                   for m in ens)
    r1 = thm1_experiment(ens, COUPLED, g, EPS_GRID, refine=False)
    r2 = thm1_experiment(scaled, COUPLED, g, EPS_GRID, refine=False)
    for a, b in zip(r1.rows, r2.rows):
        assert abs(a.ratio - b.ratio) <= 1e-12 * a.ratio


def test_refinement_drift_recorded():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    ens = generate_ensemble(4, 2, g)
    rep = thm1_experiment(ens, COUPLED, g, (0.1, 0.2), refine=True)
    assert rep.drift is not None and math.isfinite(rep.drift)


def pair_fields(lengths=(1.0,), T=1.0):
    u1 = SeparableField(lengths, T, (Term(1.0, ("cos",), (1,), 1),
                                     Term(0.4, ("cos",), (2,), 2)))
    v1 = SeparableField(lengths, T, (Term(0.8, ("cos",), (2,), 0),
                                     Term(-0.5, ("cos",), (1,), 2)))
    u2 = SeparableField(lengths, T, (Term(0.7, ("cos",), (1,), 1),
                                     Term(0.2, ("cos",), (3,), 1)))
    v2 = SeparableField(lengths, T, (Term(0.6, ("cos",), (2,), 1),
                                     Term(-0.3, ("cos",), (1,), 3)))
    return u1, v1, u2, v2


def test_identical_states_excluded():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    nl = NonlinearRecipe(a=1.0, kappa=0.3, p=0.2)
    u1, v1, _, _ = pair_fields()
    rep = thm4_experiment(((u1, v1), (u1, v1)), nl, g, (0.1,))
    assert rep.excluded == (0,)


def test_kappa_zero_matches_linear_difference():
    # with k = 0 and constant a the difference system is the linear system
    # with A = B = a*Lap and c0 = -p; ratios must agree to 1e-10
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    p_val = 0.3
    nl = NonlinearRecipe(a=1.0, kappa=0.0, p=p_val)
    u1, v1, u2, v2 = pair_fields()
    rep_nl = thm4_experiment(((u1, v1), (u2, v2)), nl, g, EPS_GRID)

    du = u1 - u2
    dv = v1 - v2
    ens = (EnsembleMember(du, dv, g),)
    linear = CoeffRecipe(c0=-p_val)
    rep_lin = thm1_experiment(ens, linear, g, EPS_GRID, refine=False)
    for a, b in zip(rep_nl.rows, rep_lin.rows):
        assert abs(a.ratio - b.ratio) <= 1e-10 * max(a.ratio, 1e-30)


def test_difference_scale_invariance():
    # scaling both pair members' difference by c scales lhs and rhs together
    g = build_grid(1.0, 1.0, 33, 33, ["x+"])
    nl = NonlinearRecipe(a=1.0, kappa=0.0, p=0.1)
    u1, v1, u2, v2 = pair_fields()
    base = thm4_experiment(((u1, v1), (u2, v2)), nl, g, EPS_GRID)
    du, dv = u1 - u2, v1 - v2
    u1s = u2 + du.scaled(2.0)
    v1s = v2 + dv.scaled(2.0)
    scaled = thm4_experiment(((u1s, v1s), (u2, v2)), nl, g, EPS_GRID)
    for a, b in zip(base.rows, scaled.rows):
        assert abs(a.ratio - b.ratio) <= 1e-9 * a.ratio


def test_m2_reported_and_monotone():
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    nl = NonlinearRecipe(a=1.0, kappa=0.5, p=0.2)
    u1, v1, u2, v2 = pair_fields()
    small = thm4_experiment(((u1, v1), (u2, v2)), nl, g, (0.1,))
    big = thm4_experiment(((u1.scaled(2.0), v1.scaled(2.0)),
                           (u2.scaled(2.0), v2.scaled(2.0))), nl, g, (0.1,))
    assert 0 < small.extras["m2"] < big.extras["m2"]
    assert 0 < small.extras["m1"] < big.extras["m1"]


def test_thm4_builds_the_pair_once_per_grid_pass(monkeypatch):
    # the coarse and the refined pass run one path: one _nonlinear_states
    # call each, the coarse one also giving m1 and m2
    import mfglab.statedet

    grids = []
    states = mfglab.statedet._nonlinear_states

    def counted(fields, nl):
        grids.append(nl.grid.nt)
        return states(fields, nl)

    monkeypatch.setattr(mfglab.statedet, "_nonlinear_states", counted)
    g = build_grid(1.0, 1.0, 17, 17, ["x+"])
    u1, v1, u2, v2 = pair_fields()
    nl = NonlinearRecipe(a=1.0, kappa=0.2, p=0.1)
    rep = thm4_experiment(((u1, v1), (u2, v2)), nl, g, (0.1,), refine=True)
    assert grids == [17, 33]
    assert rep.drift is not None and set(rep.extras) == {"m1", "m2"}
    coarse = thm4_experiment(((u1, v1), (u2, v2)), nl, g, (0.1,))
    assert grids == [17, 33, 17]
    assert (coarse.rows, coarse.extras) == (rep.rows, rep.extras)


def test_refined_nonlinear_diff_takes_one_difference_bound(monkeypatch):
    # the refined pass builds the fine pair's states and sources only: the
    # bounds m1 and m2 are reported for the coarse pair alone
    import mfglab.models
    from mfglab.cli import run
    from mfglab.config import load_config

    calls = []
    bound = mfglab.models._difference_bound

    def counted(*args):
        calls.append(args[0].grid.nt)
        return bound(*args)

    monkeypatch.setattr(mfglab.models, "_difference_bound", counted)
    cfg = load_config(None, experiment="nonlinear-diff",
                      overrides={"grid.nx": [17], "grid.nt": 17,
                                 "statedet.epsilons": [0.1, 0.2],
                                 "statedet.refine": True})
    report = run(cfg)
    assert report.summary["drift"] is not None
    assert calls == [17]
