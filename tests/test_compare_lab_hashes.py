"""The checkout-comparison tool's report reading, without running a config."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_lab_hashes", ROOT / "tools" / "compare_lab_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(rows, **summary):
    return {"tables": {"t": {"header": ["a", "b"], "rows": rows}}, "summary": summary}


def test_size_move_names_the_largest_relative_change_and_its_cell(tool):
    worst, where, other = tool.size_move(
        report([[1.0, 2.0], [10.0, 4.0]], c={"d": 5.0}),
        report([[1.0, 2.2], [11.0, 4.0]], c={"d": 5.0}))
    assert where == "t[0].b" and worst == pytest.approx(0.2 / 2.2)
    assert other == []


def test_nan_against_nan_is_no_difference(tool):
    assert tool.size_move(report([[math.nan, 1.0]], x=math.nan),
                          report([[math.nan, 1.0]], x=math.nan)) == (0.0, None, [])


def test_text_cells_and_one_sided_cells_are_listed(tool):
    worst, where, other = tool.size_move(
        report([["ok", 1.0]], gone=1.0, flag=True),
        report([["FLAGGED", 1.0]], new=2.0, flag=False))
    assert (worst, where) == (0.0, None)
    assert other == ["t[0].a", "summary.gone", "summary.flag", "summary.new"]
    # a value that turns non-finite is listed, not sized
    assert tool.size_move(report([[1.0, 1.0]]), report([[math.inf, 1.0]]))[2] == ["t[0].a"]


def test_equal_reports_do_not_move(tool):
    base = report([[1.0, "x"], [None, 3]], s={"k": [1, 2]})
    assert tool.size_move(base, report([[1.0, "x"], [None, 3]], s={"k": [1, 2]})) == (
        0.0, None, [])


def test_runs_hold_each_shipped_config_once_at_its_seed_and_both_floors(tool):
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.yaml"))
    at_shipped_seed = [label for label, path, extra in tool.RUNS
                       if path is not None and path.startswith("configs/") and not extra]
    assert sorted(at_shipped_seed) == shipped
    assert all(f"configs/{label}.yaml" == path for label, path, extra in tool.RUNS
               if label in shipped)
    assert [label for label, path, _ in tool.RUNS if path is None] == list(tool.FLOORS)


def test_moved_cells_are_counted_by_column_and_summary_key(tool):
    # an eps placed on another node renames the eps column and the per-eps
    # summary keys, and moves no lhs, rhs or ratio: only the labels moved
    def ceps(eps, drift):
        rows = [[e, m, 1.0 + m, 2.0, (1.0 + m) / 2.0] for e in eps for m in (0, 1)]
        return {"tables": {"ceps": {"header": ["epsilon", "member", "lhs", "rhs", "ratio"],
                                    "rows": rows}},
                "summary": {"per_eps_max": {repr(e): 1.0 for e in eps},
                            "drift": drift, "excluded_members": []}}

    base, head = ceps((0.05, 0.1), 1.0081), ceps((0.0625, 0.1), 1.0081)
    assert tool.moved_by_column(base, head) == {"ceps.epsilon": (2, 4),
                                                 "summary.per_eps_max": (2, 3)}
    assert tool.column_of("summary.per_eps_max.0.05") == "summary.per_eps_max"
    assert tool.column_of("summary.k[1].x") == "summary.k"
    # a value move is counted in its own column
    head = ceps((0.05, 0.1), 1.0002)
    assert tool.moved_by_column(base, head) == {"summary.drift": (1, 1)}
    assert tool.moved_by_column(base, base) == {}
