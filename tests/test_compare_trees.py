"""``tools/compare_trees.py compare`` on hand-made records: a renaming
alone is "lists only", and a renaming cannot hide a changed bit."""

import importlib.util
import pickle
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py"
LABEL = "master s1 seed0 eta=i planted x1"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(name="R_A1*C1", residual=1e-16):
    condition = {"name": name, "residual": residual, "threshold": 1e-9,
                 "passed": True}
    rank = {"name": "R1", "lhs": 3, "rhs": 3, "passed": True}
    report = {"consistent": True, "forms_agree": True,
              "compat_conditions": [], "mp_conditions": [condition],
              "rank_conditions": [rank]}
    solution = [((1, 1), (b"\0" * 16, b"\0" * 16))]
    return {
        "check": {"consistent": True, "forms_agree": True,
                  "conditions": [(name, True)], "ranks": [("R1", 3, 3, True)],
                  "report": report},
        "solve": {"outcome": "family", "particular_verifies": True,
                  "member_verifies": True, "params": [("W11", (1, 1))],
                  "particular": solution, "member": solution},
    }


def _compare(tmp_path, a, b):
    paths = []
    for name, rec in (("a.pkl", a), ("b.pkl", b)):
        path = tmp_path / name
        path.write_bytes(pickle.dumps({LABEL: rec}))
        paths.append(str(path))
    return _tool().compare(*paths)


def test_identical_records_exit_zero(tmp_path, capsys):
    assert _compare(tmp_path, _record(), _record()) == 0
    out = capsys.readouterr().out
    assert "1 instances: 0 with a differing verdict, 0 differing only" in out


def test_a_renaming_alone_counts_as_lists_only(tmp_path, capsys):
    assert _compare(tmp_path, _record(), _record(name="R_G1*L1")) == 1
    out = capsys.readouterr().out
    assert "bits differ" not in out
    assert "1 differing only in names, 0 differing in other bits" in out


def test_a_renaming_does_not_hide_a_changed_residual(tmp_path, capsys):
    renamed = _record(name="R_G1*L1", residual=2e-16)
    assert _compare(tmp_path, _record(), renamed) == 1
    out = capsys.readouterr().out
    assert f"bits differ: {LABEL}: check report" in out
    assert "0 differing only in names, 1 differing in other bits" in out
