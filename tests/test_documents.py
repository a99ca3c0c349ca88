import dataclasses
import json

import pytest

from qsylv import QMatrix, documents as docs
from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted
from qsylv.solvers.master import MasterInstance


def test_matrix_round_trip(rand_q):
    m = rand_q(3, 2)
    doc = docs.matrix_to_doc(m)
    back = docs.matrix_from_doc(doc, "M")
    assert (m - back).norm() == 0.0
    # through actual JSON text, floats must survive bitwise
    back2 = docs.matrix_from_doc(json.loads(json.dumps(doc)), "M")
    assert (m.w == back2.w).all() and (m.z == back2.z).all()


def test_matrix_errors():
    with pytest.raises(docs.ParseError):
        docs.matrix_from_doc({"rows": 1, "cols": 1}, "A1")
    with pytest.raises(docs.ParseError):
        docs.matrix_from_doc({"rows": 1, "cols": 2, "entries": [[[1, 0, 0, 0]]]},
                             "A1")
    with pytest.raises(docs.ParseError):
        docs.matrix_from_doc({"rows": 1, "cols": 1, "entries": [[[1, 0]]]},
                             "A1")


@pytest.mark.parametrize("entries, where", [
    ([[{"w": 1, "x": 0, "y": 0, "z": 0}]], r"entry \(0,0\)"),
    ([[7]], r"entry \(0,0\)"),
    ([7], "row 0"),
    (7, "entries"),
    ("abcd", "entries"),
    ([[[1, 0, "2.5", 0]]], r"entry \(0,0\) is not numeric"),
    ([[[1, 0, True, 0]]], r"entry \(0,0\) is not numeric"),
    # a dict replaces a dimension of a well-formed document instead
    ({"rows": 1.9}, "rows"),
    ({"rows": True}, "rows"),
    ({"cols": True}, "cols"),
    ({"cols": "1"}, "cols"),
])
def test_malformed_entries_raise_parse_error(entries, where):
    doc = {"rows": 1, "cols": 1, "entries": entries}
    if isinstance(entries, dict):
        doc = {"rows": 1, "cols": 1, "entries": [[[1, 0, 0, 0]]], **entries}
    with pytest.raises(docs.ParseError, match=f"'A1'.*{where}"):
        docs.matrix_from_doc(doc, "A1")


@pytest.mark.parametrize("variant", VARIANTS)
def test_instance_round_trip(variant):
    inst, _ = gen_planted(variant, 2, seed=3, eta="k")
    doc = json.loads(json.dumps(docs.instance_to_doc(inst)))
    back = docs.instance_from_doc(doc)
    assert type(back) is type(inst)
    assert docs.variant_of(back) == variant
    for f in dataclasses.fields(VARIANT_TABLE[variant].instance_type):
        if f.name == "eta":
            continue
        a, b = getattr(inst, f.name), getattr(back, f.name)
        assert (a.w == b.w).all() and (a.x == b.x).all()
        assert (a.y == b.y).all() and (a.z == b.z).all()


def test_unknown_key_is_named():
    inst, _ = gen_planted("two-term", 2, seed=3)
    doc = docs.instance_to_doc(inst)
    doc["Q9"] = doc["E1"]
    with pytest.raises(docs.ParseError, match="Q9"):
        docs.instance_from_doc(doc)


def test_missing_blocks_become_empty():
    inst, _ = gen_planted("master", 2, seed=5)
    doc = docs.instance_to_doc(inst)
    # drop the whole first pair: the lifted three-unknown shape
    for key in ("A1", "B1", "C1", "D1", "E1", "F1"):
        del doc[key]
    back = docs.instance_from_doc(doc)
    assert back.A1.shape == (0, 0)
    assert back.E1.shape == (inst.Cc.rows, 0)
    assert back.C1.shape == (0, inst.Cc.cols)


def test_dim_conflicts_are_reported():
    inst, _ = gen_planted("master", 2, seed=5)
    doc = docs.instance_to_doc(inst)
    doc["E2"] = docs.matrix_to_doc(QMatrix.zeros(1, 1))
    with pytest.raises(docs.ParseError):
        docs.instance_from_doc(doc)


def test_eta_aliases():
    inst, _ = gen_planted("eta-full", 2, seed=6, eta="j")
    doc = docs.instance_to_doc(inst)
    for i in (1, 2, 3, 4):
        doc[f"B{i}"] = doc.pop(f"C{i}")
    back = docs.instance_from_doc(doc)
    assert (back.C2 - inst.C2).norm() == 0.0
    assert back.eta == "j"


def test_three_term_c_alias():
    inst, _ = gen_planted("three-term", 2, seed=7)
    doc = docs.instance_to_doc(inst)
    doc["Cc"] = doc.pop("C")
    back = docs.instance_from_doc(doc)
    assert (back.C - inst.C).norm() == 0.0


def test_solution_round_trip():
    inst, wit = gen_planted("mixed", 2, seed=9)
    doc = json.loads(json.dumps(docs.solution_to_doc("mixed", wit)))
    back = docs.solution_from_doc(doc)
    assert all((a - b).norm() == 0.0 for a, b in zip(wit, back))
    with pytest.raises(docs.ParseError, match="X2"):
        del doc["X2"]
        docs.solution_from_doc(doc)


def test_variant_dispatch_errors():
    with pytest.raises(docs.ParseError):
        docs.instance_from_doc({"variant": "nope"})
    with pytest.raises(docs.ParseError):
        docs.instance_from_doc({})
    with pytest.raises(docs.ParseError):
        docs.instance_from_doc({"variant": "eta-two", "eta": "q"})
