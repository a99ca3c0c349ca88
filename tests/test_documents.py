import dataclasses
import json
import re

import numpy as np
import pytest

from qsylv import Inconsistent, QMatrix, documents as docs
from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted, gen_unsolvable
from qsylv.qmatrix import rand_qmatrix
from qsylv.solvers.families import solve


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


class _Int(int):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("entry", [
    [np.float64(1.5), 0, 0, 0], [_Int(2), 0.5, 0, 0],
    _List([1, 2, 3, 4]), [1, 2, 3, float("inf")]])
def test_number_and_list_subclasses_are_accepted(entry):
    doc = {"rows": 2, "cols": 2,
           "entries": [[[1, 0, 0, 0], [0, 1, 0, 0]], [entry, [0, 0, 0, 1]]]}
    m = docs.matrix_from_doc(doc, "A1")
    assert [c[1, 0] for c in m.components()] == [float(v) for v in entry]


@pytest.mark.parametrize("second_row, message", [
    ([[1, 0, 0, 0], [0, 1, False, 0]], r"entry \(1,1\) is not numeric$"),
    ([[1, 0, 0, None], [0, 1, 0]], r"entry \(1,0\) is not numeric$"),
    ([[1, 0, 0], [0, 1, "x", 0]], r"entry \(1,0\) must be a list of 4"),
    ([[1, 0, 0, 0]], r"row 1 must be a list of 2 entries$"),
])
def test_first_bad_entry_is_named(second_row, message):
    doc = {"rows": 3, "cols": 2,
           "entries": [[[1, 0, 0, 0], [0, 1, 0, 0]], second_row,
                       [[1, 0, 0, True], [0]]]}
    with pytest.raises(docs.ParseError, match=f"^matrix 'A1': {message}"):
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


def _bits(inst) -> list:
    return [c.tobytes() for name in inst.block_names()
            for c in getattr(inst, name).components()]


@pytest.mark.parametrize("variant, alias, field", [
    (name, alias, field) for name, v in VARIANT_TABLE.items()
    for alias, field in v.aliases.items()])
def test_alias_stands_for_its_field(variant, alias, field):
    inst, _ = gen_planted(variant, 2, seed=6, eta="j")
    doc = docs.instance_to_doc(inst)
    doc[alias] = doc.pop(field)
    back = docs.instance_from_doc(doc)
    assert _bits(back) == _bits(inst)
    assert getattr(back, "eta", None) == getattr(inst, "eta", None)
    full = docs.instance_to_doc(inst)
    for both in ({**full, alias: doc[alias]}, {alias: doc[alias], **full}):
        with pytest.raises(docs.ParseError,
                           match=re.escape(f"given twice (alias '{alias}')")):
            docs.instance_from_doc(both)


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


def _one_sided(inst, dropped):
    """The instance parsed back from ``inst``'s document without the
    ``dropped`` blocks."""
    doc = json.loads(json.dumps(docs.instance_to_doc(inst)))
    for key in dropped:
        del doc[key]
    return docs.instance_from_doc(doc)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_pair_documents_without_one_equation_are_one_sided(seed, rng):
    inst, _ = gen_planted("pair", 3, seed)
    left = _one_sided(inst, ("B", "D"))
    assert left.B.shape == (left.C.cols, 0)
    assert left.D.shape == (left.A.cols, 0)
    right = _one_sided(inst, ("A", "C"))
    assert right.A.shape == (0, right.D.rows)
    assert right.C.shape == (0, right.B.rows)
    left_fam, right_fam = solve(left), solve(right)
    for params in (None, left_fam.random_params(rng)):
        (x,) = left_fam.assemble(params)
        assert (left.A @ x - left.C).norm() <= 1e-10 * (1 + left.C.norm())
    for params in (None, right_fam.random_params(rng)):
        (x,) = right_fam.assemble(params)
        assert (x @ right.B - right.D).norm() <= 1e-10 * (1 + right.D.norm())


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_one_sided_pair_documents_can_be_inconsistent(seed):
    # the twin perturbs D, and its B is wide: X B = D alone is unsolvable
    right = _one_sided(gen_unsolvable("pair", 3, seed), ("A", "C"))
    res = solve(right)
    assert isinstance(res, Inconsistent)
    assert res.failing_conditions == ["D*L_B", "r(D;B)=r(B)"]
    # the twin's C is unperturbed, so A X = C takes a random C against
    # the deficient (tall) A
    inst, _ = VARIANT_TABLE["pair"].planted(3, seed, twin=True)
    c = rand_qmatrix(np.random.default_rng(1000 + seed), *inst.C.shape)
    left = _one_sided(dataclasses.replace(inst, C=c), ("B", "D"))
    res = solve(left)
    assert isinstance(res, Inconsistent)
    assert res.failing_conditions == ["R_A*C", "r(C,A)=r(A)"]
