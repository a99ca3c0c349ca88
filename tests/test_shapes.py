"""Each instance type's SHAPES table: construction, unknown shapes and
document parsing all follow it."""

import dataclasses

import pytest

from qsylv import documents as docs
from qsylv import QMatrix
from qsylv.harness import VARIANT_TABLE, VARIANTS, gen_planted
from qsylv.qmatrix import DimensionError


def _block_names(inst):
    return [f.name for f in dataclasses.fields(inst) if f.name != "eta"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_conflicting_block_is_named(variant):
    inst, _ = gen_planted(variant, 2, seed=4, eta="j")
    for name in _block_names(inst):
        m = getattr(inst, name)
        bad = QMatrix.zeros(m.rows + 1, m.cols + 1)
        with pytest.raises(DimensionError, match=rf"\b{name}\b"):
            dataclasses.replace(inst, **{name: bad})


@pytest.mark.parametrize("variant", VARIANTS)
def test_dropped_blocks_come_back_as_zeros(variant):
    inst, _ = gen_planted(variant, 2, seed=5, eta="k")
    shapes = type(inst).SHAPES
    names = _block_names(inst)
    determined = 0
    for name in names:
        others = {dim for k in names if k != name for dim in shapes[k]}
        doc = docs.instance_to_doc(inst)
        del doc[name]
        got = getattr(docs.instance_from_doc(doc), name)
        assert got.norm() == 0.0
        # a dimension no remaining block carries defaults to 0
        want = tuple(n if dim in others else 0
                     for n, dim in zip(getattr(inst, name).shape,
                                       shapes[name]))
        assert got.shape == want, name
        determined += want == getattr(inst, name).shape
    assert determined > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_conflicting_document_block_is_named(variant):
    inst, _ = gen_planted(variant, 2, seed=5, eta="i")
    for name in _block_names(inst):
        m = getattr(inst, name)
        doc = docs.instance_to_doc(inst)
        doc[name] = docs.matrix_to_doc(QMatrix.zeros(m.rows + 1, m.cols + 1))
        with pytest.raises(docs.ParseError, match=rf"\b{name}\b"):
            docs.instance_from_doc(doc)


def test_solution_keys_keep_their_order():
    assert {name: v.unknowns for name, v in VARIANT_TABLE.items()} == {
        "pair": ("X",),
        "master": ("U", "V", "X", "Y", "Z"),
        "three-term": ("X", "Y", "Z"),
        "mixed": ("X1", "X2"),
        "two-term": ("X3", "X4"),
        "five-term": ("X1", "X2", "Y1", "Y2", "Y3"),
        "eta-full": ("U", "X", "Y", "Z"),
        "eta-three": ("X", "Y", "Z"),
        "eta-two": ("Y", "Z"),
        "eta-mixed": ("X", "Y"),
    }


def test_field_names_keep_their_order():
    # the order fixes positional constructors such as
    # PairInstance(a, c, b, d) and the key order of instance documents
    got = {name: tuple(f.name for f in dataclasses.fields(v.instance_type))
           for name, v in VARIANT_TABLE.items()}
    assert got == {
        "pair": ("A", "C", "B", "D"),
        "master": ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "C1",
                   "C2", "C3", "C4", "D1", "D2", "D3", "D4", "E1", "E2",
                   "E3", "E4", "F1", "F2", "F3", "F4", "Cc"),
        "three-term": ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3",
                       "D1", "D2", "D3", "E1", "E2", "E3", "F1", "F2", "F3",
                       "C"),
        "mixed": ("A1", "B1", "C1", "C2", "A2", "B2", "C3", "C4", "A3", "B3",
                  "A4", "B4", "Cc"),
        "two-term": ("C3", "D3", "C4", "D4", "E1"),
        "five-term": ("A1", "B1", "A2", "B2", "A3", "B3", "A4", "B4", "B"),
        "eta-full": ("eta", "A1", "A2", "A3", "A4", "C1", "C2", "C3", "C4",
                     "E1", "E2", "E3", "E4", "Cc"),
        "eta-three": ("eta", "A1", "A2", "A3", "C1", "C2", "C3", "E1", "E2",
                      "E3", "C"),
        "eta-two": ("eta", "B1", "C1", "D1"),
        "eta-mixed": ("eta", "A1", "C1", "B1", "D1", "A2", "A3", "D3"),
    }
