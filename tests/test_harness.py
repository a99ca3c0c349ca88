import dataclasses
import itertools
import math

import numpy as np
import pytest

from qsylv import QMatrix, check_five_term, check_master, solve_master
from qsylv.cli import main
from qsylv.harness import (VARIANT_TABLE, VARIANTS, DimensionProfile,
                           gen_consistent, gen_planted, gen_unsolvable,
                           symmetrize, verify_solution)
from qsylv.qmatrix import DimensionError
from qsylv.solvers.families import check

from tests.conftest import scaled_rhs


def test_profile_validation():
    with pytest.raises(DimensionError):
        DimensionProfile(cc_rows=2, cc_cols=2, blocks=((1, 1, 1, 1),) * 3)
    with pytest.raises(DimensionError):
        DimensionProfile(cc_rows=2, cc_cols=2, blocks=((1, 1, 1),) * 4)
    with pytest.raises(DimensionError):
        DimensionProfile(cc_rows=-1, cc_cols=2)
    with pytest.raises(DimensionError):
        DimensionProfile(cc_rows=2, cc_cols=2,
                         blocks=((1, 1, 1, 1),) * 3 + ((1, -1, 1, 1),))
    DimensionProfile.cube(3, seed=5)


def test_no_dimension_cap():
    inst, wit = gen_planted("master", 17, 0)
    assert inst.Cc.shape == (19, 19) and inst.A1.shape == (17, 18)
    assert verify_solution(inst, wit).passed


def _sides(indices, **shapes):
    """(name + index, rows, cols) for every index, the names of
    ``shapes`` in turn within one index."""
    return [(f"{k}{i}", *s) for i in indices for k, s in shapes.items()]


def _draws(key, n):
    """The draw order of every planted generator, written out: (name,
    rows, cols) in the order drawn from PCG64(seed) at size ``n``."""
    a, b, c = n, n + 1, n + 2
    coupled = dict(A=(a, b), B=(b, a), E=(c, b), F=(b, c))
    return {
        "pair": [("A", a, b), ("B", b, a), ("X", b, b)],
        "pair twin": [("A", b, a), ("B", a, b), ("X", a, a)],
        "master": (_sides([1], **coupled) + [("U", b, c), ("V", c, b)]
                   + _sides([2], **coupled) + [("X", b, b)]
                   + _sides([3], **coupled) + [("Y", b, b)]
                   + _sides([4], **coupled) + [("Z", b, b)]),
        "three-term": (_sides([1], **coupled) + [("X", b, b)]
                       + _sides([2], **coupled) + [("Y", b, b)]
                       + _sides([3], **coupled) + [("Z", b, b)]),
        "mixed": (_sides([1, 2], A=(a, b), B=(b, a))
                  + [("X1", b, b), ("X2", b, b)]
                  + _sides([3, 4], A=(c, b), B=(b, c))),
        "two-term": [("C3", c, n + 3), ("D3", n + 3, c), ("C4", c, a),
                     ("D4", b, c), ("X3", n + 3, n + 3), ("X4", a, b)],
        "two-term twin": [("C3", 2 * n + 3, a), ("D3", a, 2 * n + 3),
                          ("C4", 2 * n + 3, a), ("D4", b, 2 * n + 3),
                          ("X3", a, a), ("X4", a, b)],
        "five-term": ([("A1", c, a), ("B1", a, c)]
                      + _sides([2, 3, 4], A=(c, b), B=(b, c))
                      + [("X1", a, c), ("X2", c, a), ("Y1", b, b),
                         ("Y2", b, b), ("Y3", b, b)]),
        "five-term twin": _five_term_twin(n),
        "eta-full": (_sides(range(1, 5), A=(a, b))
                     + _sides(range(1, 5), E=(c, b))
                     + [("U", b, c), ("X", b, b), ("Y", b, b), ("Z", b, b)]),
        "eta-three": (_sides(range(1, 4), A=(a, b))
                      + _sides(range(1, 4), E=(c, b))
                      + [("X", b, b), ("Y", b, b), ("Z", b, b)]),
        "eta-two": [("B1", c, b), ("C1", c, a), ("Y", b, b), ("Z", a, a)],
        "eta-mixed": [("A1", a, b), ("B1", b, a), ("X", b, b), ("Y", b, b),
                      ("A2", c, b), ("A3", c, b)],
    }[key]


def _five_term_twin(n):
    # the right side widens by 2 more per size from size 6 on
    p = 2 * n + 3 + 2 * max(0, n - 5)
    return ([("A1", p, n), ("B1", n, p)]
            + _sides([2, 3, 4], A=(p, n), B=(n, p))
            + [("X1", n, p), ("X2", p, n), ("Y1", n, n), ("Y2", n, n),
               ("Y3", n, n)])


DRAW_CASES = ([(v, size, seed, eta) for v in VARIANTS for size in range(4)
               for seed in (0, 1)
               for eta in (("i", "k") if v.startswith("eta") else ("i",))]
              + [(f"{v} twin", size, seed, "i")
                 for v in ("pair", "two-term", "five-term")
                 for size in (0, 1, 2, 3, 7) for seed in (0, 1)])


@pytest.mark.parametrize("key, size, seed, eta", DRAW_CASES)
def test_draw_order_is_pinned(key, size, seed, eta):
    # right sides come from BLAS products, so only the drawn blocks and
    # the witness are compared, bit for bit
    variant = key.removesuffix(" twin")
    entry = VARIANT_TABLE[variant]
    inst, wit = entry.planted(size, seed, eta, twin=key.endswith("twin"))
    got = dict(zip(entry.unknowns, wit))
    rng = np.random.default_rng(np.random.PCG64(seed))
    draws = _draws(key, size)
    for name, rows, cols in draws:
        want = QMatrix(*(rng.standard_normal((rows, cols))
                         for _ in range(4)))
        if name in entry.instance_type.ETA_HERMITIAN:
            want = symmetrize(want, eta)
        have = got[name] if name in got else getattr(inst, name)
        assert have.shape == want.shape, (name, have.shape, want.shape)
        assert all(p.tobytes() == q.tobytes() for p, q in
                   zip(have.components(), want.components())), name
    assert {name for name, _, _ in draws} == (
        set(entry.unknowns) | set(entry.instance_type.coefficient_names()))


def test_gen_consistent_witness_passes():
    inst, wit = gen_consistent(DimensionProfile.cube(2, seed=0))
    assert check_master(inst).consistent
    report = verify_solution(inst, wit)
    assert report.passed
    assert len(report.entries) == 9


def test_gen_consistent_deterministic():
    p = DimensionProfile.cube(2, seed=99)
    i1, _ = gen_consistent(p)
    i2, _ = gen_consistent(p)
    for f in dataclasses.fields(i1):
        a, b = getattr(i1, f.name), getattr(i2, f.name)
        assert (a.w == b.w).all() and (a.x == b.x).all()
        assert (a.y == b.y).all() and (a.z == b.z).all()


def test_gen_consistent_empty_blocks_allowed():
    profile = DimensionProfile(cc_rows=3, cc_cols=3,
                               blocks=((0, 0, 0, 0), (2, 3, 3, 2),
                                       (2, 3, 3, 2), (2, 3, 3, 2)),
                               seed=5)
    inst, wit = gen_consistent(profile)
    assert inst.A1.shape == (0, 0)
    assert check_master(inst).consistent
    assert verify_solution(inst, wit).passed


def test_verify_solution_shape_errors():
    inst, wit = gen_consistent(DimensionProfile.cube(2, seed=7))
    with pytest.raises(DimensionError):
        verify_solution(inst, wit.as_tuple()[:3])
    bad = list(wit.as_tuple())
    bad[0] = QMatrix.zeros(1, 1)
    with pytest.raises(DimensionError):
        verify_solution(inst, tuple(bad))


def test_verify_zero_solution_fails_with_rhs_norm():
    inst, _ = gen_consistent(DimensionProfile.cube(2, seed=8))
    zero = tuple(QMatrix.zeros(*s) for s in inst.unknown_shapes().values())
    report = verify_solution(inst, zero)
    assert not report.passed
    coupling = [e for e in report.entries if e.name == "coupling=Cc"][0]
    assert abs(coupling.absolute - inst.Cc.norm()) <= 1e-12


@pytest.mark.parametrize("factor", [1e160, 1e200, 1e300])
def test_verify_solution_reads_right_sides_near_the_top_of_the_range(factor):
    """Squares of entries above about 1e154 overflow; a norm that does
    is taken again after a power-of-two scaling, so the particular
    solution of a master instance scaled this far still verifies."""
    inst = scaled_rhs(gen_planted("master", 2, 0)[0], factor)
    report = verify_solution(inst, solve_master(inst).particular)
    assert report.passed
    assert all(0.0 < e.absolute < math.inf for e in report.entries)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_generator(variant, rng):
    # the witness solves its instance on the contract's grid
    etas = "ijk" if variant.startswith("eta") else "i"
    for size, seed, eta in itertools.product((1, 2, 3, 4), (0, 1, 2), etas):
        inst, wit = gen_planted(variant, size, seed, eta)
        assert verify_solution(inst, wit).passed, (size, seed, eta)
    inst, wit = gen_planted(variant, 2, seed=13, eta="j")
    assert verify_solution(inst, wit).passed
    assert tuple(inst.unknown_shapes()) == VARIANT_TABLE[variant].unknowns
    rep = check(inst, 1e-9)
    assert rep.consistent, (variant, rep.failing())
    bad = gen_unsolvable(variant, 2, seed=13, eta="j")
    rep = check(bad, 1e-9)
    assert not rep.consistent and rep.forms_agree


@pytest.mark.parametrize("size", range(1, 11))
def test_five_term_unsolvable_at_every_size(size):
    # the widened target must outgrow the coupling map's reach at size 6+
    for seed in (0, 1, 2):
        bad = gen_unsolvable("five-term", size, seed)
        rep = check_five_term(bad)
        assert not rep.consistent and rep.forms_agree


def test_unsolvable_with_an_empty_right_side_is_a_message(tmp_path, capsys):
    # the size-0 pair twin's D is 0 x 1: no perturbation can move it; the
    # size-0 master's coupling reaches its whole 2 x 2 right side, so
    # every perturbation lands consistent
    for variant in ("pair", "master"):
        with pytest.raises(RuntimeError,
                           match="spans its whole target space"):
            gen_unsolvable(variant, 0, 0)
    out = str(tmp_path / "bad.json")
    assert main(["gen", "--variant", "pair", "--size", "0",
                 "--inconsistent", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: perturbations stayed consistent")
    assert "Traceback" not in err
