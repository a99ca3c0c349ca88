"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; tolerances are the contract values, pinned here.
"""

import json
import time

import numpy as np

from qsylv import (Inconsistent, check_master, documents as docs, pinv,
                   solve_eta_full, solve_eta_mixed, solve_eta_three,
                   solve_eta_two, solve_five_term, solve_left, solve_master,
                   solve_mixed_system, solve_pair, solve_right,
                   solve_three_term_system, solve_two_term, symmetrize)
from qsylv.cli import main as cli_main
from qsylv.decomp import _embedding, _svdvals, default_rank_tol
from qsylv.harness import (VARIANT_TABLE, DimensionProfile, gen_consistent,
                           gen_planted, gen_unsolvable)

from tests.conftest import DATA_DIR, make_rand, rank_block_oracle, worst_rel


def verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


EXPECTED_RANK_TABLE = {
    "R1": 11, "R2": 10, "R3": 10, "R4": 9, "R5": 10,
    "R6": 9, "R7": 9, "R8": 8, "R9": 19,
}
SOURCE_MISPRINTS = {"R2": 8}  # itemized in docs/deviations.md


def test_criterion_1_example_rank_table():
    inst = docs.instance_from_doc(docs.load_json(DATA_DIR / "example51.json"))
    started = time.perf_counter()
    report = check_master(inst)
    elapsed = time.perf_counter() - started
    values = {c.name: (c.lhs, c.rhs) for c in report.rank_conditions}
    ok = report.consistent
    for name, want in EXPECTED_RANK_TABLE.items():
        ok = ok and values[name] == (want, want)
    for i in (2, 3, 4):
        ok = ok and values[f"r(C{i},A{i})=r(A{i})"][1] == 2
        ok = ok and values[f"r(D{i};B{i})=r(B{i})"][1] == 1
    ok = ok and elapsed < 1.0
    # the one source misprint must be itemized with the recomputed value
    deviations = (DATA_DIR.parent / "docs" / "deviations.md").read_text()
    for name, printed in SOURCE_MISPRINTS.items():
        recomputed = EXPECTED_RANK_TABLE[name]
        ok = ok and (name in deviations) and (str(recomputed) in deviations)
    table = ",".join(str(EXPECTED_RANK_TABLE[f"R{i}"]) for i in range(1, 10))
    verdict(1, ok, f"worked-example rank table = {table} "
                   f"(source misprints R2; see docs/deviations.md), "
                   f"r(A_i)=2, r(B_i)=1, check in {elapsed * 1e3:.0f} ms")


def test_criterion_2_example_solutions():
    inst = docs.instance_from_doc(docs.load_json(DATA_DIR / "example51.json"))
    printed = docs.solution_from_doc(
        docs.load_json(DATA_DIR / "example51_printed_solution.json"))
    printed_rel = worst_rel(inst, printed)
    fam = solve_master(inst)
    own_rel = worst_rel(inst, fam.assemble())
    ok = printed_rel <= 1e-3 and own_rel <= 1e-8
    verdict(2, ok, f"printed solution residual {printed_rel:.2e} <= 1e-3, "
                   f"own solution residual {own_rel:.2e} <= 1e-8")


def test_criterion_3_penrose_suite():
    rng = np.random.default_rng(3)
    rand_q = make_rand(rng)
    worst = 0.0
    even = True
    for trial in range(500):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        if trial % 3 == 0:
            r0 = int(rng.integers(1, min(m, n) + 1))
            a = rand_q(m, r0) @ rand_q(r0, n)
        else:
            a = rand_q(m, n)
        b = pinv(a)
        p = b.pinv
        scale = 1.0 + a.norm()
        defect = max(
            (a @ p @ a - a).norm(), (p @ a @ p - p).norm(),
            ((a @ p).conj_transpose() - a @ p).norm(),
            ((p @ a).conj_transpose() - p @ a).norm(),
            (b.proj_left @ b.proj_left - b.proj_left).norm(),
            (b.proj_right @ b.proj_right - b.proj_right).norm()) / scale
        worst = max(worst, defect)
        s = _svdvals(_embedding(a))
        erank = int((s > default_rank_tol(m, n, float(s[0]))).sum())
        even = even and erank % 2 == 0 and erank == 2 * b.rank
    ok = worst <= 1e-10 and even
    verdict(3, ok, f"500 Penrose/projector checks, worst relative residual "
                   f"{worst:.2e} <= 1e-10, embedded ranks all even")


def test_criterion_4_rank_identity_oracle():
    rng = np.random.default_rng(4)
    rand_q = make_rand(rng)
    mismatches = 0
    for _ in range(200):
        m, n, k, l, j, i = (int(v) for v in rng.integers(1, 5, 6))
        lhs, rhs = rank_block_oracle(rand_q(m, n), rand_q(m, k),
                                     rand_q(l, n), rand_q(j, k),
                                     rand_q(l, i))
        mismatches += (lhs != rhs)
    verdict(4, mismatches == 0,
            f"block rank identity: 200 seeded tuples, {mismatches} mismatches")


def test_criterion_5_planted_roundtrips():
    seeds = range(100)
    rng = np.random.default_rng(55)
    results = {}

    def run(name, gen_inst, solver):
        worst, total = 0.0, 0.0
        for seed in seeds:
            size = 1 + seed % 3
            inst, _ = gen_inst(size, seed)
            started = time.perf_counter()
            fam = solver(inst)
            total += time.perf_counter() - started
            assert not isinstance(fam, Inconsistent), (name, seed)
            sol = fam.assemble(fam.random_params(rng))
            worst = max(worst, worst_rel(inst, sol))
        results[name] = (worst, total / len(seeds))

    # one-sided and paired equations
    worst, avg = 0.0, 0.0
    for seed in seeds:
        size = 1 + seed % 3
        rng2 = np.random.default_rng(seed)
        rand_q = make_rand(rng2)
        a, x0 = rand_q(size, size + 2), rand_q(size + 2, size + 1)
        c = a @ x0
        t0 = time.perf_counter()
        fam = solve_left(a, c)
        avg += time.perf_counter() - t0
        (x,) = fam.assemble(fam.random_params(rng))
        worst = max(worst, (a @ x - c).norm() / (1 + c.norm()))
    results["solve_left"] = (worst, avg / len(seeds))

    worst, avg = 0.0, 0.0
    for seed in seeds:
        size = 1 + seed % 3
        rng2 = np.random.default_rng(seed + 1000)
        rand_q = make_rand(rng2)
        a, x0 = rand_q(size + 2, size), rand_q(size + 1, size + 2)
        c = x0 @ a
        t0 = time.perf_counter()
        fam = solve_right(a, c)
        avg += time.perf_counter() - t0
        (x,) = fam.assemble(fam.random_params(rng))
        worst = max(worst, (x @ a - c).norm() / (1 + c.norm()))
    results["solve_right"] = (worst, avg / len(seeds))

    worst, avg = 0.0, 0.0
    for seed in seeds:
        size = 1 + seed % 3
        rng2 = np.random.default_rng(seed + 2000)
        rand_q = make_rand(rng2)
        a, b = rand_q(size, size + 2), rand_q(size + 1, size)
        x0 = rand_q(size + 2, size + 1)
        t0 = time.perf_counter()
        fam = solve_pair(a, a @ x0, b, x0 @ b)
        avg += time.perf_counter() - t0
        (x,) = fam.assemble(fam.random_params(rng))
        worst = max(worst, max((a @ x - a @ x0).norm(),
                               (x @ b - x0 @ b).norm())
                    / (1 + (a @ x0).norm() + (x0 @ b).norm()))
    results["solve_pair"] = (worst, avg / len(seeds))

    run("solve_two_term", VARIANT_TABLE["two-term"].planted,
        lambda inst: solve_two_term(inst.C3, inst.D3, inst.C4, inst.D4,
                                    inst.E1))
    run("solve_five_term", VARIANT_TABLE["five-term"].planted,
        solve_five_term)
    run("solve_master",
        lambda size, seed: gen_consistent(DimensionProfile.cube(size, seed)),
        solve_master)
    run("solve_three_term_system", VARIANT_TABLE["three-term"].planted,
        solve_three_term_system)
    run("solve_mixed_system", VARIANT_TABLE["mixed"].planted,
        solve_mixed_system)

    worst_all = max(w for w, _ in results.values())
    slowest = max(t for _, t in results.values())
    ok = worst_all <= 1e-8 and slowest < 0.1
    detail = ", ".join(f"{k.replace('solve_', '')} {w:.1e}/{t * 1e3:.0f}ms"
                       for k, (w, t) in results.items())
    verdict(5, ok, f"8 solvers x 100 planted instances: worst residual "
                   f"{worst_all:.2e} <= 1e-8, slowest mean "
                   f"{slowest * 1e3:.0f} ms < 100 ms ({detail})")


def test_criterion_6_condition_form_equivalence():
    agree = True
    for seed in range(100):
        inst, _ = gen_consistent(DimensionProfile.cube(1 + seed % 3, seed))
        rep = check_master(inst)
        agree = agree and rep.consistent and rep.forms_agree
    for seed in range(100):
        bad = gen_unsolvable("master", 1 + seed % 3, seed)
        rep = check_master(bad)
        agree = agree and (not rep.consistent) and rep.forms_agree
    verdict(6, agree, "residual and rank certificates agree on 100 "
                      "consistent and 100 fuzzed instances")


def test_criterion_7_free_parameter_soundness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(20):
        inst, _ = gen_consistent(DimensionProfile.cube(1 + seed % 3, seed))
        fam = solve_master(inst)
        for _ in range(20):
            sol = fam.assemble(fam.random_params(rng))
            worst = max(worst, worst_rel(inst, sol))
    ok = worst <= 1e-8
    verdict(7, ok, f"400 assembled master solutions, worst residual "
                   f"{worst:.2e} <= 1e-8")


def test_criterion_8_eta_suite():
    rng = np.random.default_rng(8)
    worst_res, worst_herm, worst_map = 0.0, 0.0, 0.0
    cases = (
        ("eta-full", VARIANT_TABLE["eta-full"].planted,
         lambda inst: solve_eta_full(inst), 1),
        ("eta-three", VARIANT_TABLE["eta-three"].planted,
         lambda inst: solve_eta_three(inst), 0),
        ("eta-two", VARIANT_TABLE["eta-two"].planted,
         lambda inst: solve_eta_two(inst.B1, inst.C1, inst.D1, inst.eta), 0),
        ("eta-mixed", VARIANT_TABLE["eta-mixed"].planted,
         lambda inst: solve_eta_mixed(inst.A1, inst.C1, inst.B1, inst.D1,
                                      inst.A2, inst.A3, inst.D3, inst.eta),
         0),
    )
    for eta in ("i", "j", "k"):
        ec = lambda m: m.eta_conj_transpose(eta)
        for name, gen, solver, herm_from in cases:
            for seed in range(50):
                inst, wit = gen(1 + seed % 2, seed, eta)
                fam = solver(inst)
                assert not isinstance(fam, Inconsistent), (name, eta, seed)
                sol = fam.assemble(fam.random_params(rng))
                worst_res = max(worst_res, worst_rel(inst, sol))
                for m in sol[herm_from:]:
                    worst_herm = max(
                        worst_herm,
                        (m - ec(m)).norm() / (1.0 + m.norm()))
        # doubled-system reduction, both directions, one instance per eta
        inst, wit = gen_planted("eta-full", 2, 81, eta)
        doubled = inst.lift()[0]
        u, x, y, z = wit
        lift = (u, ec(u), x, y, z)
        fwd = max(d.norm() / (1 + s)
                  for _, d, s in doubled.residual_terms(lift))
        fam = solve_master(doubled)
        u1, u2, xt, yt, zt = fam.assemble(fam.random_params(rng))
        back = ((u1 + ec(u2)) * 0.5, symmetrize(xt, eta),
                symmetrize(yt, eta), symmetrize(zt, eta))
        bwd = worst_rel(inst, back)
        worst_map = max(worst_map, fwd, bwd)
    ok = worst_res <= 1e-8 and worst_herm <= 1e-12 and worst_map <= 1e-10
    verdict(8, ok, f"eta suite (3 etas x 4 variants x 50): residuals "
                   f"{worst_res:.2e} <= 1e-8, hermiticity {worst_herm:.2e} "
                   f"<= 1e-12, reduction maps {worst_map:.2e} <= 1e-10")


def test_criterion_9_cli_contract(tmp_path):
    ok = True
    # gen -> solve -> verify for 20 seeds across variants
    variants = ("master", "three-term", "mixed", "two-term", "five-term",
                "eta-full", "eta-three", "eta-two", "eta-mixed")
    for seed in range(20):
        variant = variants[seed % len(variants)]
        ipath = str(tmp_path / f"i{seed}.json")
        spath = str(tmp_path / f"s{seed}.json")
        ok = ok and cli_main(["gen", "--variant", variant, "--size", "2",
                              "--seed", str(seed), "--eta", "jik"[seed % 3],
                              "--out", ipath]) == 0
        ok = ok and cli_main(["solve", ipath, "--free", "random",
                              "--seed", str(seed), "--out", spath]) == 0
        ok = ok and cli_main(["verify", ipath, spath]) == 0
    # check/solve exit-code agreement on a 40-instance mixed corpus
    agreement = True
    for seed in range(20):
        variant = variants[seed % len(variants)]
        for kind in ("consistent", "inconsistent"):
            ipath = str(tmp_path / f"m{seed}-{kind}.json")
            args = ["gen", "--variant", variant, "--size", "2",
                    "--seed", str(seed), "--eta", "i", "--out", ipath]
            if kind == "inconsistent":
                args.append("--inconsistent")
            assert cli_main(args) == 0
            agreement = agreement and (cli_main(["check", ipath])
                                       == cli_main(["solve", ipath]))
    ok = ok and agreement
    # documents re-parse bit-identically
    ipath = str(tmp_path / "roundtrip.json")
    cli_main(["gen", "--variant", "master", "--size", "2", "--seed", "99",
              "--out", ipath])
    doc1 = docs.load_json(ipath)
    doc2 = docs.instance_to_doc(docs.instance_from_doc(doc1))
    keys1 = {k: v for k, v in doc1.items() if k not in ("_notes", "format")}
    keys2 = {k: v for k, v in doc2.items() if k not in ("_notes", "format")}
    ok = ok and json.dumps(keys1, sort_keys=True) == json.dumps(
        keys2, sort_keys=True)
    verdict(9, ok, "gen->solve->verify pipeline (20 seeds), check/solve "
                   "agreement (40 instances), bit-identical re-parse")
