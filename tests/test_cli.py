import json
import math
import re
from dataclasses import replace

import pytest

from qsylv import QMatrix, cli, documents as docs
from qsylv.cli import main
from qsylv.harness import VARIANTS, verify_solution


@pytest.mark.parametrize("variant", VARIANTS)
def test_gen_check_solve_verify_pipeline(variant, tmp_path, capsys):
    ipath = str(tmp_path / "inst.json")
    wpath = str(tmp_path / "wit.json")
    spath = str(tmp_path / "sol.json")
    rpath = str(tmp_path / "report.json")
    assert main(["gen", "--variant", variant, "--size", "2", "--seed", "4",
                 "--eta", "j", "--out", ipath, "--witness-out", wpath]) == 0
    assert main(["check", ipath, "--out", rpath]) == 0
    report = json.load(open(rpath))
    assert report["consistent"] is True and report["forms_agree"] is True
    assert main(["solve", ipath, "--free", "random", "--seed", "11",
                 "--out", spath]) == 0
    assert main(["verify", ipath, spath]) == 0
    assert main(["verify", ipath, wpath]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_residual_reports_are_verify_solution_reports(tmp_path):
    # solve --report-out and verify --out write the report of the
    # solution as it re-parses, with its eta-Hermicity entries
    ipath, spath = str(tmp_path / "inst.json"), str(tmp_path / "sol.json")
    solved, verified = tmp_path / "solved.json", tmp_path / "verified.json"
    assert main(["gen", "--variant", "eta-three", "--eta", "j", "--seed", "3",
                 "--out", ipath]) == 0
    assert main(["solve", ipath, "--free", "random", "--out", spath,
                 "--report-out", str(solved)]) == 0
    assert main(["verify", ipath, spath, "--out", str(verified)]) == 0
    inst = docs.instance_from_doc(docs.load_json(ipath))
    sol = docs.solution_from_doc(docs.load_json(spath))
    want = {"format": "qsylv-residual-report", "variant": "eta-three",
            **verify_solution(inst, sol).to_dict()}
    assert [e["name"] for e in want["entries"]][-3:] == [
        "X=X^eta*", "Y=Y^eta*", "Z=Z^eta*"]
    for path in (solved, verified):
        assert docs.load_json(path) == want


def test_inconsistent_exit_codes(tmp_path):
    ipath = str(tmp_path / "bad.json")
    assert main(["gen", "--variant", "master", "--size", "2", "--seed", "2",
                 "--inconsistent", "--out", ipath]) == 0
    assert main(["check", ipath]) == 2
    assert main(["solve", ipath]) == 2


def test_tol_that_is_not_finite_and_positive_exits_one(tmp_path, capsys):
    # at --tol inf this unsolvable pair instance used to verify, exit 0
    ipath = str(tmp_path / "pb.json")
    assert main(["gen", "--variant", "pair", "--inconsistent", "--seed", "2",
                 "--out", ipath]) == 0
    capsys.readouterr()
    assert main(["solve", ipath, "--tol", "inf"]) == 1
    assert capsys.readouterr() == (
        "", "error: tol must be finite and positive, got inf\n")


@pytest.mark.parametrize("kind", ([], ["--inconsistent"]))
def test_gen_refuses_a_tol_that_is_not_finite_and_positive(kind, tmp_path,
                                                           capsys):
    ipath = tmp_path / "pair.json"
    for tol in ("inf", "nan", "0", "-1e-9"):
        assert main(["gen", "--variant", "pair", f"--tol={tol}",
                     "--out", str(ipath), *kind]) == 1
        assert capsys.readouterr() == (
            "", f"error: tol must be finite and positive, got "
                f"{float(tol)!r}\n")
        assert not ipath.exists()


def test_malformed_entry_is_a_message_not_a_traceback(data_dir, tmp_path,
                                                      capsys):
    with open(data_dir / "example51.json") as fh:
        doc = json.load(fh)
    doc["A1"]["entries"][0][0] = {"w": 1, "x": 0, "y": 0, "z": 0}
    ipath = str(tmp_path / "bad.json")
    with open(ipath, "w") as fh:
        json.dump(doc, fh)
    assert main(["check", ipath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix 'A1': entry (0,0)")
    assert "Traceback" not in err


@pytest.mark.parametrize("variant", VARIANTS)
def test_random_member_and_inconsistent_exit_codes(variant, tmp_path):
    ipath = str(tmp_path / "inst.json")
    spath = str(tmp_path / "sol.json")
    bpath = str(tmp_path / "bad.json")
    assert main(["gen", "--variant", variant, "--size", "2", "--seed", "6",
                 "--eta", "k", "--out", ipath]) == 0
    assert main(["solve", ipath, "--free", "random", "--out", spath]) == 0
    assert main(["verify", ipath, spath]) == 0
    assert main(["gen", "--variant", variant, "--size", "2", "--seed", "6",
                 "--eta", "k", "--inconsistent", "--out", bpath]) == 0
    assert main(["check", bpath]) == 2
    assert main(["solve", bpath]) == 2


@pytest.mark.parametrize("argv, message", (
    (["check", "x.json", "--variant", "bogus"],
     "argument --variant: invalid choice: 'bogus'"),
    (["gen", "--size", "two", "--out", "g.json"],
     "argument --size: expected a non-negative integer, got 'two'"),
    (["solve", "x.json", "--branch", "first"],
     "unrecognized arguments: --branch first"),
    (["gen", "--kind", "inconsistent", "--out", "g.json"],
     "unrecognized arguments: --kind inconsistent"),
    (["gen", "--seed", "-3", "--out", "g.json"],
     "argument --seed: expected a non-negative integer, got '-3'"),
    (["solve", "x.json", "--free", "random", "--seed", "-1"],
     "argument --seed: expected a non-negative integer, got '-1'"),
    (["gen", "--size", "-3", "--out", "g.json"],
     "argument --size: expected a non-negative integer, got '-3'"),
    (["gen", "--variant", "eta-two", "--size", "-3", "--out", "g.json"],
     "argument --size: expected a non-negative integer, got '-3'"),
    # a twin has no witness to write
    (["gen", "--inconsistent", "--witness-out", "w.json", "--out", "g.json"],
     "argument --witness-out: not allowed with argument --inconsistent"),
))
def test_usage_errors_exit_one(argv, message, tmp_path, monkeypatch,
                               capsys):
    # 2 is the code of an inconsistent instance, so a bad argument
    # exits 1 as every other bad input does
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: qsylv")
    assert f"error: {message}" in err
    assert not (tmp_path / "g.json").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qsylv solve")


def test_zero_solution_fails_verify(tmp_path):
    ipath = str(tmp_path / "inst.json")
    spath = str(tmp_path / "zero.json")
    assert main(["gen", "--variant", "two-term", "--size", "2", "--seed", "8",
                 "--out", ipath]) == 0
    doc = docs.load_json(ipath)
    inst = docs.instance_from_doc(doc)
    zero = tuple(QMatrix.zeros(*s) for s in inst.unknown_shapes().values())
    docs.dump_json(spath, docs.solution_to_doc("two-term", zero))
    assert main(["verify", ipath, spath]) == 2


def test_parse_failures_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["check", missing]) == 1
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"variant": "master", "Cc": {"rows"')
    assert main(["check", str(trunc)]) == 1
    badkey = tmp_path / "badkey.json"
    badkey.write_text(json.dumps({"variant": "two-term", "Q7": {
        "rows": 1, "cols": 1, "entries": [[[1, 0, 0, 0]]]}}))
    assert main(["check", str(badkey)]) == 1
    err = capsys.readouterr().err
    assert "Q7" in err
    # a solution document is read as the instance's variant
    ipath, spath = str(tmp_path / "pair.json"), str(tmp_path / "sol.json")
    assert main(["gen", "--variant", "pair", "--out", ipath,
                 "--witness-out", spath]) == 0
    sol = docs.load_json(spath)
    for edit, message in (
            ({"bogus": sol["X"]}, "unknown matrix key 'bogus' for variant "
                                  "'pair'"),
            ({"variant": "master"}, "solution is for variant 'master', "
                                    "not 'pair'")):
        docs.dump_json(spath, {**sol, **edit})
        capsys.readouterr()
        assert main(["verify", ipath, spath]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_document_too_large_to_build_is_refused(tmp_path, capsys,
                                                   monkeypatch):
    # 217 bytes whose A is 0 x 10^8 imply D and X of 10^8 x 2, about
    # 6 GiB; an allocation above the cap fails as under a memory limit
    zeros = QMatrix.zeros

    def capped(rows, cols):
        if rows * cols > 2 ** 24:
            raise MemoryError(f"allocated {rows} x {cols}")
        return zeros(rows, cols)

    monkeypatch.setattr(QMatrix, "zeros", capped)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "variant": "pair", "A": {"rows": 0, "cols": 10 ** 8, "entries": []},
        "C": {"rows": 0, "cols": 2, "entries": []},
        "B": {"rows": 2, "cols": 2, "entries": [[[0, 0, 0, 0]] * 2] * 2}}))
    assert path.stat().st_size == 217
    for command in ("check", "solve"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: dimension p = 100000000 implies 400000004 entries, "
                "more than 16777216\n")


def test_out_of_memory_is_a_message(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_check", exhausted)
    assert main(["check", "x.json"]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_solve_with_parameter_file(tmp_path):
    ipath = str(tmp_path / "inst.json")
    ppath = str(tmp_path / "params.json")
    spath1 = str(tmp_path / "sol1.json")
    spath2 = str(tmp_path / "sol2.json")
    assert main(["gen", "--variant", "two-term", "--size", "2", "--seed", "3",
                 "--out", ipath]) == 0
    inst = docs.instance_from_doc(docs.load_json(ipath))
    shape = inst.unknown_shapes()["X3"]
    ones = QMatrix.from_entries([[1.0] * shape[1]] * shape[0])
    docs.dump_json(ppath, {"Y12": docs.matrix_to_doc(ones)})
    assert main(["solve", ipath, "--free", ppath, "--out", spath1]) == 0
    assert main(["solve", ipath, "--out", spath2]) == 0
    s1 = docs.solution_from_doc(docs.load_json(spath1))
    s2 = docs.solution_from_doc(docs.load_json(spath2))
    assert (s1[0] - s2[0]).norm() > 1e-6  # the parameter moved X3


def test_documents_reparse_bit_identically(tmp_path):
    ipath = str(tmp_path / "inst.json")
    assert main(["gen", "--variant", "master", "--size", "2", "--seed", "17",
                 "--out", ipath]) == 0
    doc1 = docs.load_json(ipath)
    inst = docs.instance_from_doc(doc1)
    doc2 = docs.instance_to_doc(inst)
    keys1 = {k: v for k, v in doc1.items() if k not in ("_notes", "format")}
    keys2 = {k: v for k, v in doc2.items() if k not in ("_notes", "format")}
    assert json.dumps(keys1, sort_keys=True) == json.dumps(keys2,
                                                           sort_keys=True)


def test_check_solve_agreement_small_corpus(tmp_path):
    # check exits 2 exactly when solve exits 2
    for seed in range(6):
        for kind in ("consistent", "inconsistent"):
            ipath = str(tmp_path / f"c{seed}-{kind}.json")
            args = ["gen", "--variant", "master", "--size", "2",
                    "--seed", str(seed), "--out", ipath]
            if kind == "inconsistent":
                args.append("--inconsistent")
            assert main(args) == 0
            assert main(["check", ipath]) == main(["solve", ipath])


def test_example_instance_checks_and_solves(data_dir, tmp_path):
    ipath = str(data_dir / "example51.json")
    spath = str(data_dir / "example51_printed_solution.json")
    assert main(["check", ipath]) == 0
    assert main(["verify", ipath, spath, "--tol", "1e-3"]) == 0
    out = str(tmp_path / "sol.json")
    assert main(["solve", ipath, "--out", out, "--tol", "1e-8"]) == 0
    # the solution as written verifies at the default tol
    assert main(["verify", ipath, out]) == 0


def test_check_and_solve_scaled_master_exit_zero(tmp_path):
    # every right side x1e8, x1e300 and x1e-300: both certificates pass
    # on the equilibrated instance (check exits 0), and the particular
    # solution verifies; the unsolvable twin still exits 2
    ipath = str(tmp_path / "inst.json")
    spath = str(tmp_path / "sol.json")
    for seed in (0, 5):
        for kind, want in (([], 0), (["--inconsistent"], 2)):
            assert main(["gen", "--variant", "master", "--size", "2",
                         "--seed", str(seed), "--out", ipath, *kind]) == 0
            base = docs.instance_from_doc(docs.load_json(ipath))
            for scale in (1e8, 1e300, 1e-300):
                inst = replace(base, **{f: getattr(base, f) * scale
                                        for f in base.rhs_names()})
                docs.dump_json(ipath, docs.instance_to_doc(inst))
                assert main(["solve", ipath, "--out", spath]) == want
                if want == 0:
                    assert main(["verify", ipath, spath]) == 0
                assert main(["check", ipath]) == want


@pytest.mark.parametrize("command", ("check", "solve"))
def test_eta_three_precondition_names_c(command, tmp_path, capsys):
    ipath = str(tmp_path / "inst.json")
    assert main(["gen", "--variant", "eta-three", "--out", ipath]) == 0
    doc = docs.load_json(ipath)
    doc["C"]["entries"][0][1][0] += 1.0
    docs.dump_json(ipath, doc)
    capsys.readouterr()
    assert main([command, ipath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: C is not eta-Hermitian (defect")
    assert "Cc" not in err  # eta-three's own field, not the lift's


@pytest.mark.parametrize("command", ("check", "solve"))
@pytest.mark.parametrize("block, value", (("C", "Infinity"), ("C", "NaN"),
                                          ("A", "Infinity"), ("A", "NaN")))
def test_non_finite_entry_is_refused_before_any_svd(command, block, value,
                                                     tmp_path, capfd):
    # capfd sees the file descriptors, so a LAPACK message such as
    # "On entry to DLASCL parameter number 4 had an illegal value" would
    # show in err
    ipath = tmp_path / "inst.json"
    assert main(["gen", "--variant", "pair", "--out", str(ipath)]) == 0
    doc = docs.load_json(str(ipath))
    doc[block]["entries"][-1][-1][0] = float(value.lower())
    docs.dump_json(str(ipath), doc)
    assert value in ipath.read_text()
    capfd.readouterr()
    assert main([command, str(ipath)]) == 1
    assert capfd.readouterr().err == f"error: {block} has a non-finite entry\n"


@pytest.mark.parametrize("command", ("check", "solve", "verify"))
@pytest.mark.parametrize("doc", ([], "x", 3))
def test_non_object_document_is_a_message(doc, command, tmp_path, capsys):
    ipath = tmp_path / "inst.json"
    ipath.write_text(json.dumps(doc))
    argv = [command, str(ipath)]
    if command == "verify":
        argv.append(str(ipath))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: instance document must be a JSON object\n"


@pytest.mark.parametrize("params, code, message", (
    ({"U4": [[(0.5 * (i + 1), -0.25 * j, 0.125, 1.0) for j in range(3)]
             for i in range(3)]}, 0, ""),
    # the lift leaves W11 empty, so it is no parameter of the family
    ({"W11": [[(1, 0, 0, 0)]]}, 1, "error: unknown free parameter 'W11'\n"),
    ({"U4": [[(1, 0, 0, 0)]]}, 1,
     "error: parameter U4 has shape (1, 1), expected (3, 3)\n"),
    # a non-finite entry is refused as the parameter is read
    ({"U4": [[(math.nan,) * 4] * 3] * 3}, 1,
     "error: parameter U4 has a non-finite entry\n"),
    # solve verifies the member it writes, and exits 2 as verify of the
    # written file does when that fails
    ({"U4": [[(1e300, 0, 0, 0)] * 3] * 3}, 2, ""),
))
def test_mixed_parameter_file(params, code, message, tmp_path, capsys):
    ipath, ppath = str(tmp_path / "mixed.json"), str(tmp_path / "par.json")
    spath = tmp_path / "sol.json"
    assert main(["gen", "--variant", "mixed", "--seed", "3",
                 "--out", ipath]) == 0
    docs.dump_json(ppath, {name: docs.matrix_to_doc(QMatrix.from_entries(e))
                           for name, e in params.items()})
    capsys.readouterr()
    assert main(["solve", ipath, "--free", ppath, "--out", str(spath)]) == code
    assert capsys.readouterr().err == message
    if code == 1:
        assert not spath.exists()
    else:
        assert main(["verify", ipath, str(spath)]) == code


def test_inconsistent_solve_prints_its_failing_conditions(tmp_path, capsys):
    # the failing conditions include the rank list, built when printed
    ipath = str(tmp_path / "bad.json")
    assert main(["gen", "--variant", "master", "--inconsistent", "--seed", "5",
                 "--out", ipath]) == 0
    capsys.readouterr()
    assert main(["solve", ipath]) == 2
    out = capsys.readouterr().out
    assert out.startswith("inconsistent; failing conditions:\n")
    assert re.search(r"^  R[1-9]$", out, re.M)


def test_pair_twin_check_prints_the_failing_rank_row(tmp_path, capsys):
    # the twin's D leaves the reach of X B (B is wide)
    ipath = str(tmp_path / "pair.json")
    assert main(["gen", "--variant", "pair", "--inconsistent", "--seed", "2",
                 "--out", ipath]) == 0
    capsys.readouterr()
    assert main(["check", ipath]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^r\(D;B\)=r\(B\) .* FAIL$", out, re.M)
    assert out.endswith("consistent: False   forms_agree: True\n")


@pytest.mark.parametrize("gen, free, rows", (
    (["--variant", "eta-mixed", "--eta", "j", "--seed", "2"], "zero", "XY"),
    # the two-term lift's map back symmetrizes a random member
    (["--variant", "eta-two", "--eta", "k", "--seed", "4"], "random", "YZ"),
))
def test_eta_round_trip_prints_its_hermicity_rows(gen, free, rows, tmp_path,
                                                  capsys):
    ipath, spath = str(tmp_path / "eta.json"), str(tmp_path / "sol.json")
    assert main(["gen", *gen, "--out", ipath]) == 0
    assert main(["solve", ipath, "--free", free, "--out", spath]) == 0
    capsys.readouterr()
    assert main(["verify", ipath, spath]) == 0
    out = capsys.readouterr().out
    for w in rows:
        assert re.search(rf"^{w}={w}\^eta\* .* pass$", out, re.M)
    assert re.search(r"^overall: pass", out, re.M)
