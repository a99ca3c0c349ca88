"""Compare the verdicts, reports and families of two source trees on
one fixed corpus.

The corpus is generated once, by one tree, and stored as instance
documents (``qsylv.documents``), which re-parse to bit-identical
matrices, so both trees judge bit-identical inputs:

    PYTHONPATH=<tree A>/src python tools/compare_trees.py gen corpus.pkl
    PYTHONPATH=<tree A>/src python tools/compare_trees.py run corpus.pkl a.pkl
    PYTHONPATH=<tree B>/src python tools/compare_trees.py run corpus.pkl b.pkl
    python tools/compare_trees.py compare a.pkl b.pkl

The corpus holds all ten variants at sizes 1-4, seeds 0-2, eta i/j/k
for the eta variants, planted instances and their ``gen_unsolvable``
twins, with every right side scaled by 1e-8, 1 and 1e8.  ``run``
records, per instance, every ``check_*`` verdict (``consistent``,
``forms_agree``, each condition's ``passed``, each rank ``lhs``/``rhs``)
and full report (``to_dict()``: every residual and threshold), and
the ``solve_*`` outcome: an ``Inconsistent``'s report, or
the family's free-parameter names and shapes, the component bytes of
its particular solution and of one seeded random member, and whether
both pass ``verify_solution``.  ``compare`` counts, per variant, the
instances whose verdicts differ (``consistent``, ``forms_agree``, a
solve outcome or a verification), those that differ in any bit once
conditions and parameters are matched by position (a condition's
``passed``, residual or threshold, a rank pair, a parameter shape or a
solution's bytes), and those that differ only in the names of their
conditions and parameters, as after a renaming; it exits 1 when any of
these counts or the number of family members that fail to verify is
not zero.  An instance that differs both in names and in bits counts
under bits.  Each "bits differ" line names the first differing field
(``check report``, ``solve particular``, ...) and says when a solution
differs only in the sign of zero entries.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

SIZES = (1, 2, 3, 4)
SEEDS = (0, 1, 2)
SCALES = (1e-8, 1.0, 1e8)

def generate(path):
    from dataclasses import replace

    from qsylv.documents import instance_to_doc
    from qsylv.harness import VARIANT_TABLE, gen_planted, gen_unsolvable

    corpus, skipped = [], 0
    for variant, entry in VARIANT_TABLE.items():
        rhs_fields = entry.instance_type.rhs_names()
        etas = ("i", "j", "k") if variant.startswith("eta") else ("i",)
        for size in SIZES:
            for seed in SEEDS:
                for eta in etas:
                    twins = [("planted", gen_planted(variant, size, seed, eta)[0])]
                    try:
                        twins.append(("unsolvable", gen_unsolvable(
                            variant, size, seed, eta)))
                    except RuntimeError:
                        skipped += 1
                    for truth, inst in twins:
                        for scale in SCALES:
                            scaled = replace(inst, **{
                                f: getattr(inst, f) * scale
                                for f in rhs_fields})
                            corpus.append({
                                "label": f"{variant} s{size} seed{seed} "
                                         f"eta={eta} {truth} x{scale:g}",
                                "doc": instance_to_doc(scaled)})
    with open(path, "wb") as fh:
        pickle.dump(corpus, fh)
    print(f"{len(corpus)} instances written, {skipped} unsolvable twins "
          "could not be generated")


def _verdict(report) -> dict:
    return {
        "consistent": report.consistent,
        "forms_agree": report.forms_agree,
        "conditions": [(c.name, c.passed) for c in
                       report.compat_conditions + report.mp_conditions],
        "ranks": [(c.name, c.lhs, c.rhs, c.passed)
                  for c in report.rank_conditions],
        "report": report.to_dict(),
    }


def _bytes(sol) -> list:
    """The shape and component bytes of every matrix of a solution."""
    return [(m.shape, tuple(c.tobytes() for c in m.components()))
            for m in sol]


def run(corpus_path, out_path):
    from qsylv import verify_solution
    from qsylv.documents import instance_from_doc
    from qsylv.solvers.families import DEFAULT_TOL, Inconsistent, check, solve

    with open(corpus_path, "rb") as fh:
        corpus = pickle.load(fh)
    results = {}
    for case in corpus:
        inst = instance_from_doc(case["doc"])
        rec = {"check": _verdict(check(inst, DEFAULT_TOL))}
        res = solve(inst, DEFAULT_TOL)
        if isinstance(res, Inconsistent):
            rec["solve"] = {"outcome": "inconsistent", **_verdict(res.report)}
        else:
            rng = np.random.default_rng(7)
            member = res.assemble(res.random_params(rng))
            particular = res.assemble()
            rec["solve"] = {
                "outcome": "family",
                "particular_verifies": verify_solution(
                    inst, particular, DEFAULT_TOL).passed,
                "member_verifies": verify_solution(
                    inst, member, DEFAULT_TOL).passed,
                "params": [(p.name, p.shape) for p in res.free_params],
                "particular": _bytes(particular),
                "member": _bytes(member),
            }
        results[case["label"]] = rec
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)
    print(f"{len(results)} instances judged")


# the verdict of a record: check's and solve's, without the
# condition lists and the bit-level fields
_LISTS = ("conditions", "ranks")
_BITS = ("report", "params", "particular", "member")


def _without(rec, keys) -> dict:
    return {part: {k: v for k, v in res.items() if k not in keys}
            for part, res in rec.items()}


def _nameless(rec) -> dict:
    """A record with every condition and parameter name left out, so
    that conditions and parameters are matched by position."""
    out = {}
    for part, res in rec.items():
        res = dict(res)
        for key in _LISTS + ("params",):
            if key in res:
                res[key] = [item[1:] for item in res[key]]
        if "report" in res:
            res["report"] = {
                k: [{f: x for f, x in c.items() if f != "name"} for c in v]
                if isinstance(v, list) else v
                for k, v in res["report"].items()}
        out[part] = res
    return out


def _zero_signs_only(u, v) -> bool:
    """Whether two solutions' planes (as ``_bytes`` gives them) hold
    equal numbers, so that only the signs of zero entries differ."""
    if [shape for shape, _ in u] != [shape for shape, _ in v]:
        return False
    return all(np.array_equal(np.frombuffer(p), np.frombuffer(q),
                              equal_nan=True)
               for (_, ps), (_, qs) in zip(u, v) for p, q in zip(ps, qs))


def _first_difference(a, b) -> str:
    """The first part and field in which two nameless records differ."""
    for part in a:
        for key in _LISTS + _BITS:
            u, v = a[part].get(key), b[part].get(key)
            if u != v:
                zeros = (key in ("particular", "member")
                         and _zero_signs_only(u, v))
                return f"{part} {key}" + (
                    " (only the sign of zeros)" if zeros else "")
    return "unknown field"


def compare(a_path, b_path) -> int:
    with open(a_path, "rb") as fh:
        a = pickle.load(fh)
    with open(b_path, "rb") as fh:
        b = pickle.load(fh)
    if a.keys() != b.keys():
        print("the two runs judged different corpora")
        return 1
    # variant -> [instances, verdicts, lists only, bits, unverified]
    counts = {}
    families = 0
    for label in a:
        row = counts.setdefault(label.split()[0], [0, 0, 0, 0, 0])
        row[0] += 1
        u, v = a[label], b[label]
        if _without(u, _LISTS + _BITS) != _without(v, _LISTS + _BITS):
            row[1] += 1
            print(f"verdict differs: {label}")
        elif _nameless(u) != _nameless(v):
            row[3] += 1
            print(f"bits differ: {label}: "
                  f"{_first_difference(_nameless(u), _nameless(v))}")
        elif u != v:
            row[2] += 1
        for res in (u["solve"], v["solve"]):
            if res["outcome"] == "family":
                families += 1
                if not (res["particular_verifies"]
                        and res["member_verifies"]):
                    row[4] += 1
                    print(f"family fails to verify: {label}")
    print(f"{'variant':12s} {'instances':>9s} {'verdicts':>9s} "
          f"{'lists only':>10s} {'bits':>9s} {'unverified':>10s}")
    for variant, row in counts.items():
        print(f"{variant:12s} " + " ".join(
            f"{n:{w}d}" for n, w in zip(row, (9, 9, 10, 9, 10))))
    total = [sum(col) for col in zip(*counts.values())]
    print(f"{len(a)} instances: {total[1]} with a differing verdict, "
          f"{total[2]} differing only in names, {total[3]} differing in "
          f"other bits; {families} families, {total[4]} failing "
          "verification")
    return 1 if any(total[1:]) else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "gen":
        generate(argv[2])
        return 0
    if len(argv) == 4 and argv[1] == "run":
        run(argv[2], argv[3])
        return 0
    if len(argv) == 4 and argv[1] == "compare":
        return compare(argv[2], argv[3])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
