"""qsylv benchmark: one process, one client, closed loop.

    python3 perfbench/run.py --workload master-large --seed 1 \\
        --seconds 40 --trace 0

Each workload generates seeded instances with known truth, drives the
public API (check_*, solve_* + assemble(), verify_solution, and for
fuzz-scaled the JSON document round trip), checks every result against
the planted truth and prints every metric by name and unit.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from an untraced run.
--trace 1 runs half the passes untraced and half with the layer tracer
installed, and reports the per-layer metrics plus the tracing overhead
(traced seconds per instance over untraced, minus one).

A run is a fixed amount of work: whole passes over a workload's
instance set, as many as take about --seconds on the host the benchmark
was sized on (Workload.pass_seconds).  So every run sees the same mix of
variants, sizes and scales, and the same seed gives the same operations
and the same failures, however fast the machine.  The gated timings and
throughput take, for each position in the pass, the fastest of its
samples across passes; medians over passes are printed beside them.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (at or below nproc on any machine): run-to-run spread
# is what a comparison between two commits has to beat.  Must be set
# before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, fields  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
PASS_STATS = ("check", "solve", "verify")
PASS_FIGURES = (("check_ms", "ms"), ("solve_ms", "ms"), ("verify_ms", "ms"),
                ("instances_per_s", "1/s"))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qsylv; "
                "print(time.perf_counter() - t)")

GENERATOR_NOTE = (
    "gen_unsolvable('five-term', size >= 5) raises RuntimeError (its "
    "wide_rhs shape spans the whole target space), so fuzz-scaled runs "
    "five-term at size 4")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("master-large", "fuzz-scaled"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- operations --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_pass: Callable      # (seed, pass_no) -> list of Case
    solve_first: bool        # solve_*, then check_*
    random_member: bool      # also assemble and verify one random member
    documents: bool          # JSON round trip of instance and report
    pass_seconds: float      # one pass, untraced, on a 2-core x86-64 host

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


class Record:
    """Samples and failure counts of one measured loop."""

    def __init__(self):
        self.check_ms, self.solve_ms, self.verify_ms = [], [], []
        self.passes = []         # per pass: PASS_STATS means, inst/s
        self.slots = []          # per pass: check ms, solve ms, seconds
                                 # of the whole pipeline; one per case
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.wrong_outputs = Counter()
        self.tracebacks = {}

    def fail(self, case, what: str, wrong_output: bool = False):
        """Count one failed operation.  wrong_output marks a result the
        library presented as valid that is not: a solution that does not
        solve, a consistent verdict on an unsolvable instance, or a
        document that does not round-trip."""
        self.failed += 1
        self.failures[f"{case.label}: {what}"] += 1
        if wrong_output:
            self.wrong_outputs[f"{case.label}: {what}"] += 1

    def raised(self, case, op: str):
        name = sys.exc_info()[0].__name__
        self.fail(case, f"{op} raised {name}")
        self.tracebacks.setdefault(f"{case.label}: {op}",
                                   traceback.format_exc())


def _entry(qsylv, variant: str, inst):
    """(check call, solve call) for one instance.  Names are looked up on
    the package at call time so the tracer's rebinding applies."""
    if variant == "two-term":
        args = (inst.C3, inst.D3, inst.C4, inst.D4, inst.E1)
        return (lambda: qsylv.check_two_term(*args),
                lambda: qsylv.solve_two_term(*args))
    if variant == "eta-two":
        return (lambda: qsylv.check_eta_two(inst),
                lambda: qsylv.solve_eta_two(inst.B1, inst.C1, inst.D1,
                                            inst.eta))
    if variant == "eta-mixed":
        return (lambda: qsylv.check_eta_mixed(inst),
                lambda: qsylv.solve_eta_mixed(inst.A1, inst.C1, inst.B1,
                                              inst.D1, inst.A2, inst.A3,
                                              inst.D3, inst.eta))
    check, solve = {
        "master": ("check_master", "solve_master"),
        "three-term": ("check_three_term", "solve_three_term_system"),
        "mixed": ("check_mixed", "solve_mixed_system"),
        "five-term": ("check_five_term", "solve_five_term"),
        "eta-full": ("check_eta_full", "solve_eta_full"),
        "eta-three": ("check_eta_three", "solve_eta_three"),
    }[variant]
    return (lambda: getattr(qsylv, check)(inst),
            lambda: getattr(qsylv, solve)(inst))


def _same_instance(a, b) -> bool:
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, str):
            if x != y:
                return False
        elif x.shape != y.shape or any(
                p.tobytes() != q.tobytes()
                for p, q in zip(x.components(), y.components())):
            return False
    return True


class Runner:
    """Runs the per-instance pipeline of a workload and records it."""

    def __init__(self, qsylv, documents, workload: Workload, tracer, rng):
        self.q = qsylv
        self.docs = documents
        self.wl = workload
        self.tracer = tracer
        self.rng = rng

    # Each operation catches Exception: the benchmark is the boundary
    # that must keep running, and a raising call is a counted failure
    # whose first traceback is kept for the report.

    def check(self, case, call, rec):
        rec.attempted += 1
        t = time.perf_counter()
        try:
            report = call()
        except Exception:
            rec.check_ms.append(1e3 * (time.perf_counter() - t))
            rec.raised(case, "check")
            return None
        rec.check_ms.append(1e3 * (time.perf_counter() - t))
        if report.consistent != case.consistent:
            rec.fail(case, f"check verdict consistent={report.consistent}",
                     wrong_output=report.consistent)
        elif not report.forms_agree:
            rec.fail(case, "check forms_agree=False")
        return report

    def solve(self, case, call, rec):
        rec.attempted += 1
        span = self.tracer.span
        t = time.perf_counter()
        try:
            result = call()
            if isinstance(result, self.q.Inconsistent):
                report, solutions = result.report, []
            else:
                report = None
                with span("assemble"):
                    solutions = [result.assemble()]
        except Exception:
            rec.solve_ms.append(1e3 * (time.perf_counter() - t))
            rec.raised(case, "solve")
            return
        rec.solve_ms.append(1e3 * (time.perf_counter() - t))
        if report is not None:
            if case.consistent:
                rec.fail(case, "solve returned Inconsistent")
            elif report.consistent:
                rec.fail(case, "Inconsistent carries a consistent report",
                         wrong_output=True)
            return
        if not case.consistent:
            rec.fail(case, "solve returned a family", wrong_output=True)
            return
        try:
            if self.wl.random_member:
                with span("assemble"):
                    solutions.append(result.assemble(
                        result.random_params(self.rng)))
            passed = True
            for sol in solutions:
                t = time.perf_counter()
                passed &= self.q.verify_solution(case.inst, sol).passed
                rec.verify_ms.append(1e3 * (time.perf_counter() - t))
        except Exception:
            rec.raised(case, "assemble/verify")
            return
        if not passed:
            rec.fail(case, "assembled solution fails verify_solution",
                     wrong_output=True)

    def round_trip(self, case, report, rec):
        rec.attempted += 1
        span = self.tracer.span
        try:
            with span("doc_emit"):
                text = json.dumps(self.docs.instance_to_doc(case.inst))
                if report is not None:
                    json.dumps(report.to_dict())
            with span("doc_parse"):
                back = self.docs.instance_from_doc(json.loads(text))
        except Exception:
            rec.raised(case, "documents")
            return
        if not _same_instance(case.inst, back):
            rec.fail(case, "instance document does not round-trip",
                     wrong_output=True)

    def run_case(self, case, rec):
        check_call, solve_call = _entry(self.q, case.variant, case.inst)
        if self.wl.solve_first:
            self.solve(case, solve_call, rec)
            report = self.check(case, check_call, rec)
        else:
            report = self.check(case, check_call, rec)
            self.solve(case, solve_call, rec)
        if self.wl.documents:
            self.round_trip(case, report, rec)
        rec.instances += 1

    def run_passes(self, rec, seed, first_pass, cases, count, traced):
        """Runs passes first_pass .. first_pass + count - 1; returns
        (measured seconds, instances run).

        Generation of later passes happens between passes, outside the
        measured time and with the tracer paused."""
        busy, start = 0.0, rec.instances
        for pass_no in range(first_pass, first_pass + count):
            if cases is None:
                cases = self.wl.make_pass(seed, pass_no)
            marks = [len(getattr(rec, f"{n}_ms")) for n in PASS_STATS]
            case_s = []
            self.tracer.active = traced
            t = time.perf_counter()
            for case in cases:
                t0 = time.perf_counter()
                self.run_case(case, rec)
                case_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t
            self.tracer.active = False
            busy += elapsed
            rec.slots.append((rec.check_ms[marks[0]:],
                              rec.solve_ms[marks[1]:], case_s))
            rec.passes.append(
                [statistics.fmean(getattr(rec, f"{n}_ms")[k:])
                 for n, k in zip(PASS_STATS, marks)]
                + [len(cases) / elapsed])
            cases = None
        return busy, rec.instances - start


# -- set-up ------------------------------------------------------------------

def import_seconds() -> float:
    """Time of `import qsylv` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: Workload, seed: int):
    """setup_s = median import time + median generation time of the
    first pass, each taken SETUP_REPEATS times."""
    imports, gens = [], []
    cases = None
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t = time.perf_counter()
        cases = workload.make_pass(seed, 0)
        gens.append(time.perf_counter() - t)
    return statistics.median(imports), statistics.median(gens), cases


def environment(np, qsylv, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "qsylv": qsylv.__version__, "blas": blas_name,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "clients": 1, "loop": "closed",
    }


# -- reporting ---------------------------------------------------------------

def tail(samples):
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, or None."""
    best = None
    ordered = sorted(samples)
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(ordered) * (1 - p / 100) >= 10:
            k = min(len(ordered) - 1, int(len(ordered) * p / 100))
            best = (p, ordered[k])
    return best


def best_per_slot(rec, column: int) -> list:
    """For each position in the pass, the fastest of its samples across
    passes.  Position j holds the same variant, size, scale and truth in
    every pass, on freshly drawn instances, so its samples differ mainly
    by the load the machine was under, which only ever adds time."""
    return [min(v) for v in zip(*(slot[column] for slot in rec.slots))]


def end_to_end(rec, setup_s) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pipeline_s = best_per_slot(rec, 2)
    return {
        "check_best_ms": (statistics.fmean(best_per_slot(rec, 0)), "ms"),
        "solve_best_ms": (statistics.fmean(best_per_slot(rec, 1)), "ms"),
        "best_instances_per_s": (len(pipeline_s) / sum(pipeline_s), "1/s"),
        "pass_ratio": (1.0 - rec.failed / rec.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(summary, instances, gen_s_per_inst, overhead) -> dict:
    calls, self_s, total_s = (summary["calls"], summary["self_s"],
                              summary["total_s"])
    n = float(instances)
    svd = max(summary["svd_in_ops"], 1)
    return {
        "qmatrix.matmul.calls": (calls["matmul"] / n, "1/inst"),
        "qmatrix.matmul.self_s": (self_s["matmul"] / n, "s/inst"),
        "qmatrix.block.calls": (calls["block"] / n, "1/inst"),
        "qmatrix.block.self_s": (self_s["block"] / n, "s/inst"),
        "qmatrix.embed.calls": (calls["embed"] / n, "1/inst"),
        "qmatrix.embed.self_s": (self_s["embed"] / n, "s/inst"),
        "qmatrix.embed.bytes": (summary["embed_bytes"] / n, "B/inst"),
        "decomp.pinv.calls": (calls["pinv"] / n, "1/inst"),
        "decomp.pinv.self_s": (self_s["pinv"] / n, "s/inst"),
        "decomp.rank.calls": (calls["rank"] / n, "1/inst"),
        "decomp.rank.self_s": (self_s["rank"] / n, "s/inst"),
        "decomp.svd.calls": (calls["svd"] / n, "1/inst"),
        "decomp.svd.self_s": (self_s["svd"] / n, "s/inst"),
        "decomp.svd.max_dim": (summary["svd_max_dim"], "count"),
        "decomp.svd.flops": (summary["svd_flops"] / n, "flop/inst"),
        "decomp.svd.repeat_ratio": (summary["svd_repeats"] / svd, "ratio"),
        "solvers.svd_per_call": (
            summary["svd_in_ops"] / max(summary["top_ops"], 1), "1/call"),
        "solvers.check.self_s": (self_s["check"] / n, "s/inst"),
        "solvers.solve.self_s": (self_s["solve"] / n, "s/inst"),
        "solvers.assemble.s": (self_s["assemble"] / n, "s/inst"),
        "eta.self_s": (self_s["eta"] / n, "s/inst"),
        "harness.verify.s": (total_s["verify"] / n, "s/inst"),
        "harness.gen.s": (gen_s_per_inst, "s/inst"),
        "documents.parse.s": (total_s["doc_parse"] / n, "s/inst"),
        "documents.emit.s": (total_s["doc_emit"] / n, "s/inst"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def print_metrics(title, metrics, counts=None):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"{name:28s} {value:16.6g} {unit}{extra}")


def print_failures(rec):
    print(f"fail_ratio {rec.failed / rec.attempted:.6g} "
          f"({rec.failed} of {rec.attempted} operations)")
    for what, n in sorted(rec.failures.items()):
        print(f"  failed x{n}: {what}")
    for what, n in sorted(rec.wrong_outputs.items()):
        print(f"  WRONG OUTPUT x{n}: {what}")
    for where, tb in rec.tracebacks.items():
        print(f"first traceback of {where}:\n{tb}", file=sys.stderr)


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsylv" / "__init__.py").is_file():
        print(f"error: qsylv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qsylv
    from qsylv import documents

    import instances
    from tracer import Tracer

    workloads = {
        "master-large": Workload(instances.master_large_pass,
                                 solve_first=False, random_member=True,
                                 documents=False, pass_seconds=2.6),
        "fuzz-scaled": Workload(instances.fuzz_scaled_pass,
                                solve_first=True, random_member=False,
                                documents=True, pass_seconds=4.0),
    }
    wl = workloads[args.workload]
    env = environment(np, qsylv, args)
    print("# environment " + json.dumps(env, sort_keys=True))
    if args.workload == "fuzz-scaled":
        print(f"# note: {GENERATOR_NOTE}")

    import_s, gen_s, cases = measure_setup(wl, args.seed)
    tracer = Tracer()
    runner = Runner(qsylv, documents, wl, tracer,
                    np.random.default_rng(args.seed))
    # warm-up on small instances of the same variants, outside timing
    warm = Record()
    for variant in dict.fromkeys(c.variant for c in cases):
        inst, _ = qsylv.gen_planted(variant, 2, args.seed)
        runner.run_case(instances.Case(variant, inst, True, "warm-up"),
                        warm)

    rec = Record()
    if args.trace == 0:
        busy, _ = runner.run_passes(rec, args.seed, 0, cases,
                                    wl.passes(args.seconds), traced=False)
        metrics = end_to_end(rec, import_s + gen_s)
        passes = len(rec.passes)
        print_metrics(f"end-to-end, {args.workload}, {busy:.2f} s measured, "
                      f"{rec.instances} instances in {passes} passes", metrics,
                      {"check_best_ms": passes, "solve_best_ms": passes,
                       "best_instances_per_s": passes,
                       "pass_ratio": rec.attempted})
        print_metrics("medians over passes of each pass's figure, not gated", {
            name: (statistics.median(column), unit)
            for (name, unit), column in zip(PASS_FIGURES, zip(*rec.passes))})
        for name, samples in (("check", rec.check_ms),
                              ("solve", rec.solve_ms),
                              ("verify", rec.verify_ms)):
            t = tail(samples)
            print(f"{name}_mean_ms {statistics.fmean(samples):.6g} ms; "
                  f"{name}_p50_ms {statistics.median(samples):.6g} ms; "
                  f"{name}_tail_ms " + (
                      f"p{t[0]:g} = {t[1]:.6g} ms" if t else
                      "not reported (no percentile has ten samples "
                      "beyond it)") + f"; n={len(samples)}")
        print("per pass (check ms, solve ms, verify ms, instances/s): "
              + json.dumps([[round(x, 6) for x in row]
                            for row in rec.passes]))
        print(f"setup: import {import_s:.4f} s + generation {gen_s:.4f} s "
              f"(medians of {SETUP_REPEATS})")
    else:
        half = wl.passes(args.seconds / 2.0)
        busy_u, n_u = runner.run_passes(rec, args.seed, 0, cases, half,
                                        traced=False)
        with tracer:
            busy_t, n_t = runner.run_passes(rec, args.seed, half, None, half,
                                            traced=True)
        summary = tracer.summary()
        overhead = (busy_t / n_t) / (busy_u / n_u) - 1.0
        metrics = per_layer(summary, n_t, gen_s / len(cases), overhead)
        print_metrics(f"per layer, {args.workload}, {n_t} traced instances "
                      f"in {busy_t:.2f} s, {summary['spans']} spans, "
                      f"{summary['top_ops']} check/solve calls", metrics)
        print("computed from shapes, not measured: qmatrix.embed.bytes, "
              "decomp.svd.flops")
        print(f"tracing overhead {100 * overhead:.1f}% "
              f"({busy_t / n_t:.4f} s/inst traced, "
              f"{busy_u / n_u:.4f} s/inst untraced)")

    print_failures(rec)
    result = {
        "correct": not rec.wrong_outputs,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
