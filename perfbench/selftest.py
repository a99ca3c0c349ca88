"""Self-tests of the benchmark's own generator and tracer.

Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check passes.  The pinned counts describe the
library as this benchmark was written against it; a change that moves
them on purpose (for example taking the rank certificate off a path)
updates the expectation here together with its own measurements.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import qsylv  # noqa: E402
from qsylv import DimensionProfile, gen_consistent  # noqa: E402
from qsylv.qmatrix import QMatrix  # noqa: E402

from instances import cube_master  # noqa: E402
from tracer import Tracer  # noqa: E402

# one check_master on a cube instance: 34 SVDs in the pinv cascade and
# 35 in the rank certificate
MASTER_SVDS = {"pinv": 34, "rank": 35}


def check_generator():
    for size in range(0, 15):
        for seed in (0, 7):
            want_inst, want_sol = gen_consistent(
                DimensionProfile.cube(size, seed))
            got_inst, got_sol = cube_master(size, seed)
            pairs = list(zip(want_inst.blocks(), got_inst.blocks()))
            pairs += list(zip(want_sol.as_tuple(), got_sol.as_tuple()))
            for want, got in pairs:
                for a, b in zip(want.components(), got.components()):
                    if a.shape != b.shape or a.tobytes() != b.tobytes():
                        raise AssertionError(
                            f"cube_master({size}, {seed}) differs from "
                            "gen_consistent")
    return "cube_master is bit-identical to gen_consistent for sizes 0..14"


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "qsylv" or name.startswith("qsylv."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out[("QMatrix", "__matmul__")] = QMatrix.__dict__["__matmul__"]
    out[("QMatrix", "embed")] = QMatrix.__dict__["embed"]
    out[("numpy.linalg", "svd")] = np.linalg.svd
    return out


def check_tracer():
    inst, _ = cube_master(4, 0)
    before = _bindings()
    tracer = Tracer()
    with tracer:
        if qsylv.solvers.master.pinv is before[("qsylv.decomp", "pinv")]:
            raise AssertionError("solver-local pinv binding was not traced")
        tracer.active = True
        report = qsylv.check_master(inst)
        tracer.active = False
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        raise AssertionError(f"bindings not restored: {changed}")
    if not report.consistent:
        raise AssertionError("planted cube instance judged inconsistent")
    summary = tracer.summary()
    by_parent = summary["svd_by_parent"]
    if by_parent != MASTER_SVDS or summary["svd_in_ops"] != 69:
        raise AssertionError(f"check_master made SVDs {by_parent}, "
                             f"expected {MASTER_SVDS}")
    if summary["top_ops"] != 1:
        raise AssertionError(f"counted {summary['top_ops']} operations")
    return ("one check_master makes 69 SVDs (34 pinv, 35 rank); "
            "all bindings restored")


def main() -> int:
    for check in (check_generator, check_tracer):
        print(f"ok: {check()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
