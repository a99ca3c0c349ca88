"""Layer spans recorded from outside the library.

The tracer replaces selected qsylv functions and methods, and
``numpy.linalg.svd``, with timing wrappers.  The solver modules import
``pinv``, ``rank``, ``block`` and the solver entry points by name, so
every ``qsylv.*`` module attribute that is the original function object
is rebound, not only the defining module's; ``restore`` puts every one
back.  Spans live in flat in-memory arrays with parent links, and self
times are computed once the run ends.
"""

from __future__ import annotations

import hashlib
import sys
import time
from array import array

import numpy as np

import qsylv
from qsylv import decomp, eta, harness, qmatrix
from qsylv.eta import EtaFullInstance, EtaThreeInstance
from qsylv.qmatrix import QMatrix

CATEGORIES = ("svd", "embed", "matmul", "block", "pinv", "rank", "check",
              "solve", "eta", "verify", "assemble", "doc_parse", "doc_emit")
CAT = {name: k for k, name in enumerate(CATEGORIES)}
_OPS = (CAT["check"], CAT["solve"])


def svd_flops(rows: int, cols: int, compute_uv: bool) -> float:
    """Computed flop estimate of one complex LAPACK gesdd call.

    Golub & Van Loan's real counts (singular values only: 4mn^2 - 4n^3/3;
    thin U, S, V: 14mn^2 + 8n^3, m >= n), times 4 for complex arithmetic.
    """
    m, n = max(rows, cols), min(rows, cols)
    if compute_uv:
        real = 14.0 * m * n * n + 8.0 * n ** 3
    else:
        real = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    return 4.0 * real


class Tracer:
    """Spans at layer boundaries plus counts taken at the same places.

    While ``active`` is false the wrappers call straight through and
    record nothing, so instance generation can run with the tracer
    installed without polluting the per-call figures.
    """

    def __init__(self):
        self.active = False
        self.cat = array("B")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.hidden = array("d")   # tracer bookkeeping inside the span
        self.top_ops = 0
        self.svd_repeats = 0
        self.svd_max_dim = 0
        self.svd_flops = 0.0
        self.embed_bytes = 0
        self._stack = [-1]
        self._op_depth = 0
        self._seen = set()
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self, cid: int) -> int:
        idx = len(self.t0)
        self.cat.append(cid)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self.hidden.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span around a call the benchmark makes."""
        return _Span(self, CAT[name])

    def _wrap(self, name: str, fn):
        cid = CAT[name]
        is_op = cid in _OPS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_op:
                if self._op_depth == 0:
                    self.top_ops += 1
                    self._seen.clear()
                self._op_depth += 1
            idx = self._open(cid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if is_op:
                    self._op_depth -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_embed(self, fn):
        plain = self._wrap("embed", fn)

        def traced(a):
            if self.active:
                # output is a 2m x 2n complex128 array
                self.embed_bytes += 64 * a.rows * a.cols
            return plain(a)

        traced.__wrapped__ = fn
        return traced

    def _wrap_svd(self, fn):
        cid = CAT["svd"]

        def traced(a, *args, **kwargs):
            if not self.active:
                return fn(a, *args, **kwargs)
            idx = self._open(cid)
            h0 = time.perf_counter()
            compute_uv = kwargs.get("compute_uv",
                                    args[1] if len(args) > 1 else True)
            rows, cols = a.shape[-2:]
            self.svd_max_dim = max(self.svd_max_dim, rows, cols)
            self.svd_flops += svd_flops(rows, cols, compute_uv)
            key = (a.shape, hashlib.blake2b(np.ascontiguousarray(a).data,
                                            digest_size=16).digest())
            if self._op_depth:
                if key in self._seen:
                    self.svd_repeats += 1
                self._seen.add(key)
            self.hidden[idx] = time.perf_counter() - h0
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded qsylv module."""
        funcs = {decomp.pinv: "pinv", decomp.rank: "rank",
                 qmatrix.block: "block", harness.verify_solution: "verify",
                 eta.symmetrize: "eta"}
        for name in qsylv.__all__:
            if name.startswith("check_"):
                funcs[getattr(qsylv, name)] = "check"
            elif name.startswith("solve_"):
                funcs[getattr(qsylv, name)] = "solve"
        wrappers = {id(fn): self._wrap(cat, fn) for fn, cat in funcs.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qsylv"
                                   or modname.startswith("qsylv.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(mod, attr, wrapper)
        self._patch(QMatrix, "__matmul__",
                    self._wrap("matmul", QMatrix.__matmul__))
        self._patch(QMatrix, "embed", self._wrap_embed(QMatrix.embed))
        # the doubling reduction of the eta-Hermitian systems
        self._patch(EtaFullInstance, "to_master",
                    self._wrap("eta", EtaFullInstance.to_master))
        self._patch(EtaThreeInstance, "to_full",
                    self._wrap("eta", EtaThreeInstance.to_full))
        self._patch(np.linalg, "svd", self._wrap_svd(np.linalg.svd))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every original function, last patched first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-category call counts, self seconds and total seconds
        (total double-counts a category nested in itself, so it is read
        only for categories that never nest), tracer bookkeeping
        excluded, plus the SVD counts that fall inside a check/solve op.

        A span's self time is its duration minus its children's; spans
        are numbered in start order, so walking them backwards sees every
        child before its parent.
        """
        n = len(self.t0)
        hidden_total = list(self.hidden)
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                hidden_total[p] += hidden_total[i]
        net = [self.t1[i] - self.t0[i] - hidden_total[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += net[i]
        calls = [0] * len(CATEGORIES)
        self_s = [0.0] * len(CATEGORIES)
        total_s = [0.0] * len(CATEGORIES)
        in_op = [False] * n
        svd_in_ops = 0
        svd_by_parent = {}
        for i in range(n):
            c, p = self.cat[i], self.parent[i]
            calls[c] += 1
            self_s[c] += net[i] - child[i]
            total_s[c] += net[i]
            in_op[i] = p >= 0 and (in_op[p] or self.cat[p] in _OPS)
            if c == CAT["svd"]:
                svd_in_ops += in_op[i]
                parent = CATEGORIES[self.cat[p]] if p >= 0 else None
                svd_by_parent[parent] = svd_by_parent.get(parent, 0) + 1
        return {
            "calls": dict(zip(CATEGORIES, calls)),
            "self_s": dict(zip(CATEGORIES, self_s)),
            "total_s": dict(zip(CATEGORIES, total_s)),
            "svd_in_ops": svd_in_ops,
            "svd_by_parent": svd_by_parent,
            "top_ops": self.top_ops,
            "svd_repeats": self.svd_repeats,
            "svd_max_dim": self.svd_max_dim,
            "svd_flops": self.svd_flops,
            "embed_bytes": self.embed_bytes,
            "spans": n,
        }


class _Span:
    __slots__ = ("tracer", "cid", "idx")

    def __init__(self, tracer: Tracer, cid: int):
        self.tracer = tracer
        self.cid = cid

    def __enter__(self):
        self.idx = self.tracer._open(self.cid) if self.tracer.active else -1
        return self

    def __exit__(self, *exc):
        if self.idx >= 0:
            self.tracer._close(self.idx)
        return False
