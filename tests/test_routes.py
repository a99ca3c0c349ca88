"""One contract for the routes that settle a rank.

qsylv settles every rank it decides by an SVD of its embedding, by the
full-rank certificate, by its twin's rank when it is a mirror on the
root of an eta lift, or on the helper thread of ``decomp.ranks``.  A
route picks how a rank is settled, never its value.  So each row of
``ROWS`` checks every instance of a ``corpus()`` spec from cold under
two configurations of ``CONFIGS``, a base and another, and both must
give the same ``report.to_dict()`` and the same held panel ranks
(``factors.panels``).  The reference settles every rank by SVD, on the
calling thread.

What a route saves is stated per row, never per instance; the cost of
a call is pinned only in ``COUNTS`` (``tests/test_counts.py``), so a
change that moves a count edits that table alone:

- the reference takes no certificate, and every row holds a consistent
  instance and an inconsistent one;
- a row whose base is the reference takes fewer rank SVDs in total;
- as shipped, no planted instance has a certificate refused, so every
  panel it offers is certified;
- offering every grid first, a check refuses a certificate only as its
  last one, so every panel is certified, and a consistent instance's
  rank-deficient bordered grids are offered too;
- with the helper's gates open, the same grids are settled as without,
  each cold ``ranks`` call settles one of them on ``qsylv-rank``, and
  both threads certify;
- no thread outlives a call.
"""

import threading
from typing import NamedTuple

import pytest

from qsylv.harness import VARIANTS
from qsylv.solvers import families

from tests.conftest import cold_check, corpus, set_route

CONFIGS = {
    "reference": ("certificate", "mirrors", "serial"),
    "default": (),
    "certificate-first": ("certificate-first",),
    "helper": ("helper",),
}

ROWS = {
    # name: base, configuration, variants, corpus spec
    "default": ("reference", "default", VARIANTS, dict(
        kinds=("planted", "twin", "degenerate"), sizes=(1, 2, 3, 4, 8),
        scales=(1e-8, 1.0, 1e8))),
    "certificate-first": ("reference", "certificate-first", VARIANTS, dict(
        kinds=("planted", "twin", "moved"), sizes=(1, 2, 3, 4),
        seeds=(0, 1, 2))),
    "helper": ("default", "helper", VARIANTS, dict(
        sizes=(2, 3, 4), seeds=(1, 2), etas="ik")),
    # a coupling side 1e-11 (relative) off eta-Hermitian, which
    # require() accepts
    "accepted-defect": ("reference", "default", ("eta-full",), dict(
        sizes=(1, 2, 4, 8), seeds=(0, 1), defect=1e-11)),
}


class Run(NamedTuple):
    """A cold check: its report, held panel ranks and events."""

    report: dict
    panels: list
    events: list


def _cold(config, cases, counter):
    """A cold check of each case under ``config``; no thread outlives
    one."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in CONFIGS[config]:
            set_route(monkeypatch, name)
        runs = []
        for label, inst in cases:
            threads = threading.active_count()
            report, events = cold_check(inst, counter)
            assert threading.active_count() == threads, label
            runs.append(Run(report.to_dict(),
                            list(families._SLOT[0].factors.panels), events))
    return runs


def _settled(events):
    """The pinv flag and shape of each SVD, and of each grid a
    certificate settled."""
    return sorted((e.kind == "pinv", e.shape) for e in events
                  if e.settled is not False)


CASES = [(row, variant) for row, (*_, variants, _) in ROWS.items()
         for variant in variants]


@pytest.mark.parametrize("row, variant", CASES,
                         ids=[f"{row}-{variant}" for row, variant in CASES])
def test_each_route_gives_the_base_report(row, variant, counter):
    base, config, _, spec = ROWS[row]
    cases = list(corpus(variant, **spec))
    runs = {c: _cold(c, cases, counter) for c in (base, config)}
    for (label, _), b, c in zip(cases, runs[base], runs[config]):
        assert (c.report, c.panels) == (b.report, b.panels), label
    events = {c: [e for run in runs[c] for e in run.events] for c in runs}
    assert {run.report["consistent"] for run in runs[base]} == {True, False}
    if base == "reference":
        assert all(e.kind != "certificate" for e in events[base])
        rank_svds = {c: sum(e.kind == "rank" for e in events[c])
                     for c in runs}
        assert rank_svds[config] < rank_svds[base]
    for (label, _), run in zip(cases, runs.get("default", ())):
        # a planted list offers its panels alone, of full rank
        if label.startswith("planted"):
            assert all(e.settled is not False for e in run.events), label
    if config == "certificate-first":
        tried = [[e.settled for e in run.events if e.kind == "certificate"]
                 for run in runs[config]]
        for (label, _), settled in zip(cases, tried):
            assert False not in settled[:-1], label
        assert any(run.report["consistent"] and False in settled
                   for run, settled in zip(runs[config], tried))
    if config == "helper":
        for (label, _), b, h in zip(cases, runs[base], runs[config]):
            assert _settled(b.events) == _settled(h.events), label
            assert sum(e.thread == "qsylv-rank" and e.settled is not False
                       for e in h.events) == (1 if variant == "pair"
                                              else 2), label
        assert {e.thread for e in events[config]
                if e.kind == "certificate"} == {"MainThread", "qsylv-rank"}
