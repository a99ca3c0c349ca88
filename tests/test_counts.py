"""What each call costs: the pinv SVDs, rank SVDs and full-rank
certificates of a sequence of calls, pinned in one table.

A row names an instance (variant, size, seed, eta, planted or twin) and
its calls, run in order from cold (the ``counter`` fixture counts
them).  A call is ``check``, ``solve``, ``assemble`` (of the family the
last ``solve`` returned) or ``list`` (reading the deferred rank list of
the ``Inconsistent`` it returned); ``call:twin`` or ``call:planted``
runs on the row's other instance, and ``call:x3e8`` on its own instance
with every right side multiplied by 3e8.  A change that moves a count
edits its row.

What the rows show:

- A cold call takes the pinv SVDs of its factorization; a call on the
  held work, or over held coefficients, takes none.
- The first rank list of a factorization certifies its coefficient-only
  panels, and every later list reads their ranks.  A planted list ranks
  its bordered grids by SVD; a list whose residual form has failed (a
  twin's) offers them to the certificate, until its first refusal
  (pair's twin).
- On the root of an eta lift, a mirror takes its twin's rank: eta-full
  ranks 9 of master's 17 bordered grids and certifies 10 of its 18
  panels, eta-two ranks 2 of two-term's 4 and certifies 1 of its 2.
- ``solve`` ranks nothing; the deferred list of an ``Inconsistent``
  ranks on first read.
"""

import pytest

from qsylv.harness import gen_planted, gen_unsolvable
from qsylv.solvers.families import check, solve

from tests.conftest import counts, evict, scaled_rhs

TOL = 1e-9

COUNTS = [
    # variant, size, seed, eta, instance, calls,
    #     (pinv SVDs, rank SVDs, certificates) of each call
    ("master", 2, 0, "i", "planted", "check check:x3",
     (31, 17, 18), (0, 17, 0)),
    ("master", 2, 0, "i", "planted", "solve assemble solve:twin list check",
     (31, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 35), (0, 17, 0)),
    ("master", 2, 1, "i", "planted", "check solve assemble",
     (31, 17, 18), (0, 0, 0), (0, 0, 0)),
    ("master", 2, 1, "i", "planted", "solve check",
     (31, 0, 0), (0, 17, 18)),
    ("master", 2, 1, "i", "planted",
     "check solve:x3e-8 check:x3e-8 solve:x3 check:x3 solve:x3e8 check:x3e8",
     (31, 17, 18), (0, 0, 0), (0, 17, 0), (0, 0, 0), (0, 17, 0),
     (0, 0, 0), (0, 17, 0)),
    ("pair", 2, 0, "i", "planted", "check check:x3",
     (2, 2, 0), (0, 2, 0)),
    ("two-term", 2, 0, "i", "planted", "check check:x3",
     (6, 4, 2), (0, 4, 0)),
    ("five-term", 2, 0, "i", "planted", "check check:x3",
     (22, 9, 18), (0, 9, 0)),
    ("eta-full", 1, 0, "j", "planted", "check",
     (32, 9, 10)),
    ("eta-full", 2, 0, "k", "planted", "solve check",
     (31, 0, 0), (0, 9, 10)),
    ("eta-two", 2, 0, "k", "planted", "solve check",
     (7, 0, 0), (0, 2, 1)),
    # a repeated check ranks its bordered grids again, and a twin's
    # repeats its certificates
    ("master", 4, 1, "j", "planted", "check check solve check",
     (31, 17, 18), (0, 17, 0), (0, 0, 0), (0, 17, 0)),
    ("master", 4, 1, "j", "twin", "check check solve check",
     (31, 0, 35), (0, 0, 17), (0, 0, 0), (0, 0, 17)),
    ("eta-full", 4, 1, "j", "planted", "check check solve check",
     (31, 9, 10), (0, 9, 0), (0, 0, 0), (0, 9, 0)),
    ("eta-full", 4, 1, "j", "twin", "check check solve check",
     (31, 0, 19), (0, 0, 9), (0, 0, 0), (0, 0, 9)),
    ("five-term", 4, 1, "j", "planted", "check check solve check",
     (22, 9, 18), (0, 9, 0), (0, 0, 0), (0, 9, 0)),
    ("five-term", 4, 1, "j", "twin", "check check solve check",
     (25, 0, 27), (0, 0, 9), (0, 0, 0), (0, 0, 9)),
    ("two-term", 4, 1, "j", "planted", "check check solve check",
     (6, 4, 2), (0, 4, 0), (0, 0, 0), (0, 4, 0)),
    ("two-term", 4, 1, "j", "twin", "check check solve check",
     (7, 0, 6), (0, 0, 4), (0, 0, 0), (0, 0, 4)),
    ("eta-two", 4, 1, "j", "planted", "check check solve check",
     (7, 2, 1), (0, 2, 0), (0, 0, 0), (0, 2, 0)),
    ("eta-two", 4, 1, "j", "twin", "check check solve check",
     (7, 0, 3), (0, 0, 2), (0, 0, 0), (0, 0, 2)),
    ("pair", 4, 1, "j", "planted", "check check solve check",
     (2, 2, 0), (0, 2, 0), (0, 0, 0), (0, 2, 0)),
    ("pair", 4, 1, "j", "twin", "check check solve check",
     (2, 2, 1), (0, 2, 1), (0, 0, 0), (0, 2, 1)),
]


@pytest.mark.parametrize("row", COUNTS, ids=[
    "-".join(map(str, row[:5])) + "-" + row[5].replace(" ", "-")
    for row in COUNTS])
def test_pinned_counts(row, counter):
    variant, size, seed, eta, kind, calls, *want = row
    insts = {"planted": gen_planted(variant, size, seed, eta)[0],
             "twin": gen_unsolvable(variant, size, seed, eta)}
    evict()
    counter.take()
    got, last = [], None
    for step in calls.split():
        call, _, on = step.partition(":")
        inst = insts.get(on or kind) or scaled_rhs(insts[kind],
                                                   float(on[1:]))
        if call == "check":
            check(inst, TOL)
        elif call == "solve":
            last = solve(inst, TOL)
        elif call == "assemble":
            last.assemble()
        else:
            assert call == "list"
            last.report.rank_conditions
        got.append(counts(counter.take()))
    assert got == want
