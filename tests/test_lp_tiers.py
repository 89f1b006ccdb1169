"""One arithmetic tier for the whole tableau, objective row included.

A pivot updates [R | R b] and the objective row below it as one integer
array, so one max|T| per pivot picks int64, the float-estimated quotients
or Python ints for all of it; only an objective row that alone needs
Python ints is updated apart from R.  Each system here drives one side
past int64 (or both, or only the objective row's products), and must
still pivot, answer and count exactly as the dense tableau
(``oracles.DenseSimplex``) does.
"""

import numpy as np
import pytest

from taildep import lp
from taildep.lp import ExactSimplex, _INT64_MAX, _bareiss

from test_lp import _assert_same_run, _exact_bareiss

K = 1 << 40
# phase one leaves R holding K**2, with a small objective row
CHAIN = ([[0, 1, K, -1], [0, 0, -1, 1], [-1, 0, 0, K]], [K, -1, -2])
HUGE_COSTS = [1 << 70, (1 << 70) + 3, -(1 << 70)]
WIDE_BASIC_COSTS = [1 << 70, -1, 1 << 70, 3 << 69]


def _wide(*parts) -> bool:
    return any(abs(v) > _INT64_MAX for part in parts for v in np.ravel(part).tolist())


def _sides(monkeypatch) -> set:
    """Collects, for every ExactSimplex pivot, whether the R side (the rows
    of R and their column entries) and the objective side (the last row and
    its priced entry) hold an entry past int64 when the pivot starts."""
    seen = set()
    pivot = ExactSimplex._pivot

    def spy(self, leave, col, column, *rest):
        T = self._T
        seen.add((_wide(T[:-1], column[:-1]), _wide(T[-1], column[-1:])))
        return pivot(self, leave, col, column, *rest)

    monkeypatch.setattr(ExactSimplex, "_pivot", spy)
    return seen


@pytest.mark.parametrize(
    "rows, rhs, objectives",
    [
        # right-hand-side numerators near 2**62: only z_rhs, their sum, leaves int64
        pytest.param([[1, 0], [0, 1], [1, 1]], [1 << 61, 1 << 61, 1 << 62],
                     [("minimize", [1, 2])], id="rhs-sum-feasible"),
        pytest.param([[1, 0], [0, 1], [1, 1]], [1 << 62, 1 << 62, (1 << 62) + 1],
                     [], id="rhs-sum-infeasible"),
        # costs near 2**70 over a 0/1 system: rc leaves int64, R stays small
        pytest.param([[1, 1, 0], [0, 1, 1]], [1, 1],
                     [("minimize", HUGE_COSTS), ("maximize", HUGE_COSTS)], id="costs-2**70"),
    ],
)
def test_only_the_objective_row_leaves_int64(monkeypatch, rows, rhs, objectives):
    seen = _sides(monkeypatch)
    _assert_same_run(monkeypatch, rows, rhs, objectives)
    assert seen == {(False, False), (False, True)}


def test_only_r_leaves_int64(monkeypatch):
    # zero cost on the basic columns: the reduced-cost row starts at 0
    # while R already holds K**2
    seen = _sides(monkeypatch)
    _assert_same_run(monkeypatch, *CHAIN, [("minimize", [0, -1, 0, 0]), ("maximize", [0, 1, 0, 0])])
    assert (True, False) in seen and (True, True) not in seen


def test_both_leave_int64(monkeypatch):
    seen = _sides(monkeypatch)
    _assert_same_run(
        monkeypatch, *CHAIN, [("minimize", WIDE_BASIC_COSTS), ("maximize", WIDE_BASIC_COSTS)]
    )
    assert (True, True) in seen


def test_the_objective_row_products_decide_the_tier(monkeypatch):
    # every entry fits int64 when a pivot starts, and so do R's products,
    # but the objective row's do not: a bound on R alone would wrap z_rhs
    rows = [[2, 1, 2], [0, 0, 1], [3, 0, 1], [1, 3, 2], [1, 3, 1], [1, 0, 3]]
    rhs = [v << 56 for v in (4, 7, 7, 7, 7, 7)]
    seen = _sides(monkeypatch)
    _assert_same_run(monkeypatch, rows, rhs)
    assert seen == {(False, False)}


def test_a_wide_objective_row_alone_takes_python_ints(monkeypatch):
    # the whole array cannot stay int64, the rows above the last can
    tiers = []
    fast = lp._fast
    monkeypatch.setattr(lp, "_fast", lambda R, *rest: tiers.append(R.dtype) or fast(R, *rest))
    R = [[3, 1, 4], [1, 5, 9], [1 << 70, 2, -(1 << 66)]]
    column = [2, -1, 1 << 65]
    out = _bareiss(np.array(R, dtype=object), np.array(column, dtype=object),
                   np.array(R[0], dtype=object), 2, 1)
    assert out.tolist() == _exact_bareiss(R, column, 0, 2, 1)
    assert tiers == [object, np.int64, object]
