"""The exact simplex engine: feasibility, certificates, warm-started optima."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from taildep.errors import UnboundedObjective
from taildep.instances import (
    k23_metric,
    pair_matrix_from_beta,
    random_cut_metric,
    random_graph_metric,
    random_unit_margin_beta,
    violate_triangle,
)
from taildep.lp import ExactSimplex, _Matrix, _bareiss, _narrow
from taildep.rationals import ZERO, rat
from taildep.realize import cut_system, tdr_system

from oracles import DenseSimplex


def farkas_is_valid(rows, rhs, y):
    n = len(rows[0]) if len(rows) else 0
    for j in range(n):
        if sum((y[i] * rows[i][j] for i in range(len(rows))), ZERO) > 0:
            return False
    return sum((yi * bi for yi, bi in zip(y, rhs)), ZERO) > 0


def witness_is_valid(rows, rhs, x):
    if any(v < 0 for v in x):
        return False
    for row, b in zip(rows, rhs):
        if sum((a * v for a, v in zip(row, x) if v), ZERO) != rat(b):
            return False
    return True


def test_simple_feasible():
    lp = ExactSimplex([[1, 1], [1, 0]], [3, 1])
    assert lp.feasible
    assert lp.witness() == [1, 2]


def test_simple_infeasible_with_certificate():
    rows = [[1, 1], [1, 1]]
    rhs = [1, 2]
    lp = ExactSimplex(rows, rhs)
    assert not lp.feasible
    assert farkas_is_valid(rows, [rat(v) for v in rhs], lp.farkas)


def test_negative_rhs_handled_by_sign_flip():
    rows = [[-1, 0], [0, 1]]
    rhs = [-2, 1]
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible
    assert witness_is_valid([[rat(v) for v in r] for r in rows], rhs, lp.witness())


def test_redundant_rows_are_dropped():
    rows = [[1, 1], [2, 2], [1, 0]]
    rhs = [2, 4, 1]
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible
    assert witness_is_valid([[rat(v) for v in r] for r in rows], rhs, lp.witness())


def test_zero_system():
    lp = ExactSimplex([[0, 0]], [0])
    assert lp.feasible and lp.witness() == [0, 0]
    lp2 = ExactSimplex([[0, 0]], [1])
    assert not lp2.feasible


def test_empty_system():
    lp = ExactSimplex([], [])
    assert lp.feasible and lp.witness() == []


def test_randomized_feasible_and_infeasible(rng):
    for trial in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 10)
        rows = [[rat(rng.randint(0, 4)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            # plant a solution
            x0 = [rat(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum((a * v for a, v in zip(row, x0)), ZERO) for row in rows]
            lp = ExactSimplex(rows, rhs)
            assert lp.feasible
            assert witness_is_valid(rows, rhs, lp.witness())
        else:
            rhs = [rat(rng.randint(-6, 6)) for _ in range(m)]
            lp = ExactSimplex(rows, rhs)
            if lp.feasible:
                assert witness_is_valid(rows, rhs, lp.witness())
            else:
                assert farkas_is_valid(rows, rhs, lp.farkas)


def test_optimize_bounded_polytope():
    # x1 + x2 + s = 4, x1 <= 3 (slack t): maximize x1 + 2 x2
    rows = [[1, 1, 1, 0], [1, 0, 0, 1]]
    rhs = [4, 3]
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible
    value, x = lp.maximize([1, 2, 0, 0])
    assert value == 8 and x[1] == 4
    value, x = lp.minimize([1, 2, 0, 0])
    assert value == 0
    # warm-started re-optimization under a different objective
    value, x = lp.maximize([5, 1, 0, 0])
    assert value == 5 * 3 + 1 * 1


def test_unbounded_objective_detected():
    lp = ExactSimplex([[1, -1]], [1])
    assert lp.feasible
    with pytest.raises(UnboundedObjective):
        lp.maximize([1, 1])


def test_degenerate_cycling_guard():
    # Klee-Minty-flavored degenerate system; must terminate exactly.
    rng = random.Random(5)
    for _ in range(20):
        n = 6
        rows = []
        rhs = []
        for i in range(4):
            rows.append([rat(rng.randint(0, 2)) for _ in range(n)])
            rhs.append(ZERO)  # fully degenerate right-hand side
        lp = ExactSimplex(rows, rhs)
        assert lp.feasible  # x = 0 always works
        assert all(v == 0 or v >= 0 for v in lp.witness())


# ---------------------------------------------------------------------------
# Answers pinned from the rational-tableau solver this one replaced: the
# integer tableau makes the same pivots, so it must return the same numbers.
# ---------------------------------------------------------------------------


def _twin_tdr_system():
    rng = random.Random(0)
    L = pair_matrix_from_beta(random_unit_margin_beta(6, rng))
    return tdr_system(violate_triangle(L, rng))


@pytest.mark.parametrize(
    "system, farkas",
    [
        (lambda: cut_system(k23_metric()), "1 -1 -1 -1 -1 -1 -1 1 1 1"),
        # heavily degenerate: a different lexicographic tie-break changes it
        (
            lambda: cut_system(random_graph_metric(7, random.Random(8))),
            "-2 1 1 2 1 -3 -1 -1 -2 -1 3 0 1 0 -1 1 1 -2 1 -3 -2",
        ),
        (_twin_tdr_system, "0 0 0 -1 1 -1 0 0 0 0 0 0 0 0 0 0 1 -1 -1 1 0"),
    ],
    ids=["k23-sdr", "graph-metric-sdr", "triangle-twin-tdr"],
)
def test_farkas_vector_pinned(system, farkas):
    _, rows, rhs = system()
    lp = ExactSimplex(rows, rhs)
    assert not lp.feasible
    assert lp.farkas == [rat(v) for v in farkas.split()]
    assert farkas_is_valid(rows, rhs, lp.farkas)


def test_tdr_unit_margin_witness_pinned():
    L = pair_matrix_from_beta(random_unit_margin_beta(6, random.Random(6)))
    cols, rows, rhs = tdr_system(L)
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible
    expected = {
        1: "63/256", 2: "23/256", 3: "39/256", 4: "13/128", 5: "21/128",
        6: "43/256", 8: "67/256", 9: "17/128", 10: "49/256", 12: "39/256",
        16: "31/256", 17: "33/256", 18: "13/64", 20: "25/128", 24: "17/128",
        32: "1/16", 33: "45/256", 34: "25/128", 36: "7/32", 40: "33/256",
        48: "7/32",
    }
    x = lp.witness()
    assert {c: v for c, v in zip(cols, x) if v} == {c: rat(v) for c, v in expected.items()}
    assert witness_is_valid(rows, rhs, x)


def _array_cases():
    L = pair_matrix_from_beta(random_unit_margin_beta(5, random.Random(5)))
    yield pytest.param(lambda: tdr_system(L), True, id="tdr-feasible")
    yield pytest.param(_twin_tdr_system, False, id="tdr-infeasible")
    yield pytest.param(lambda: cut_system(random_cut_metric(6, random.Random(6))), True, id="sdr-feasible")
    yield pytest.param(lambda: cut_system(k23_metric()), False, id="sdr-infeasible")


@pytest.mark.parametrize("system, feasible", list(_array_cases()))
def test_array_and_list_inputs_make_the_same_run(system, feasible):
    # the builders' read-only array is kept as it is; its list copy, read
    # the general way, must give the same answers and pivot counts
    _, A, rhs = system()
    runs = []
    for rows in (A, A.tolist()):
        lp = ExactSimplex(rows, rhs)
        run = [lp.feasible, lp.farkas]
        if lp.feasible:
            run += [lp.witness(), lp.maximize([1] * lp.n), lp.dual]
        run += [getattr(lp.stats, name) for name in _COUNTERS]
        runs.append(run)
    assert runs[0][0] is feasible
    assert runs[0] == runs[1]
    assert ExactSimplex(A, rhs)._A.ints is A
    writable = A.copy()
    lp = ExactSimplex(writable, rhs)
    assert lp._A.ints is not writable and writable.flags.writeable


@pytest.mark.parametrize(
    "rows, rhs, message",
    [
        ([[1, 2], [3]], [1, 1], "ragged"),
        ([[rat(1, 2), 1], [1]], [1, 1], "ragged"),
        ([[1, 2], 3], [1, 1], "ragged"),
        ([[1, 2], [3, 4]], [1], "rhs length"),
        (np.ones((2, 3), dtype=np.int64), [1, 1, 1], "rhs length"),
        ([], [1], "rhs length"),
    ],
)
def test_malformed_systems_raise_value_error(rows, rhs, message):
    with pytest.raises(ValueError, match=message):
        ExactSimplex(rows, rhs)


# ---------------------------------------------------------------------------
# Brute force over basic solutions, sharing no code with the simplex.
# ---------------------------------------------------------------------------


def _unique_solution(rows, rhs, cols):
    """The unique x_S with A_S x_S = b, or None (inconsistent or not unique)."""
    aug = [[row[j] for j in cols] + [b] for row, b in zip(rows, rhs)]
    k = len(cols)
    pivots = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            return None  # dependent columns: not a basic solution
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(r)
        r += 1
    if any(row[-1] != 0 for row in aug[r:]):
        return None
    return [aug[i][-1] for i in pivots]


def _basic_feasible_solutions(rows, rhs, n):
    out = []
    for cols_mask in range(1 << n):
        cols = [j for j in range(n) if cols_mask >> j & 1]
        xs = _unique_solution(rows, rhs, cols)
        if xs is None or any(v < 0 for v in xs):
            continue
        x = [ZERO] * n
        for j, v in zip(cols, xs):
            x[j] = v
        out.append(x)
    return out


def _brute_minimum(rows, rhs, costs):
    """(feasible, bounded, optimum) of min c'x over {x >= 0 : A x = b}."""
    n = len(costs)
    points = _basic_feasible_solutions(rows, rhs, n)
    if not points:
        return False, None, None
    # extreme rays of the recession cone {d >= 0 : A d = 0}, normalized
    rays = _basic_feasible_solutions(
        [list(row) for row in rows] + [[rat(1)] * n], [ZERO] * len(rows) + [rat(1)], n
    )
    if any(sum((c * d for c, d in zip(costs, ray)), ZERO) < 0 for ray in rays):
        return True, False, None
    return True, True, min(sum((c * v for c, v in zip(costs, x)), ZERO) for x in points)


_small_rats = st.builds(
    lambda num, den: rat(num, den),
    st.integers(-3, 3),
    st.sampled_from([1, 1, 2, 3, 4, 6]),
)


@st.composite
def _small_systems(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(_small_rats, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(_small_rats, min_size=m, max_size=m))
    if draw(st.booleans()):
        # redundant row: a rational combination of two existing rows
        a, b = draw(_small_rats), draw(_small_rats)
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows.append([a * u + b * v for u, v in zip(rows[i], rows[k])])
        rhs.append(a * rhs[i] + b * rhs[k])
    costs = draw(st.lists(_small_rats, min_size=n, max_size=n))
    return rows, rhs, costs


@given(_small_systems())
def test_small_systems_match_brute_force(system):
    rows, rhs, costs = system
    feasible, bounded, optimum = _brute_minimum(rows, rhs, costs)
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible == feasible
    if not feasible:
        assert farkas_is_valid(rows, rhs, lp.farkas)
        return
    assert witness_is_valid(rows, rhs, lp.witness())
    if not bounded:
        with pytest.raises(UnboundedObjective):
            lp.minimize(costs)
        return
    value, x = lp.minimize(costs)
    assert value == optimum
    assert witness_is_valid(rows, rhs, x)
    assert sum((c * v for c, v in zip(costs, x)), ZERO) == value


def _dual_load(rows, y, j):
    return sum((yi * row[j] for yi, row in zip(y, rows)), ZERO)


@given(_small_systems())
def test_dual_certifies_every_optimum(system):
    rows, rhs, costs = system
    lp = ExactSimplex(rows, rhs)
    if not lp.feasible:
        return
    for sense in (1, -1):
        try:
            value, _ = lp.minimize(costs) if sense == 1 else lp.maximize(costs)
        except UnboundedObjective:
            continue
        y = lp.dual
        assert len(y) == len(rows)
        # min: y'A_j <= c_j; max: y'A_j >= c_j; both: y'b = optimum
        for j, c in enumerate(costs):
            assert sense * (c - _dual_load(rows, y, j)) >= 0
        assert sum((yi * bi for yi, bi in zip(y, rhs)), ZERO) == value


def test_copy_optimizes_independently():
    _, rows, rhs = cut_system(random_graph_metric(5, random.Random(3)))
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible
    costs = [rat((7 * j) % 5 - 2) for j in range(lp.n)]
    twin = lp.copy()
    twin.maximize([1] * lp.n)
    assert lp.witness() == ExactSimplex(rows, rhs).witness()
    assert lp.minimize(costs) == ExactSimplex(rows, rhs).minimize(costs)
    assert twin.minimize(costs)[0] == lp.minimize(costs)[0]


def test_artificial_elimination_pivots_on_a_negative_entry(monkeypatch):
    # Phase one ends with an artificial basic at level 0 whose row has a
    # negative structural entry first; the tableau denominator must stay
    # positive through that pivot, or later witnesses come out negative.
    rows = [[-2, -2, 1, 0], [0, 0, 0, -2], [-2, -1, 0, 1]]
    rhs = [-1, 0, -2]
    entries = []
    pivot = ExactSimplex._pivot

    def spy(self, leave, col, column, *rest):
        entries.append(column[leave])
        return pivot(self, leave, col, column, *rest)

    monkeypatch.setattr(ExactSimplex, "_pivot", spy)
    lp = ExactSimplex(rows, rhs)
    assert lp.feasible and any(v < 0 for v in entries)
    assert lp.witness() == [1, 0, 1, 0]
    costs = [1, 2, 3, 4]
    assert lp.minimize(costs) == (4, [1, 0, 1, 0])
    assert lp.maximize(costs) == (13, [0, 2, 3, 0])
    assert _brute_minimum(rows, rhs, costs)[2] == 4
    assert _brute_minimum(rows, rhs, [-c for c in costs])[2] == -13


# ---------------------------------------------------------------------------
# Pivot equivalence with the dense Bareiss tableau this solver replaced
# (``oracles.DenseSimplex``): the same (leaving row, entering column)
# sequence, the same answers and the same counters.
# ---------------------------------------------------------------------------

_COUNTERS = ("phase_one_pivots", "phase_two_pivots", "degenerate_pivots", "d_bits")


def _pivot_log(monkeypatch, cls) -> list:
    log = []
    pivot = cls._pivot

    def spy(self, leave, col, *rest):
        log.append((leave, col))
        return pivot(self, leave, col, *rest)

    monkeypatch.setattr(cls, "_pivot", spy)
    return log


def _assert_same_run(monkeypatch, rows, rhs, objectives=()):
    """Run both solvers on the system and every (sense, costs) objective in
    turn, warm-started; require equal pivots, answers and counters."""
    log_new = _pivot_log(monkeypatch, ExactSimplex)
    log_old = _pivot_log(monkeypatch, DenseSimplex)
    new, old = ExactSimplex(rows, rhs), DenseSimplex(rows, rhs)
    assert log_new == log_old
    assert new.feasible == old.feasible
    assert new.farkas == old.farkas
    if new.feasible:
        assert new.witness() == old.witness()
    for sense, costs in objectives if new.feasible else ():
        answers = []
        for lp in (new, old):
            try:
                answers.append((getattr(lp, sense)(costs), lp.dual))
            except UnboundedObjective:
                answers.append("unbounded")
        assert answers[0] == answers[1]
        assert log_new == log_old
    for name in _COUNTERS:
        assert getattr(new.stats, name) == getattr(old.stats, name), name
    return new


def _tdr_cases():
    for p in (4, 5, 6, 7):
        for seed in (1, 2):
            rng = random.Random(100 * p + seed)
            L = pair_matrix_from_beta(random_unit_margin_beta(p, rng))
            yield pytest.param(L, id=f"tdr-p{p}-s{seed}")
            yield pytest.param(violate_triangle(L, rng), id=f"twin-p{p}-s{seed}")


@pytest.mark.parametrize("L", list(_tdr_cases()))
def test_tdr_pivots_match_dense_tableau(monkeypatch, L):
    _, rows, rhs = tdr_system(L)
    n = len(rows[0])
    objectives = [("minimize", [(7 * j) % 5 - 2 for j in range(n)]), ("maximize", [1] * n)]
    _assert_same_run(monkeypatch, rows, rhs, objectives)


def _sdr_cases():
    for p in (4, 5, 6, 7):
        yield pytest.param(random_cut_metric(p, random.Random(p)), id=f"cut-p{p}")
        yield pytest.param(random_graph_metric(p, random.Random(p)), id=f"graph-p{p}")
    yield pytest.param(k23_metric(), id="k23")


@pytest.mark.parametrize("d", list(_sdr_cases()))
def test_sdr_pivots_match_dense_tableau(monkeypatch, d):
    _, rows, rhs = cut_system(d)
    n = len(rows[0])
    new = _assert_same_run(monkeypatch, rows, rhs)
    if new.feasible:
        # the uniqueness decider's objective, then single-cut ranges
        outside = [0 if v else 1 for v in new.witness()]
        unit = [1] + [0] * (n - 1)
        _assert_same_run(
            monkeypatch, rows, rhs,
            [("maximize", outside), ("minimize", unit), ("maximize", unit)],
        )


@given(_small_systems())
def test_small_system_pivots_match_dense_tableau(system):
    rows, rhs, costs = system
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_run(
            monkeypatch, rows, rhs,
            [("minimize", costs), ("maximize", costs), ("minimize", costs)],
        )


@pytest.mark.parametrize("bits", [4, 12, 16, 20, 24, 28, 40])
def test_wide_entries_match_dense_tableau(monkeypatch, bits):
    # wider entries push the multipliers, then R, past int64; 40-bit
    # entries store A as Python ints
    rng = random.Random(bits)
    for _ in range(12):
        m, n = rng.randint(2, 5), rng.randint(3, 8)
        rows = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(0, 3) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x0)) + rng.choice([0, 0, 1]) for row in rows]
        costs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
        _assert_same_run(monkeypatch, rows, rhs, [("minimize", costs), ("maximize", costs)])


@pytest.mark.parametrize(
    "rows, rhs, costs",
    [
        ([[0, 0], [0, 0]], [0, 1 << 80], [1, 2]),  # zero matrix, huge right-hand side
        ([[1, 1], [1, -1]], [1 << 80, 1 << 79], [1, 2]),  # R b leaves int64 at once
        ([[1, 0], [0, 1], [1, 1]], [1 << 62, 1 << 62, (1 << 62) + 1], [1, 2]),  # their sum leaves it
        ([[1, 2], [1, 1]], [-(1 << 63), 1], [1, 2]),  # |-2**63| leaves int64
        ([[1 << 40, 1], [3, 1 << 62]], [1 << 41, 1 << 62], [1, 2]),  # A stored as Python ints
        ([[(1 << 31) - 1, 1], [1, -((1 << 31) - 1)]], [1 << 31, 7], [1, 2]),  # R at the int64 edge
        # small R, D = 2**40 and an entering column of +-2**70 in phase two
        ([[1 << 20, 0, 1 << 50], [0, 1 << 20, -(1 << 50)]], [1, 1], [0, 0, -1]),
    ],
)
def test_extreme_magnitudes_match_dense_tableau(monkeypatch, rows, rhs, costs):
    _assert_same_run(monkeypatch, rows, rhs, [("minimize", costs), ("maximize", costs)])


def _matrix(rows):
    """rows as a ``_Matrix``, int64 where every entry fits."""
    return _Matrix(_narrow(np.array(rows, dtype=object)))


def _row(y):
    """a list of ints as the 1 x k array ``_Matrix.extreme`` takes."""
    return np.array([y], dtype=object)


def test_matrix_products_are_exact_past_int64():
    rng = random.Random(7)
    rows = [[rng.randint(-(1 << 20), 1 << 20) for _ in range(9)] for _ in range(6)]
    M = _matrix(rows)
    assert M.ints.dtype == np.int64
    assert M.bound == max(sum(abs(row[j]) for row in rows) for j in range(9))
    for bits in (10, 30, 40, 62, 64, 200):
        Y = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(6)] for _ in range(3)]
        exact = [[sum(y[k] * rows[k][j] for k in range(6)) for j in range(9)] for y in Y]
        for narrow in (True, False):
            Yarr = np.array(Y, dtype=object)
            if narrow and bits < 63:
                Yarr = Yarr.astype(np.int64)
            assert M.product(Yarr).tolist() == exact
            assert M.product(Yarr, slice(2, 5)).tolist() == [e[2:5] for e in exact]
        for y, values in zip(Y, exact):
            for largest, pick in ((True, max), (False, min)):
                best = pick(values)
                assert M.extreme(_row(y), largest) == (values.index(best), best)
    # values one apart, past int64
    unit = _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for y in ([(1 << 70) + 1, 1 << 70, 1 << 70], [-(1 << 70), 3 - (1 << 70), 2 - (1 << 70)]):
        assert unit.extreme(_row(y), largest=True) == (y.index(max(y)), max(y))
        assert unit.extreme(_row(y), largest=False) == (y.index(min(y)), min(y))
    wide = _matrix([[1 << 40, 1], [3, -(1 << 70)]])
    assert wide.ints.dtype == object and wide.bound is None
    assert wide.product(np.array([[2, -1]])).tolist() == [[(1 << 41) - 3, 2 + (1 << 70)]]
    assert wide.extreme(_row([2, -1]), largest=False) == (0, (1 << 41) - 3)
    # entries in int64 whose column sums might not be
    edge = _matrix([[1 << 62, 1], [1 << 62, 1]])
    assert edge.bound is None
    assert edge.product(np.array([[1, 1]])).tolist() == [[1 << 63, 2]]
    stacked = M.stacked([1 << 70] * 9)
    assert stacked.bound is None and stacked.ints.shape == (7, 9)


def _exact_bareiss(R, column, r, piv, D):
    prow = R[r]
    return [[(a * piv - f * c) // D for a, c in zip(row, prow)] for row, f in zip(R, column)]


def test_bareiss_updates_are_exact_in_every_tier():
    rng = random.Random(11)
    for trial in range(40):
        # R = D U is int64 and divisible by D; the products reach 2**100
        # while the quotients stay near 2**52: the float64 estimates
        D = (1 << 50) + rng.randrange(1 << 20)
        U = [[rng.randint(-(1 << 11), 1 << 11) for _ in range(4)] for _ in range(4)]
        R = [[D * u for u in row] for row in U]
        column = [rng.randint(-(1 << 40), 1 << 40) for _ in range(4)]
        piv = column[0]
        out = _bareiss(np.array(R), np.array(column), np.array(R[0]), piv, D)
        assert out.dtype == np.int64
        assert out.tolist() == _exact_bareiss(R, column, 0, piv, D)
    # max|R| * max|column| just past 2**62: a * piv - f * c leaves int64
    big = (1 << 31) + 1
    R = [[big, 1], [-big, 1]]
    out = _bareiss(np.array(R), np.array([big, big]), np.array(R[0]), big, 1)
    assert out.tolist() == _exact_bareiss(R, [big, big], 0, big, 1)


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=1, max_size=4),
    st.data(),
)
def test_extreme_finds_the_first_extreme_entry(rows, data):
    # few distinct values, in int64 and past it: ties
    M = _matrix(rows)
    y = data.draw(st.lists(
        st.sampled_from([0, 1, -1, 1 << 60, -(1 << 60), (1 << 60) + 1, 1 << 120, -(1 << 121)]),
        min_size=len(rows), max_size=len(rows),
    ))
    values = [sum(a * row[j] for a, row in zip(y, rows)) for j in range(5)]
    for largest, pick in ((True, max), (False, min)):
        best = pick(values)
        assert M.extreme(_row(y), largest) == (values.index(best), best)


def test_stats_count_the_work():
    L = pair_matrix_from_beta(random_unit_margin_beta(6, random.Random(6)))
    _, rows, rhs = tdr_system(L)
    lp = ExactSimplex(rows, rhs)
    stats = lp.stats
    assert stats.phase_one_pivots > 0 and stats.phase_two_pivots == 0
    assert 0 < stats.degenerate_pivots <= stats.phase_one_pivots
    assert stats.d_bits >= lp._D.bit_length() and stats.phase_one_s > 0
    twin = lp.copy()
    twin.maximize([1] * lp.n)
    assert twin.stats.phase_two_pivots > 0 and twin.stats.phase_two_s > 0
    assert lp.stats.phase_two_pivots == 0 and lp.stats.phase_two_s == 0
