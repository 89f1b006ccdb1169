"""Exact fraction-free revised simplex for equality-form feasibility and optimization.

Solves  { x >= 0 : A x = b }  over exact rationals.  Phase one minimizes the
total artificial infeasibility; its optimal dual multipliers are exactly a
Farkas certificate when the optimum is positive:

    y with  y' A_j <= 0 for every column j  and  y' b > 0,

checkable by anyone without trusting this solver.  After a feasible phase
one, arbitrary linear objectives can be optimized warm-started from the
current basis, which is what the decomposition-uniqueness decider needs.
Each optimization also leaves its optimal dual multipliers in ``dual``:

    y with  y' A_j <= c_j for every column j  and  y' b = min c'x

(for ``maximize``, y' A_j >= c_j and y' b = max c'x), again a certificate
of optimality that anyone can check.

Integer basis adjugate.  The system is scaled to integers once: A by the
lcm of its denominators, b by the lcm of its own, each factor uniform over
all rows.  (One factor for both would enter D below once per basic column
of A: the TDR matrices are 0/1, but their right-hand sides have
denominators like 256.)  Rows with a negative right-hand side are negated.
The solver keeps D > 0, the absolute value of the determinant of the
current basis B, and the m x m integer matrix R = D * B^-1 (the basis
inverse of the scaled system, up to D), stored row by row next to R b.
The full tableau over D would be N = R [A | I | b] (Edmonds 1967; Bareiss
1968), m x (n + m + 1) with n = 2**p - 1 columns for the deciders; it is
never formed.  A pivot on the entry piv = N[r][col] of the entering column
N[:, col] = R A_col, computed when the column enters, updates

    R'[i] = (R[i] * piv - N[i][col] * R[r]) // D   for i != r,   D' = piv,

and R b by the same formula; every division is exact because all entries
of N are minors of the scaled system.  A negative pivot (only possible
while driving artificials out of the basis) first negates its row, which
keeps D positive.  This is the integer form of the revised simplex (Azulay
& Pique 1998; QSopt_ex of Applegate, Cook, Dash & Espinoza 2007 is an
exact revised simplex over rationals): a pivot costs O(m**2) integer
operations instead of O(m * 2**p).

The objective row is the last row of the same integer array.  The
phase-one row is z = z_art [A | I | b] and the phase-two reduced-cost row
is rc = [c D | 0 | 0] + rc_art [A | I | b] (costs scaled to integers once),
so only their artificial and right-hand-side parts are kept, under R:
T = [R | R b; z_art | z_rhs].  The entering column is one product
T[:, :m] A_col, whose last entry is the priced entry (phase two adds
D c_col); a pivot is one update of T by the formula above; pricing is one
exact product of the stored row, z_art A or [rc_art, D] [A; c], whose
first largest (smallest) entry enters.  A is stored once (``_Matrix``),
as the read-only int64 incidence that ``coeffs._incidence`` builds.
The integer arithmetic runs in int64 when a bound shows it fits (for a
product, max|y| times the largest column sum of |A| below 2**63; one max|T|
per pivot decides for all of T), as in ``coeffs._store``, and in object
arrays of Python ints otherwise, with three exceptions that keep the bulk
of the work in int64 once the multipliers or T outgrow it: a product splits
its vector into base-2**s digits whose products with A are exact in int64;
a pivot update whose products leave int64 while its quotients stay well
inside it is computed from float64 estimates of the quotients, corrected
in int64; and an objective row that alone needs Python ints is updated
apart from R (``_bareiss``).
Ratio and lexicographic tests compare entries of N by cross-multiplication,
so no gcd is ever taken inside the loops; rationals are built only for the
witness, the Farkas vector, the dual multipliers and the optimum value.

Dual read-out.  The artificial part of the reduced-cost row is minus the
current multipliers, rc_art = -c_B' R, and phase two never prices the
artificial columns, so no pivot changes; the lexicographic ratio test
reaches them (the entries of R) only after every structural column, and by
then the basic identity block has already told any two rows apart.

What carries over from the rational tableau.  Scaling b by a factor
scales the right-hand-side column and nothing else.  Scaling A by a factor
divides the rows whose basic variable is structural by it and multiplies
the structural columns by it.  Row scaling cancels in the ratio and
lexicographic tests, and a column scaled uniformly over all rows keeps
their order; the phase-one row is multiplied by the factor on the
structural columns, so Dantzig's entering choice is unchanged, and left
alone on the artificial columns, so the Farkas multipliers read from it
are the same numbers.  Hence every pivot, and every answer, is the one the
rational tableau would give; the witness is the scaled one times the
ratio of the two factors.

Pivoting uses Dantzig's entering rule (the first column of largest
phase-one gain, or of most negative reduced cost) with a lexicographic
ratio test over (rhs, structural columns in order, artificial columns in
order).  The tableau rows (which contain an identity block on the basic
columns) are totally ordered lexicographically after scaling by the pivot
entry, so the leaving choice is always unique, no basis ever repeats, and
the method terminates under any entering rule; this also keeps the heavily
degenerate cut systems from stalling the way Bland's rule does.
All arithmetic is exact; there are no tolerances anywhere in this module.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InternalError, TaildepError, UnboundedObjective
from .rationals import Rat, ZERO, rat, to_common_numerators


@dataclass
class SimplexStats:
    """What one solver did: pivots per phase (phase one includes the
    pivots that drive artificials out), pivots whose leaving row had
    right-hand side 0, the largest bit length of D reached, and wall time
    per phase (phase one is the whole construction; phase two is summed
    over every ``minimize``/``maximize``)."""

    phase_one_pivots: int = 0
    phase_two_pivots: int = 0
    degenerate_pivots: int = 0
    d_bits: int = 0
    phase_one_s: float = 0.0
    phase_two_s: float = 0.0


_INT64_MAX = (1 << 63) - 1
_BLOCK = 128  # columns of R A built at a time by the lexicographic test


def _exact(value):
    # ints pass through: they carry numerator/denominator already
    return value if type(value) is int else rat(value)


class _Matrix:
    """An integer matrix M, read by column and multiplied exactly: Y M.

    M is held as int64 with ``bound``, its largest column sum of absolute
    values, when that sum is sure to fit; a product Y M is then int64
    whenever max|Y| * bound < 2**63.  Otherwise M (``bound`` None) is held
    as Python ints, and so are its products.
    """

    def __init__(self, ints: np.ndarray) -> None:
        bound = None
        if ints.dtype != object:
            top = max(int(ints.max()), -int(ints.min())) if ints.size else 0
            if top * len(ints) <= _INT64_MAX:  # no column sum can leave int64
                bound = int(np.abs(ints).sum(axis=0).max()) if ints.size else 0
            else:
                ints = ints.astype(object)
        ints.flags.writeable = False
        self.ints = ints
        self.bound = bound

    def stacked(self, row: list[int]) -> "_Matrix":
        """[M; row], int64 when both parts are."""
        return _Matrix(np.vstack([self.ints, _narrow(np.array([row], dtype=object))]))

    def product(self, Y: np.ndarray, cols: slice = slice(None),
                top: int | None = None) -> np.ndarray:
        """Exact Y M[:, cols] for an integer Y (int64 or Python ints); a
        bound ``top`` >= max|Y| that already shows int64 fits spares max|Y|.

        With an int64 M and max|Y| * bound past int64, Y is split into
        base-2**s digits, each carrying its entry's sign, with
        2**s * bound < 2**63: every digit's product with M is exact in
        int64, and only their sum is built in Python ints.
        """
        M = self.ints[:, cols]
        if self.bound is None:
            return Y.astype(object) @ M
        if top is None or top * self.bound > _INT64_MAX:
            top = int(np.abs(Y).max(initial=0))
        if top * self.bound <= _INT64_MAX:
            return Y.astype(np.int64, copy=False) @ M
        s = (_INT64_MAX // self.bound).bit_length() - 1
        Y = Y.astype(object)
        magnitude, mask = np.abs(Y), (1 << s) - 1
        out = 0
        for shift in reversed(range(0, top.bit_length(), s)):
            digit = (magnitude >> shift) & mask
            digit = np.where(Y < 0, -digit, digit).astype(np.int64)
            out = (out << s) + (digit @ M).astype(object)
        return out

    def extreme(self, y, largest: bool, top: int | None = None) -> tuple[int, int]:
        """(j, v): the first column j where v = (y M)_j is largest (or
        smallest); y is a 1 x k integer array."""
        values = self.product(y, top=top)[0]
        j = int(values.argmax() if largest else values.argmin())
        return j, int(values[j])


def _bareiss(R: np.ndarray, column: np.ndarray, prow: np.ndarray, piv: int, D: int,
             top_r: int | None = None) -> np.ndarray:
    """(R * piv - column (x) prow) // D, where every division is exact: in
    int64 (``_fast``) for all of R, else for all rows but an objective row
    past int64, which alone takes Python ints; else all in Python ints."""
    out = _fast(R, column, prow, piv, D, top_r)
    if out is None and len(R) > 1:
        head = _fast(_narrow(R[:-1]), _narrow(column[:-1]), _narrow(prow), piv, D)
        if head is not None:
            return np.vstack([head, _bareiss(R[-1:], column[-1:], prow, piv, D)])
    if out is None:
        R, column, prow = R.astype(object), column.astype(object), prow.astype(object)
        out = (R * piv - np.multiply.outer(column, prow)) // D
    return out


def _fast(R: np.ndarray, column: np.ndarray, prow: np.ndarray, piv: int, D: int,
          top_r: int | None = None) -> np.ndarray | None:
    """(R * piv - column (x) prow) // D in int64, or None if that may not be
    exact.  With top = max|R| * max|column| (``top_r`` is max|R| if the
    caller has it), which bounds |a * piv| and |f * c|: directly if 2 * top
    and D fit in int64.  Otherwise, if the quotients are below 2**61, from
    their float64 estimates q, each within 2**-49 * top / D + 1/2 of the
    quotient (nine roundings of relative size 2**-53 at most), corrected by
    the remainder R * piv - column (x) prow - q * D: int64 arithmetic gets
    it modulo 2**64, and it is exactly (quotient - q) * D, below 2**62."""
    if R.dtype == object or column.dtype == object:
        return None
    top = (int(np.abs(R).max()) if top_r is None else top_r) * int(np.abs(column).max())
    if 2 * top <= _INT64_MAX and D <= _INT64_MAX:
        return (R * piv - np.multiply.outer(column, prow)) // D
    if top // D < 1 << 60 and (top >> 47) + 2 * D < 1 << 62:
        floats = R.astype(np.float64) * float(piv)
        floats -= np.multiply.outer(column.astype(np.float64), prow.astype(np.float64))
        estimate = np.rint(floats / float(D)).astype(np.int64)
        remainder = R * piv - np.multiply.outer(column, prow) - estimate * D
        if (remainder % D).any():
            raise InternalError("inexact Bareiss quotient")
        return estimate + remainder // D
    return None


def _narrow(arr: np.ndarray) -> np.ndarray:
    """An object array of ints as int64 when every |entry| <= 2**63 - 1."""
    if arr.dtype == object:
        try:
            narrow = arr.astype(np.int64)
        except OverflowError:
            return arr
        if not (narrow == -_INT64_MAX - 1).any():
            return narrow
    return arr


def _scan(cands: list[int], column: list[int], block: np.ndarray) -> list[int]:
    """Break the tie among ``cands`` over the columns of an exact integer
    block whose rows belong to ``cands``, column by column: keep the
    candidates minimizing block[i][j] / column[i].  A column where every
    remaining candidate's entry is 0 keeps the tie."""
    rows = dict(zip(cands, block.tolist()))
    for j in range(block.shape[1]):
        if len(cands) == 1:
            break
        entries = [rows[i][j] for i in cands]
        if any(entries):
            cands = _smallest(cands, column, entries)
    return cands


def _smallest(cands: list[int], column: list[int], entries: list[int]) -> list[int]:
    """The candidates i (in order) minimizing entries / column[i], column[i] > 0.

    ``entries`` holds each candidate's entry, in the order of ``cands``;
    quotients are compared by cross-multiplication.
    """
    best = cands[0]
    bn, bd = entries[0], column[best]
    keep = [best]
    for i, e in zip(cands[1:], entries[1:]):
        lhs, rhs = e * bd, bn * column[i]
        if lhs < rhs:
            bn, bd = e, column[i]
            keep = [i]
        elif lhs == rhs:
            keep.append(i)
    return keep


class ExactSimplex:
    """Equality-form revised simplex over exact rationals, on integers inside.

    ``rows`` is A: a read-only int64 array is stored as it is, a writable
    one is copied, and any other rectangular array or nested sequence (of
    ints, Fractions, rational strings) is scaled to integers.  Ragged rows
    or a wrong ``rhs`` length raise ``ValueError``.

    Construction runs phase one immediately, from the all-artificial basis.
    When feasible, the artificial variables are driven out of the basis
    (redundant rows dropped) and ``minimize`` / ``maximize`` re-optimize
    from the current basis, leaving the optimal multipliers of the original
    rows in ``dual``.  ``stats`` counts the work done.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence) -> None:
        start = time.perf_counter()
        A = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
        if A.ndim != 2:
            if A.size:
                raise ValueError("ragged constraint matrix")
            A = A.reshape(0, 0)
        m, self.n = A.shape
        if len(rhs) != m:
            raise ValueError("rhs length does not match row count")
        if A.dtype == np.int64:  # the deciders' 0/1 systems
            self._scale_a = 1
            if A.flags.writeable:
                A = A.copy()  # kept read-only; the caller's array stays writable
        else:
            nums, self._scale_a = to_common_numerators([_exact(v) for v in A.ravel().tolist()])
            A = _narrow(np.array(nums, dtype=object).reshape(A.shape))
        b_nums, self._scale_b = to_common_numerators([_exact(v) for v in rhs])
        # Original row order is preserved for certificate reporting; rows
        # with negative rhs are sign-flipped internally.
        self._signs = signs = [-1 if b < 0 else 1 for b in b_nums]
        A = _Matrix(A)
        if -1 in signs:
            A = _Matrix(A.ints * np.array(signs, dtype=A.ints.dtype)[:, None])
        self._A = A
        # [R | R b] of the all-artificial basis, [I | b], over the phase-one
        # row z / D = y' [A | I | b], y the costs of the basis: every artificial
        # costs 1, so z starts as the column sums; z_rhs / D is infeasibility
        T = np.zeros((m + 1, m + 1), dtype=object)
        T[range(m), range(m)] = 1
        T[:m, m] = [abs(b) for b in b_nums]
        T[m] = T[:m].sum(axis=0)
        self._hold(T)
        self._D = 1
        self._basis = [self.n + i for i in range(m)]
        self.farkas: list | None = None
        self.dual: list | None = None
        self.stats = SimplexStats()
        self.feasible = self._phase_one(m)
        if self.feasible:
            self._eliminate_artificials()
        self.stats.phase_one_s = time.perf_counter() - start

    # -- shared pivot machinery --------------------------------------------

    def _hold(self, T: np.ndarray) -> None:
        """Keep T, int64 if it fits, and max|T| (None for Python ints)."""
        self._T = T = _narrow(T)
        self._top = None if T.dtype == object else int(np.abs(T).max())

    def _column(self, col: int) -> np.ndarray:
        """T[:, :m] A_col: the entering column N[:, col] over the objective
        row's entry (without phase two's D c_col); int64 if max|T| * bound fits."""
        T, a, bound = self._T[:, :-1], self._A.ints[:, col], self._A.bound
        if self._top is not None and bound is not None and self._top * bound <= _INT64_MAX:
            return T @ a
        hits = np.flatnonzero(a)
        return _narrow(T[:, hits].astype(object) @ a[hits].astype(object))

    def _pivot(self, leave: int, col: int, column: np.ndarray) -> None:
        """Integer-preserving pivot on column[leave] = N[leave][col], one update
        of all of T: ``column`` ends with the objective row's priced entry.
        T is replaced, never written in place, so copies share it."""
        prow = self._T[leave]
        if prow[-1] == 0:
            self.stats.degenerate_pivots += 1
        piv = int(column[leave])
        if piv < 0:
            prow, piv = -prow, -piv
        T = _bareiss(self._T, column, prow, piv, self._D, self._top)
        T[leave] = prow
        self._hold(T)
        self._D = piv
        self.stats.d_bits = max(self.stats.d_bits, piv.bit_length())
        self._basis[leave] = col

    def _ratio_test(self, column: list[int]) -> int:
        """Lexicographic leaving row, or -1 if the column is unbounded.

        Among the rows minimizing rhs / pivot, pick the one whose whole
        scaled tableau row (structural columns, then artificial ones) is
        lexicographically smallest.  Distinct rows can never tie across
        every column (the basic columns embed an identity), so the choice
        is unique and the pivot sequence cannot cycle.  The structural part
        of a row is R[i] A, built only for the rows still tied, a block of
        columns at a time (``_scan``).
        """
        T, m = self._T, self._T.shape[1] - 1
        cands = [i for i, a in enumerate(column) if a > 0]
        if not cands:
            return -1
        if len(cands) > 1:
            cands = _smallest(cands, column, T[cands, m].tolist())
        for start in range(0, self.n, _BLOCK):
            if len(cands) == 1:
                break
            block = self._A.product(T[cands, :m], slice(start, start + _BLOCK), self._top)
            cands = _scan(cands, column, block)
        if len(cands) > 1:
            cands = _scan(cands, column, T[cands, :m])
        return cands[0]

    def _enter(self, col: int, f: int) -> bool:
        """Pivot ``col``, priced ``f``, into the basis; False if no row limits it."""
        column = self._column(col)
        if column[-1] != f:  # phase two: f adds D c_col
            column = _narrow(np.concatenate([column[:-1], np.array([f], dtype=object)]))
        leave = self._ratio_test(column[:-1].tolist())
        if leave >= 0:
            self._pivot(leave, col, column)
        return leave >= 0

    # -- phase one -----------------------------------------------------------

    def _phase_one(self, m: int) -> bool:
        while self.n:
            col, best = self._A.extreme(self._T[-1:, :m], largest=True, top=self._top)
            if best <= 0:
                break  # optimal
            if not self._enter(col, best):
                # Cannot happen: the phase-one objective is bounded below by 0.
                raise TaildepError("phase-one ratio test failed")
            self.stats.phase_one_pivots += 1
        z = self._T[-1].tolist()
        if z[-1] <= 0:
            return True
        # Infeasible: the multipliers are the artificial part.
        self.farkas = [Rat(s * z[i], self._D) for i, s in enumerate(self._signs)]
        return False

    def _eliminate_artificials(self) -> None:
        """Drive artificial variables out of the basis; drop redundant rows.

        All artificials sit at level 0 here, so any pivot on a nonzero
        structural entry of their row is feasibility-preserving.  A row with
        no structural entry left is a redundant original constraint.  The
        rows keep their artificial part R for the dual read-out.
        """
        n = self.n
        m = len(self._basis)
        keep = []
        for i in range(m):
            if self._basis[i] >= n:
                entries = np.flatnonzero(self._A.product(self._T[i : i + 1, :m])[0])
                if not entries.size:
                    continue  # redundant row
                col = int(entries[0])
                self._pivot(i, col, self._column(col))
                self.stats.phase_one_pivots += 1
            keep.append(i)
        self._hold(self._T[keep + [m]])
        self._basis = [self._basis[i] for i in keep]

    def copy(self) -> "ExactSimplex":
        """An independent solver at the same basis; optimizing one leaves the
        other where it was.  Pivots replace T (shared, as is A), never write it."""
        twin = object.__new__(ExactSimplex)
        twin.__dict__.update(self.__dict__)
        twin._basis = list(self._basis)
        twin.stats = dataclasses.replace(self.stats)
        return twin

    # -- extraction ------------------------------------------------------------

    def witness(self) -> list:
        if not self.feasible:
            raise TaildepError("no witness: system is infeasible")
        x = [ZERO] * self.n
        D = self._D
        for v, j in zip(self._T[:-1, -1].tolist(), self._basis):
            x[j] = Rat(v * self._scale_a, D * self._scale_b)
        return x

    # -- phase two ---------------------------------------------------------------

    def minimize(self, costs: Sequence) -> tuple[Rat, list]:
        """Minimize c' x over the feasible region, warm-started; exact optimum.

        The last row of T becomes -c_B' [R | R b], the kept part of the row
        rc / (scale * D) = c - c_B' B^-1 [A | I | b] (zero cost on the
        artificials and on b: the reduced costs, minus the multipliers, then
        minus the objective value); [rc_art, D] [A; c] is priced."""
        if not self.feasible:
            raise TaildepError("cannot optimize an infeasible system")
        if len(costs) != self.n:
            raise ValueError(f"expected {self.n} costs, got {len(costs)}")
        start = time.perf_counter()
        m = len(self._signs)
        c, scale = to_common_numerators([_exact(v) for v in costs])
        R = self._T[:-1]
        c_basic = np.array([-c[j] for j in self._basis], dtype=object)
        self._hold(np.vstack([R, (c_basic @ R)[None]]))
        priced = self._A.stacked(c)
        try:
            while self.n:
                y = np.concatenate([self._T[-1:, :m], np.array([[self._D]], dtype=object)], axis=1)
                col, best = priced.extreme(y, largest=False)
                if best >= 0:
                    break
                if not self._enter(col, best):
                    raise UnboundedObjective("objective unbounded over the feasible cone")
                self.stats.phase_two_pivots += 1
        finally:
            self.stats.phase_two_s += time.perf_counter() - start
        D = self._D
        rc = self._T[-1].tolist()
        # Undo the row signs and the two scalings: y_i of the original rows.
        self.dual = [Rat(-s * rc[i] * self._scale_a, scale * D) for i, s in enumerate(self._signs)]
        value = Rat(-rc[-1] * self._scale_a, scale * D * self._scale_b)
        return value, self.witness()

    def maximize(self, costs: Sequence) -> tuple[Rat, list]:
        value, x = self.minimize([-rat(v) for v in costs])
        self.dual = [-v for v in self.dual]
        return -value, x
