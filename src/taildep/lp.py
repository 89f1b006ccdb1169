"""Exact fraction-free simplex for equality-form feasibility and optimization.

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

Integer tableau.  The system is scaled to integers once: A by the lcm of
its denominators, b by the lcm of its own, each factor uniform over all
rows.  (One factor for both would enter D below once per basic column of
A: the TDR matrices are 0/1, but their right-hand sides have denominators
like 256.)  The solver then holds an integer tableau N over one common
denominator D > 0: the rational tableau of the scaled system is N / D,
and D is the absolute value of the determinant of the current basis
(Edmonds 1967; Bareiss 1968).  A pivot on N[r][col] = piv is

    N'[i] = (N[i] * piv - N[i][col] * N[r]) // D   for i != r,   D' = piv,

where every division is exact because all entries of N are minors of the
scaled system.  A negative pivot (only possible while driving artificials
out of the basis) first negates its row, which keeps D positive.  The
phase-one row and the phase-two reduced-cost row (with costs scaled to
integers once) are updated by the same formula.  Ratio and lexicographic
tests compare N[i][j] / N[i][col] by cross-multiplication, so no gcd is
ever taken inside the loops; rationals are built only for the witness, the
Farkas vector, the dual multipliers and the optimum value.

Dual read-out.  The tableau keeps its artificial columns after phase one:
they hold B^-1 (the basis inverse of the row-scaled system, up to D), and
since the reduced-cost row is carried across them with zero cost, its
entries there are minus the current multipliers, -c_B' B^-1.  Phase two
never prices them, so no pivot changes; the lexicographic ratio test
reaches them only after every structural column, and by then the basic
identity block has already told any two rows apart.

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

Pivoting uses Dantzig's entering rule with a lexicographic ratio test.
The tableau rows (which contain an identity block on the basic columns)
are totally ordered lexicographically after scaling by the pivot entry,
so the leaving choice is always unique, no basis ever repeats, and the
method terminates under any entering rule; this also keeps the heavily
degenerate cut systems from stalling the way Bland's rule does.  All
arithmetic is exact; there are no tolerances anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import TaildepError, UnboundedObjective
from .rationals import Rat, ZERO, rat, to_common_numerators


@dataclass
class FeasibilityResult:
    feasible: bool
    x: list | None  # length-n witness when feasible
    farkas: list | None  # length-m certificate when infeasible


def _exact(value):
    # ints pass through: they carry numerator/denominator already
    return value if type(value) is int else rat(value)


class ExactSimplex:
    """Equality-form tableau simplex over exact rationals, on integers inside.

    Construction runs phase one immediately.  When feasible, the artificial
    variables are driven out of the basis (redundant rows dropped) and
    ``minimize`` / ``maximize`` re-optimize from the current basis, leaving
    the optimal multipliers of the original rows in ``dual``.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence) -> None:
        self.n = n = len(rows[0]) if rows else 0
        m = len(rows)
        if len(rhs) != m:
            raise ValueError("rhs length does not match row count")
        flat = []
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged constraint matrix")
            flat.extend(_exact(v) for v in row)
        nums, self._scale_a = to_common_numerators(flat)
        b_nums, self._scale_b = to_common_numerators([_exact(v) for v in rhs])
        # Original row order is preserved for certificate reporting; rows
        # with negative rhs are sign-flipped internally.
        signs = []
        N: list[list[int]] = []
        for i in range(m):
            row = nums[i * n : (i + 1) * n]
            b = b_nums[i]
            if b < 0:
                row = [-v for v in row]
                b = -b
                signs.append(-1)
            else:
                signs.append(1)
            art = [0] * m
            art[i] = 1
            N.append(row + art + [b])
        self._signs = signs
        self._N = N
        self._D = 1
        self._basis = [n + i for i in range(m)]
        self.farkas: list | None = None
        self.dual: list | None = None
        self.feasible = self._phase_one(m)
        if self.feasible:
            self._eliminate_artificials()

    # -- shared pivot machinery --------------------------------------------

    def _pivot(self, leave: int, col: int, obj: list | None = None) -> list | None:
        """Integer-preserving pivot; returns ``obj`` updated the same way."""
        N = self._N
        D = self._D
        prow = N[leave]
        piv = prow[col]
        if piv < 0:
            prow = N[leave] = [-v for v in prow]
            piv = -piv

        def update(row: list) -> list:
            f = row[col]
            if f:
                return [(a * piv - f * c) // D for a, c in zip(row, prow)]
            if piv == D:
                return row
            return [a * piv // D if a else 0 for a in row]

        for i in range(len(N)):
            if i != leave:
                N[i] = update(N[i])
        self._D = piv
        self._basis[leave] = col
        return None if obj is None else update(obj)

    def _ratio_test(self, col: int) -> int:
        """Lexicographic leaving row, or -1 if the column is unbounded.

        Among the rows minimizing rhs / pivot, pick the one whose whole
        scaled row is lexicographically smallest.  Distinct rows can never
        tie across every column (the basic columns embed an identity), so
        the choice is unique and the pivot sequence cannot cycle.  D is
        common to every row, so quotients of N entries are compared by
        cross-multiplication.
        """
        N = self._N
        candidates = [i for i in range(len(N)) if N[i][col] > 0]
        if not candidates:
            return -1
        for j in [-1, *range(len(N[0]) - 1)]:
            if len(candidates) == 1:
                break
            best = candidates[0]
            bn, bd = N[best][j], N[best][col]
            keep = [best]
            for i in candidates[1:]:
                row = N[i]
                lhs, rhs = row[j] * bd, bn * row[col]
                if lhs < rhs:
                    bn, bd = row[j], row[col]
                    keep = [i]
                elif lhs == rhs:
                    keep.append(i)
            candidates = keep
        return candidates[0]

    # -- phase one -----------------------------------------------------------

    def _phase_one(self, m: int) -> bool:
        N = self._N
        n = self.n
        # z[j] / D = y' A_j of the scaled system for the running multipliers
        # y = costs of the artificial basis; starts as the column sums since
        # every artificial has cost 1.  z[-1] / D is the residual
        # infeasibility.
        z = [sum(column) for column in zip(*N)] if N else [0] * (n + 1)
        while True:
            best = max(z[:n], default=0)
            if best <= 0:
                break  # optimal
            col = z.index(best)
            leave = self._ratio_test(col)
            if leave < 0:
                # Cannot happen: the phase-one objective is bounded below by 0.
                raise TaildepError("phase-one ratio test failed")
            z = self._pivot(leave, col, z)
        if z[-1] > 0:
            # Infeasible: multipliers live in the artificial columns.
            D = self._D
            self.farkas = [Rat(s * z[n + i], D) for i, s in enumerate(self._signs)]
            return False
        return True

    def _eliminate_artificials(self) -> None:
        """Drive artificial variables out of the basis; drop redundant rows.

        All artificials sit at level 0 here, so any pivot on a nonzero
        structural entry of their row is feasibility-preserving.  A row with
        no structural entry left is a redundant original constraint.  The
        artificial columns stay in the tableau for the dual read-out.
        """
        N = self._N
        n = self.n
        keep = []
        for i in range(len(N)):
            if self._basis[i] >= n:
                col = next((j for j in range(n) if N[i][j] != 0), None)
                if col is None:
                    continue  # redundant row
                self._pivot(i, col)
            keep.append(i)
        self._N = [N[i] for i in keep]
        self._basis = [self._basis[i] for i in keep]

    def copy(self) -> "ExactSimplex":
        """An independent solver at the same basis; optimizing one leaves the
        other where it was.  Pivots replace rows rather than mutate them, so
        the rows are shared."""
        twin = object.__new__(ExactSimplex)
        twin.__dict__.update(self.__dict__)
        twin._N = list(self._N)
        twin._basis = list(self._basis)
        return twin

    # -- extraction ------------------------------------------------------------

    def witness(self) -> list:
        if not self.feasible:
            raise TaildepError("no witness: system is infeasible")
        x = [ZERO] * self.n
        D = self._D
        for i, j in enumerate(self._basis):
            x[j] = Rat(self._N[i][-1] * self._scale_a, D * self._scale_b)
        return x

    # -- phase two ---------------------------------------------------------------

    def minimize(self, costs: Sequence) -> tuple[Rat, list]:
        """Minimize c' x over the feasible region, warm-started; exact optimum."""
        if not self.feasible:
            raise TaildepError("cannot optimize an infeasible system")
        if len(costs) != self.n:
            raise ValueError(f"expected {self.n} costs, got {len(costs)}")
        n = self.n
        signs = self._signs
        c, scale = to_common_numerators([_exact(v) for v in costs])
        N = self._N
        # rc / (scale * D) = c - c_B' B^-1 [A | I | b] of the scaled system,
        # with zero cost on the artificials and on b: the reduced costs,
        # minus the multipliers, then minus the objective value in the
        # scaled variables.
        D = self._D
        rc = [cj * D for cj in c] + [0] * (len(signs) + 1)
        for i, j in enumerate(self._basis):
            f = c[j]
            if f:
                rc = [r - f * v for r, v in zip(rc, N[i])]
        while True:
            best = min(rc[:n], default=0)
            if best >= 0:
                break
            col = rc.index(best)
            leave = self._ratio_test(col)
            if leave < 0:
                raise UnboundedObjective("objective unbounded over the feasible cone")
            rc = self._pivot(leave, col, rc)
        D = self._D
        # Undo the row signs and the two scalings: y_i of the original rows.
        self.dual = [
            Rat(-s * rc[n + i] * self._scale_a, scale * D) for i, s in enumerate(signs)
        ]
        value = Rat(-rc[-1] * self._scale_a, scale * D * self._scale_b)
        return value, self.witness()

    def maximize(self, costs: Sequence) -> tuple[Rat, list]:
        value, x = self.minimize([-rat(v) for v in costs])
        self.dual = [-v for v in self.dual]
        return -value, x


def solve_feasibility(rows: Sequence[Sequence], rhs: Sequence) -> FeasibilityResult:
    """One-shot feasibility of {x >= 0 : A x = b} with witness or certificate."""
    if not rows:
        return FeasibilityResult(True, [], None)
    lp = ExactSimplex(rows, rhs)
    if lp.feasible:
        return FeasibilityResult(True, lp.witness(), None)
    return FeasibilityResult(False, None, lp.farkas)
