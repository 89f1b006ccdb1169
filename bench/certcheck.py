"""Independent re-check of realizability answers, as read back from CLI output.

The checker works on the JSON that ``taildep realize td|sdr`` wrote and on
the instance as the benchmark built it, in plain ``fractions.Fraction``.  It
imports nothing from taildep, so a fault in the solver or in the package's
own ``verify_certificate`` cannot vouch for itself.

TDR rows are the pairs i <= j (the diagonal carries the unit marginals) and
its columns are all nonempty subsets; SDR rows are the pairs i < j and its
columns are all proper cuts.  A witness must solve its rows exactly with
nonnegative weights; a Farkas vector y must pair positively with the
right-hand side and nonpositively with every column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Sequence

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 3


class Rejected(Exception):
    """The answer or its certificate does not hold."""


def _mask(labels: Sequence[int], p: int) -> int:
    mask = 0
    for k in labels:
        if not 1 <= k <= p:
            raise Rejected(f"label {k} out of range for p={p}")
        if mask >> (k - 1) & 1:
            raise Rejected(f"label {k} repeated in {list(labels)}")
        mask |= 1 << (k - 1)
    return mask


def _entries(items: Sequence[Mapping[str, Any]], p: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for item in items:
        mask = _mask(item["set"], p)
        if mask == 0:
            raise Rejected("empty subset in a weight list")
        if mask in out:
            raise Rejected(f"subset {item['set']} listed twice")
        out[mask] = Fraction(item["value"])
    return out


def _rows(payload: Mapping[str, Any], pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The payload's row order, which must list every expected pair once."""
    rows = [(int(i) - 1, int(j) - 1) for i, j in payload["rows"]]
    if sorted(rows) != sorted(pairs):
        raise Rejected("constraint rows are not the expected pairs")
    return rows


def _check_status(
    payload: Mapping[str, Any], problem: str, p: int, exit_code: int, truth: str | None
) -> bool:
    if payload.get("problem") != problem or payload.get("p") != p:
        raise Rejected(f"answer is for {payload.get('problem')} p={payload.get('p')}")
    status = payload.get("status")
    expected_code = {"feasible": EXIT_FEASIBLE, "infeasible": EXIT_INFEASIBLE}.get(status)
    if expected_code is None:
        raise Rejected(f"unknown status {status!r}")
    if exit_code != expected_code:
        raise Rejected(f"exit code {exit_code} disagrees with status {status}")
    if truth is not None and status != truth:
        raise Rejected(f"answered {status}, but the instance is {truth} by construction")
    return status == "feasible"


def _check_farkas(
    payload: Mapping[str, Any],
    rows: list[tuple[int, int]],
    rhs: Mapping[tuple[int, int], Fraction],
    columns: range,
    hits,
) -> None:
    y = [Fraction(v) for v in payload["farkas"]]
    if len(y) != len(rows):
        raise Rejected("Farkas vector length differs from the row count")
    if sum(yi * rhs[r] for yi, r in zip(y, rows)) <= 0:
        raise Rejected("Farkas vector does not pair positively with the right-hand side")
    for mask in columns:
        pairing = sum((yi for yi, r in zip(y, rows) if hits(mask, r)), Fraction(0))
        if pairing > 0:
            raise Rejected(f"Farkas vector pairs positively with column {mask}")


def _covers(mask: int, pair: tuple[int, int]) -> bool:
    return mask >> pair[0] & 1 == 1 and mask >> pair[1] & 1 == 1


def _separates(mask: int, pair: tuple[int, int]) -> bool:
    return (mask >> pair[0] & 1) != (mask >> pair[1] & 1)


def check_tdr(
    payload: Mapping[str, Any],
    lam: Sequence[Sequence[Fraction]],
    exit_code: int,
    truth: str | None = None,
) -> bool:
    """Re-check a TDR answer; returns whether it was feasible, raises Rejected."""
    p = len(lam)
    feasible = _check_status(payload, "tdr", p, exit_code, truth)
    pairs = [(i, j) for i in range(p) for j in range(i, p)]
    rows = _rows(payload, pairs)
    if not feasible:
        rhs = {(i, j): lam[i][j] for i, j in pairs}
        _check_farkas(payload, rows, rhs, range(1, 1 << p), _covers)
        return False
    beta = _entries(payload["witness"]["beta"], p)
    if any(v < 0 for v in beta.values()):
        raise Rejected("witness has a negative weight")
    for i, j in pairs:
        total = sum((v for m, v in beta.items() if _covers(m, (i, j))), Fraction(0))
        if total != lam[i][j]:
            raise Rejected(f"witness pair sum at ({i + 1},{j + 1}) is {total}, not {lam[i][j]}")
    return True


def check_sdr(
    payload: Mapping[str, Any],
    d: Sequence[Sequence[Fraction]],
    exit_code: int,
    truth: str | None = None,
) -> bool:
    """Re-check an SDR answer; returns whether it was feasible, raises Rejected."""
    p = len(d)
    full = (1 << p) - 1
    feasible = _check_status(payload, "sdr", p, exit_code, truth)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    rows = _rows(payload, pairs)
    if not feasible:
        rhs = {(i, j): d[i][j] for i, j in pairs}
        _check_farkas(payload, rows, rhs, range(1, full), _separates)
        return False
    cuts = _entries(payload["cuts"]["cuts"], p)
    if any(v < 0 for v in cuts.values()) or full in cuts:
        raise Rejected("cut weights are negative or include the full set")
    for i, j in pairs:
        total = sum((v for m, v in cuts.items() if _separates(m, (i, j))), Fraction(0))
        if total != d[i][j]:
            raise Rejected(f"cut reconstruction at ({i + 1},{j + 1}) is {total}, not {d[i][j]}")
    beta = _entries(payload["witness"]["beta"], p)
    if any(v < 0 for v in beta.values()):
        raise Rejected("materialized model has a negative weight")
    margins = [sum((v for m, v in beta.items() if m >> i & 1), Fraction(0)) for i in range(p)]
    if any(m != Fraction(payload["scale"]) for m in margins):
        raise Rejected("materialized marginals are not all equal to the scale")
    for i, j in pairs:
        dist = sum((v for m, v in beta.items() if _separates(m, (i, j))), Fraction(0))
        if dist != d[i][j]:
            raise Rejected(f"materialized model gives d({i + 1},{j + 1}) = {dist}, not {d[i][j]}")
    return True
