"""File formats for every exact artifact, plus the binary sample stream.

Exact rationals serialize as "num/den" strings, never JSON numbers, so a
write-read round trip is the identity.  Subsets serialize as sorted
1-based index arrays, never bitmasks.  A matrix file is JSON or CSV with
rational or decimal entries (decimals are parsed exactly in base 10);
``_load_rows`` is its one reader and ``save_matrix`` its one writer.
Simulation reports are the one place floats appear.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .coeffs import Kind, SubsetFn, TdMatrix, check_dimension
from .errors import MalformedInput
from .rationals import Rat, rat, rat_str
from .spectral import CutDecomposition, SemiMetric
from .subsets import labels_of, mask_of
from .tm import TmModel

SAMPLES_MAGIC = b"TDSIM1"
_SAMPLES_HEADER = struct.Struct("<6sHQ")  # magic, p, n  (16 bytes)

# Loaders check the shape of every JSON container they read, so a file of the
# wrong shape raises MalformedInput, not a TypeError from deep inside.
_SHAPES = {"object": Mapping, "array": (list, tuple), "integer": int}


def _shaped(value: Any, shape: str, what: str) -> Any:
    """Return ``value`` if it is a JSON ``shape``; raise MalformedInput if not."""
    if isinstance(value, bool) or not isinstance(value, _SHAPES[shape]):
        raise MalformedInput(f"{what} must be a JSON {shape}, got {value!r:.40}")
    return value


def _get(data: Any, key: str, shape: str, default: Any = None) -> Any:
    """``data[key]`` (``default`` if absent), checked to be a JSON ``shape``."""
    return _shaped(_shaped(data, "object", "input").get(key, default), shape, f'"{key}"')


def _mask(labels: Any, p: int, what: str) -> int:
    """Mask of a nonempty label list, each label checked against p before any shift."""
    labels = _shaped(labels, "array", what)
    ks = [_shaped(k, "integer", "subset label") for k in labels]
    if not ks or any(k > p for k in ks):  # mask 0 is no subset either
        raise MalformedInput(f"{what} {labels} out of range for p={p}")
    return mask_of(*ks)


# ---------------------------------------------------------------------------
# Entry lists: [{"set": [1-based indices], "value": "num/den"}, ...]
# ---------------------------------------------------------------------------


def _entries_to_json(entries: Sequence[tuple[int, Rat]]) -> list[dict]:
    return [
        {"set": list(labels_of(mask)), "value": rat_str(v)}
        for mask, v in entries
        if v != 0
    ]


def _entries_from_json(items: Sequence[Mapping[str, Any]], p: int) -> dict[int, Rat]:
    check_dimension(p)  # a huge "p" is refused before anything is sized by it
    out: dict[int, Rat] = {}
    for item in items:
        mask = _mask(_get(item, "set", "array"), p, "subset")
        if mask in out:  # [1, 2] and [2, 1] are one subset
            raise MalformedInput(f"subset {list(labels_of(mask))} is listed twice")
        out[mask] = rat(str(item["value"]))
    return out


def subsetfn_to_json(fn: SubsetFn) -> dict:
    return {
        "p": fn.p,
        "kind": fn.kind.value,
        "entries": _entries_to_json(fn.support()),
    }


def subsetfn_from_json(data: Mapping[str, Any]) -> SubsetFn:
    p = _get(data, "p", "integer")
    kind = Kind(data["kind"])
    entries = _entries_from_json(_get(data, "entries", "array", []), p)
    return SubsetFn.from_entries(p, entries, kind)


def tm_model_to_json(model: TmModel) -> dict:
    return {"p": model.p, "beta": _entries_to_json(model.support())}


def _model_entries(data: Any) -> tuple[int, dict[int, Rat]]:
    """A model payload's p and sparse atom weights, before any 2**p array."""
    data = _shaped(data, "object", "model")
    if "beta" not in data and isinstance(data.get("model"), Mapping):
        data = data["model"]  # accept wrapped payloads (e.g. linemetric output)
    p = _get(data, "p", "integer")
    return p, _entries_from_json(_get(data, "beta", "array", []), p)


def tm_model_from_json(data: Mapping[str, Any]) -> TmModel:
    return TmModel.from_entries(*_model_entries(data))


def cuts_to_json(cuts: CutDecomposition) -> dict:
    return {
        "p": cuts.p,
        "cuts": _entries_to_json(list(cuts.cuts)),
        "slack_full": rat_str(cuts.slack_full),
    }


# ---------------------------------------------------------------------------
# Matrices: JSON ({"p": ..., "lam"/"d": [[...]]}) or CSV (one row per line).
# ---------------------------------------------------------------------------


def matrix_rows_to_csv(rows: Sequence[Sequence[Rat]]) -> str:
    return "\n".join(",".join(rat_str(v) for v in row) for row in rows) + "\n"


def matrix_rows_from_csv(text: str) -> list[list[Rat]]:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([rat(cell) for cell in line.split(",")])
    if not rows:
        raise MalformedInput("empty matrix file")
    return rows


def _load_rows(path: str | Path, key: str) -> list[list[Rat]]:
    """A matrix file's rows: CSV, or JSON under ``key`` with "p" (if given) its row count."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        return matrix_rows_from_csv(path.read_text())
    data = json.loads(path.read_text())
    raw = _get(data, key, "array")
    if _get(data, "p", "integer", len(raw)) != len(raw):
        raise MalformedInput(f'"p" is {data["p"]} but the matrix has {len(raw)} rows')
    return [[rat(str(v)) for v in _shaped(row, "array", "matrix row")] for row in raw]


def load_td_matrix(path: str | Path) -> TdMatrix:
    return TdMatrix.from_rows(_load_rows(path, "lam"))


def load_semimetric(path: str | Path) -> SemiMetric:
    return SemiMetric.from_rows(_load_rows(path, "d"))


def save_matrix(path: str | Path, rows: Sequence[Sequence[Rat]], json_key: str) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = {"p": len(rows), json_key: [[rat_str(v) for v in r] for r in rows]}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        path.write_text(matrix_rows_to_csv(rows))


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Binary sample stream: 16-byte header (magic, p, n), then row-major
# little-endian float64.
# ---------------------------------------------------------------------------


def write_samples_binary(path: str | Path, samples: np.ndarray) -> None:
    n, p = samples.shape
    with open(path, "wb") as fh:
        fh.write(_SAMPLES_HEADER.pack(SAMPLES_MAGIC, p, n))
        # tofile writes the array's own buffer; tobytes() would copy it first
        np.ascontiguousarray(samples, dtype="<f8").tofile(fh)


def read_samples_binary(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_SAMPLES_HEADER.size)
        if len(header) < _SAMPLES_HEADER.size:
            raise MalformedInput(
                f"sample stream header truncated: {len(header)} of "
                f"{_SAMPLES_HEADER.size} bytes"
            )
        magic, p, n = _SAMPLES_HEADER.unpack(header)
        if magic != SAMPLES_MAGIC:
            raise MalformedInput(f"bad magic {magic!r} in sample stream")
        payload = fh.read()
    if len(payload) != 8 * n * p:  # also a payload that ends inside a float
        raise MalformedInput(
            f"sample stream truncated: expected {n * p} values "
            f"({8 * n * p} bytes), got {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(n, p)


# ---------------------------------------------------------------------------
# Targets file for the simulation CLI: {"lambda": [[...], ...], "theta": [...]}.
# ---------------------------------------------------------------------------


def targets_from_json(data: Mapping[str, Any], p: int) -> tuple[list[int], list[int]]:
    def parse(items: Sequence[Sequence[int]]) -> list[int]:
        return [_mask(labels, p, "target set") for labels in items]

    lam, theta = (_get(data, key, "array", []) for key in ("lambda", "theta"))
    return parse(lam), parse(theta)
