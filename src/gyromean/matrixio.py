"""JSON matrix file format.

Schema: ``{"dim": n, "complex": true, "rows": [[[re, im], ...], ...]}``,
row-major.  Real matrices may set ``"complex": false`` and store plain
numbers instead of [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import reprlib

import numpy as np


class MatrixFormatError(ValueError):
    """Malformed matrix file."""


def matrix_to_payload(M) -> dict:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise MatrixFormatError(f"expected a square matrix, got shape {A.shape}")
    if np.all(A.imag == 0.0):
        rows = [[float(x.real) for x in row] for row in A]
        return {"dim": A.shape[0], "complex": False, "rows": rows}
    rows = [[[float(x.real), float(x.imag)] for x in row] for row in A]
    return {"dim": A.shape[0], "complex": True, "rows": rows}


def _number(cell, where: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
        raise MatrixFormatError(f"{where} must be a number, got {reprlib.repr(cell)}")
    try:
        value = float(cell)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise MatrixFormatError(f"{where} must be finite, got {reprlib.repr(cell)}")
    return value


def payload_to_matrix(payload) -> np.ndarray:
    """The matrix a payload describes; MatrixFormatError for anything else.

    ``dim`` must be a positive integer, ``complex`` a boolean and ``rows`` a
    list of ``dim`` lists of ``dim`` finite numbers (``[re, im]`` pairs when
    ``complex``).  Booleans, strings and the non-standard ``NaN`` and
    ``Infinity`` literals are not numbers here.
    """
    if not isinstance(payload, dict) or not {"dim", "complex", "rows"} <= payload.keys():
        raise MatrixFormatError("malformed matrix payload: expected an object "
                                "with keys dim, complex and rows")
    dim, is_complex, rows = payload["dim"], payload["complex"], payload["rows"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixFormatError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(is_complex, bool):
        raise MatrixFormatError(f"complex must be true or false, got {is_complex!r}")
    if (not isinstance(rows, list) or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)):
        raise MatrixFormatError(f"rows do not form a {dim}x{dim} matrix")
    M = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            where = f"entry ({i},{j})"
            if is_complex:
                if not isinstance(cell, list) or len(cell) != 2:
                    raise MatrixFormatError(f"{where} must be an [re, im] pair")
                M[i, j] = complex(_number(cell[0], where), _number(cell[1], where))
            else:
                M[i, j] = _number(cell, where)
    return M


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_payload(M), fh, indent=2)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # includes bad JSON and bad UTF-8
            raise MatrixFormatError(f"{path}: not valid JSON ({exc})") from exc
    return payload_to_matrix(payload)
