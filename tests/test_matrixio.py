"""The matrix file loader and ``gyromean compute`` on arbitrary JSON input.

Invariants: the loader returns a finite square complex matrix or raises
MatrixFormatError, and ``gyromean compute`` exits 0 with a finite result or
exits 2 with a one-line error and no traceback.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from gyromean.cli import main
from gyromean.matrixio import MatrixFormatError, load_matrix, payload_to_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

# derandomized: the suite stays deterministic; a wider random search is one
# setting away (derandomize=False, more examples)
FUZZ = dict(deadline=None, derandomize=True)
NUMBERS = st.one_of(st.integers(-10**20, 10**20), st.floats(width=64))
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def payloads(draw):
    """Objects shaped like a matrix payload, valid or slightly off."""
    dim = draw(st.integers(1, 3) | JSON)
    is_complex = draw(st.booleans() | JSON)
    size = dim if isinstance(dim, int) and not isinstance(dim, bool) and 1 <= dim <= 3 else 2
    cell = st.lists(NUMBERS, min_size=2, max_size=2) if is_complex is True else NUMBERS
    rows = draw(st.lists(st.lists(cell | JSON, min_size=size, max_size=size),
                         min_size=size, max_size=size) | JSON)
    return {"dim": dim, "complex": is_complex, "rows": rows}


@st.composite
def spd_payloads(draw):
    """Real symmetric payloads L L^T + c I, finite but at any scale."""
    dim = draw(st.integers(1, 3))
    entries = st.floats(-1e200, 1e200, allow_nan=False)
    L = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    L = L.reshape(dim, dim)
    c = draw(st.floats(0.0, 1e200))
    with np.errstate(all="ignore"):
        M = L @ L.T + c * np.eye(dim)
    return {"dim": dim, "complex": False, "rows": M.tolist()}


def _load(payload):
    try:
        M = payload_to_matrix(payload)
    except MatrixFormatError:
        return None
    assert M.dtype == complex and M.ndim == 2 and M.shape[0] == M.shape[1] >= 1
    assert np.all(np.isfinite(M))
    return M


@settings(max_examples=300, **FUZZ)
@given(JSON | payloads())
def test_loader_returns_a_finite_matrix_or_raises(payload):
    _load(payload)


@settings(max_examples=100, **FUZZ)
@given(payloads() | spd_payloads())
def test_loader_reads_files_the_same_way(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("m") / "m.json"
    path.write_text(json.dumps(payload))  # NaN and Infinity become literals
    try:
        M = load_matrix(path)
    except MatrixFormatError:
        return
    assert np.array_equal(M, _load(payload))


def test_loader_rejects_booleans_literals_and_loose_types(tmp_path):
    bad = [
        {"dim": 2, "complex": False, "rows": [[True, 0], [0, True]]},
        {"dim": True, "complex": False, "rows": [[1]]},
        {"dim": 1.0, "complex": False, "rows": [[1]]},
        {"dim": "1", "complex": False, "rows": [[1]]},
        {"dim": 1, "complex": 1, "rows": [[1]]},
        {"dim": 1, "complex": True, "rows": [[[1, False]]]},
        {"dim": 1, "complex": False, "rows": [["1"]]},
    ]
    for payload in bad:
        with pytest.raises(MatrixFormatError):
            payload_to_matrix(payload)
    for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "complex": false, "rows": [[%s]]}' % literal)
        with pytest.raises(MatrixFormatError):
            load_matrix(path)
    path.write_bytes(b'{"dim": 1, "complex": false, "rows": [[1]], "\xff": 0}')
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


@settings(max_examples=150, **FUZZ)
@given(st.sampled_from(["geo", "spectral", "thompson", "riemannian", "gyr", "coop"]),
       payloads() | spd_payloads(), spd_payloads())
def test_compute_exits_cleanly_on_any_file(tmp_path_factory, op, a, b):
    folder = tmp_path_factory.mktemp("compute")
    paths = []
    for name, payload in (("a", a), ("b", b)):
        paths.append(str(folder / f"{name}.json"))
        (folder / f"{name}.json").write_text(json.dumps(payload))
    argv = ["compute", "--op", op, "--a", paths[0], "--b", paths[1]]
    if op == "gyr":
        argv += ["--x", paths[1]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")  # a warning would be a second line on stderr
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if op in ("thompson", "riemannian"):
            assert math.isfinite(float(out))
        else:
            assert np.all(np.isfinite(payload_to_matrix(json.loads(out))))
    else:
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
