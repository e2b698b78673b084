"""Checkpoint files and the text format: exact float round trips, stable
layout, hashing."""
import json

import numpy as np
import pytest

from sepsim.checkpoint import (FORMAT_VERSION, file_sha256, float_cells,
                               load_checkpoint, save_checkpoint, write_table)

# floats whose text is easy to get wrong; numpy 2 reprs an np.float64 as
# "np.float64(0.1)", which float() cannot read
AWKWARD = [0.1, 1 / 3, -0.0, 5e-324, 1e300, float("nan"), float("inf"),
           float("-inf")]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("form", [float, np.float64], ids=["float", "np.float64"])
@pytest.mark.parametrize("value", AWKWARD, ids=repr)
def test_float_cells_scalar(form, value):
    cells = float_cells(form(value))
    assert cells == [repr(float(value))]
    assert _bits(float(cells[0])) == _bits(value)


def test_float_cells_flattens_in_c_order():
    grid = np.array(AWKWARD).reshape(2, 4)
    for arr in (grid, grid.T, np.asfortranarray(grid)):
        cells = float_cells(arr)
        assert cells == [repr(float(v)) for row in arr for v in row]
        back = np.array([float(c) for c in cells]).reshape(arr.shape)
        np.testing.assert_array_equal(_bits(back), _bits(arr))


def test_write_table_keeps_csv_defaults(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], iter([["x,y", 1], ['q"', ""]]))
    assert path.read_bytes() == b'a,b\r\n"x,y",1\r\n"q""",\r\n'


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = {"w": rng.normal(size=(3, 4)) * 1e-7,
              "b": np.array([1 / 3, np.pi, 1e300])}
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {"hidden": 4}, arrays)
    kind, hyper, back = load_checkpoint(path)
    assert kind == "demo"
    assert hyper == {"hidden": 4}
    for k in arrays:
        np.testing.assert_array_equal(back[k], arrays[k])
        assert back[k].dtype == np.float64


def test_tensors_sorted_by_name(tmp_path, rng):
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {}, {"z": np.zeros(1), "a": np.ones(1),
                                       "m": np.zeros(2)})
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert [t["name"] for t in doc["tensors"]] == ["a", "m", "z"]
    assert doc["format_version"] == FORMAT_VERSION


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, "vae", {}, {"w": np.zeros(2)})
    with pytest.raises(ValueError, match="expected"):
        load_checkpoint(path, expect_kind="qnet")


def test_future_format_rejected(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {}, {"w": np.zeros(1)})
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_save_is_deterministic(tmp_path, rng):
    arrays = {"w": rng.normal(size=(2, 2))}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, "demo", {"k": 1}, arrays)
    save_checkpoint(p2, "demo", {"k": 1}, arrays)
    assert file_sha256(p1) == file_sha256(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_shape_mismatch_detected(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {}, {"w": np.zeros((2, 3))})
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tensors"][0]["shape"] = [3, 3]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)
