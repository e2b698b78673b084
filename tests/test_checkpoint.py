"""Checkpoint files and the text format: exact float round trips, stable
layout, hashing, and the binary sidecar that spares a second parse."""
import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepsim.checkpoint import (FORMAT_VERSION, csv_file, csv_lines,
                               file_sha256, float_cells, load_checkpoint,
                               load_parsed, save_checkpoint, sidecar_path,
                               write_table)

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


def _csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer, default dialect, writes for the same table."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


# each row holds a cell csv.writer quotes or converts, or none such
WRITER_ROWS = {
    "comma": [["x,y", 1], ["a", ","]],
    "quote": [['q"', "b"], ['"', 2]],
    "cr": [["a\rb", 3]],
    "lf": [["a\nb", 4], ["\r\n", ""]],
    "leading space": [[" a", "  b"], [" ", 5]],
    "non-ascii": [["é", "日本", "–"], ["ñ,ü", "ß"]],
    "lone empty": [[""], ["", ""], [""]],
    "empty row": [[], ["a"], []],
    "None": [[None], [None, None], ["a", None, 1]],
    "bool": [[True, False], [True]],
    "np.int64": [[np.int64(3), np.int64(-7)]],
    "np.float64": [[np.float64(0.1), np.float64(-0.0), np.float64(1e300)]],
    "float repr": [float_cells(AWKWARD), [0.1, 1 / 3, 5e-324, float("nan")]],
    "plain": [["rnn", 0, "x", 3, "0.5", "-1.25e-07"]] * 3,
}


@pytest.mark.parametrize("case", WRITER_ROWS)
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path, case):
    header = ["variant", "episode", "feature"]
    rows = WRITER_ROWS[case]
    path = tmp_path / "t.csv"
    write_table(path, header, iter(rows))
    assert path.read_bytes() == _csv_writer_bytes(header, rows)


def test_write_table_keeps_row_order_across_chunks(tmp_path):
    # plain rows on both sides of rows csv.writer must quote, in runs longer
    # than one buffered chunk
    rows = [[i, f"r{i}"] if i % 700 else [i, "a,b"] for i in range(2000)]
    path = tmp_path / "t.csv"
    write_table(path, ["i", "s"], rows)
    assert path.read_bytes() == _csv_writer_bytes(["i", "s"], rows)


_CELLS = st.one_of(
    st.text(alphabet=st.sampled_from(list('ab ,"\r\né0.-e')), max_size=6),
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.integers(-1000, 1000).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(header=st.lists(_CELLS, max_size=4),
       rows=st.lists(st.lists(_CELLS, max_size=5), max_size=8))
def test_write_table_equals_csv_writer_on_mixed_rows(tmp_path_factory, header,
                                                     rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, rows)
    assert path.read_bytes() == _csv_writer_bytes(header, rows)


# a lead cell: names and prefixes with a comma, a quote, CR, LF, a space or
# nothing, or an episode or step number
_LEAD_CELLS = st.one_of(
    st.text(alphabet=st.sampled_from(list('ab ,"\r\n_é0')), max_size=6),
    st.integers(-10 ** 6, 10 ** 6),
)
# a numeric cell as the writers make it: a float's float_cells text or an
# int's str
_NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: float_cells(v)[0]),
    st.integers(-10 ** 20, 10 ** 20).map(str),
)


@settings(max_examples=300, deadline=None)
@given(header=st.lists(_LEAD_CELLS, max_size=4),
       lead=st.lists(_LEAD_CELLS, max_size=4),
       width=st.integers(1, 4), n_rows=st.integers(0, 6), data=st.data())
def test_csv_lines_write_the_bytes_of_csv_writer(tmp_path_factory, header,
                                                  lead, width, n_rows, data):
    """A line is the lead, checked once, and a join of numeric cells; a
    lead that csv.writer would quote goes through csv.writer in its place,
    so the file is what csv.writer writes for [*lead, *row] row by row."""
    columns = [data.draw(st.lists(_NUMERIC_CELLS, min_size=n_rows,
                                  max_size=n_rows)) for _ in range(width)]
    rows = [[*lead, *cells] for cells in zip(*columns)]
    lines = csv_lines(lead, columns)
    assert len(lines) == n_rows
    path = tmp_path_factory.mktemp("lines") / "t.csv"
    with csv_file(path, header) as write:
        write(lines)
    assert path.read_bytes() == _csv_writer_bytes(header, rows)


def test_csv_file_keeps_line_order_across_writes_and_chunks(tmp_path):
    columns = [list(map(str, range(1000))), float_cells(np.arange(1000) / 7)]
    path = tmp_path / "t.csv"
    with csv_file(path, ["name", "ep", "t", "v"]) as write:
        write(csv_lines(["a,b", 0], columns))
        write(iter(csv_lines(["plain", 1], columns)))
    rows = [[lead, ep, *cells] for lead, ep in (("a,b", 0), ("plain", 1))
            for cells in zip(*columns)]
    assert path.read_bytes() == _csv_writer_bytes(["name", "ep", "t", "v"], rows)


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


def _json_dumps_bytes(model_kind, hyperparams, arrays) -> bytes:
    """The checkpoint document as json.dumps(indent=1, sort_keys=True)
    writes it."""
    tensors = [{"name": name, "shape": list(np.shape(arrays[name])),
                "values": float_cells(arrays[name])} for name in sorted(arrays)]
    doc = {"format_version": FORMAT_VERSION, "model_kind": model_kind,
           "hyperparams": hyperparams, "tensors": tensors}
    return json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")


# each case holds arrays or hyperparameters whose text is easy to get wrong
SAVE_CASES = {
    "0-d": ({}, {"s": np.float64(-0.0), "t": np.array(2.5)}),
    "empty": ({}, {"e": np.zeros(0), "f": np.zeros((0, 3)), "g": np.ones((2, 0))}),
    "awkward floats": ({}, {"w": np.array(AWKWARD).reshape(2, 4),
                            "v": np.array([-0.0, 0.0, -np.inf, np.nan])}),
    "no tensors": ({"k": 1}, {}),
    "nested hyperparams": ({"outer": {"inner": [1, 2.5, None, True], "z": {}},
                            "none": None, "list": [], "a": "x"},
                           {"w": np.ones((1, 1, 2))}),
    "non-ASCII": ({"name": "f\u00e9vrier \u2013 \u00e9tude \u2603", "q": 'say "hi"\\'},
                  {"\u00e9t\u00e9": np.arange(3.0), 'we"ird\\': np.zeros(1)}),
}


@pytest.mark.parametrize("case", SAVE_CASES.values(), ids=SAVE_CASES.keys())
def test_save_writes_the_bytes_of_json_dumps(tmp_path, case):
    hyperparams, arrays = case
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", hyperparams, arrays)
    assert path.read_bytes() == _json_dumps_bytes("demo", hyperparams, arrays)


@settings(deadline=None, max_examples=40)
@given(shapes=st.dictionaries(st.text(max_size=4),
                              st.lists(st.integers(0, 3), max_size=3), max_size=4),
       seed=st.integers(0, 2**16))
def test_save_equals_json_dumps_on_random_tensors(tmp_path_factory, shapes, seed):
    gen = np.random.default_rng(seed)
    arrays = {name: gen.normal(size=shape) * 10.0 ** gen.integers(-300, 300)
              for name, shape in shapes.items()}
    path = tmp_path_factory.mktemp("ckpt") / "m.json"
    save_checkpoint(path, "demo", {"shapes": shapes}, arrays)
    assert path.read_bytes() == _json_dumps_bytes("demo", {"shapes": shapes}, arrays)


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


def test_tuple_of_kinds_accepts_each_and_names_them(tmp_path):
    path = tmp_path / "m.json"
    for kind in ("state_rnn", "state_mdn"):
        save_checkpoint(path, kind, {}, {"w": np.zeros(2)})
        assert load_checkpoint(path, ("state_rnn", "state_mdn"))[0] == kind
    save_checkpoint(path, "termination", {}, {"w": np.zeros(2)})
    for _ in ("parse", "sidecar hit"):
        with pytest.raises(ValueError, match="holds a 'termination' model, "
                                             "expected 'state_rnn' or 'state_mdn'"):
            load_checkpoint(path, ("state_rnn", "state_mdn"))
        load_checkpoint(path)


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


# ---- parse once: the binary sidecar ------------------------------------------

def _models():
    """One checkpoint writer per model the pipeline saves."""
    from sepsim.agent import QNetwork
    from sepsim.dynamics import VARIANTS, StateModel, StateModelConfig
    from sepsim.heads import HEAD_KINDS, BinaryHead
    from sepsim.vae import AeModel, VaeModel

    def state(variant):
        config = StateModelConfig(variant=variant, window=3, rnn_hidden=8,
                                  n_mixtures=3)
        sha = None if variant in ("rnn", "mdn_rnn") else "ab" * 32
        return lambda path: StateModel(config, np.random.default_rng(2)).save(
            path, encoder_sha256=sha)

    models = {f"state_{v}": state(v) for v in VARIANTS}
    for kind in HEAD_KINDS:
        models[kind] = lambda path, kind=kind: BinaryHead(
            kind, state_dim=7, rng=np.random.default_rng(3)).save(path)
    models["vae"] = lambda path: VaeModel(beta=0.3, rng=np.random.default_rng(0)).save(path)
    models["ae"] = lambda path: AeModel(rng=np.random.default_rng(1)).save(path)
    models["qnet"] = lambda path: QNetwork(rng=np.random.default_rng(4)).save(path)
    return models


def _assert_same_load(a, b):
    """Two load_checkpoint results hold the same kind, hyperparams, names,
    shapes and float64 bits."""
    assert a[0] == b[0] and a[1] == b[1]
    assert list(a[2]) == list(b[2])
    for name in a[2]:
        assert a[2][name].dtype == b[2][name].dtype == np.float64
        assert a[2][name].shape == b[2][name].shape
        np.testing.assert_array_equal(a[2][name].view(np.int64),
                                      b[2][name].view(np.int64))


def _refuse_parse(monkeypatch):
    from sepsim import checkpoint

    def refuse(*args, **kwargs):
        raise AssertionError("parsed although the sidecar matches")

    monkeypatch.setattr(checkpoint, "_parse_checkpoint", refuse)


@pytest.mark.parametrize("model", list(_models()))
def test_sidecar_hit_equals_parse(tmp_path, monkeypatch, model):
    path = tmp_path / f"{model}.json"
    _models()[model](path)
    assert not sidecar_path(path).exists()
    parsed = load_checkpoint(path)
    assert sidecar_path(path).is_file()
    assert sidecar_path(path).name == f".{model}.json.sepsim-cache.npz"
    _refuse_parse(monkeypatch)
    _assert_same_load(load_checkpoint(path), parsed)


def _loader(model):
    """The loader the pipeline reads a `_models()` checkpoint with."""
    from sepsim.agent import QNetwork
    from sepsim.dynamics import StateModel
    from sepsim.heads import BinaryHead
    from sepsim.vae import load_encoder

    if model.startswith("state_"):
        return StateModel.load
    if model in ("termination", "outcome"):
        return lambda path: BinaryHead.load(path, model)
    return load_encoder if model in ("vae", "ae") else QNetwork.load


@pytest.mark.parametrize("model", list(_models()))
def test_a_load_draws_no_initial_weights(tmp_path, monkeypatch, model):
    """Each loader, parsing or on a sidecar hit, and QNetwork.clone build
    their parameters without init_weight, and each parameter holds the
    bits of the checkpoint's values (the clone, of its source's)."""
    from sepsim.nn import layers

    path = tmp_path / f"{model}.json"
    _models()[model](path)
    saved = {t["name"]: np.array([float(v) for v in t["values"]]).reshape(t["shape"])
             for t in json.loads(path.read_text(encoding="utf-8"))["tensors"]}

    def refuse(*args, **kwargs):
        raise AssertionError("a load drew initial weights")

    monkeypatch.setattr(layers, "init_weight", refuse)
    loaded = [_loader(model)(path) for _ in ("parse", "sidecar hit")]
    assert sidecar_path(path).is_file()
    if model == "qnet":
        loaded.append(loaded[0].clone())
    for net in loaded:
        arrays = net.state_arrays()
        assert sorted(arrays) == sorted(saved)
        for name, values in saved.items():
            assert arrays[name].shape == values.shape
            assert arrays[name].tobytes() == values.tobytes()
    if model == "qnet":
        # the clone owns its arrays
        loaded[0].net.layers[0].W.data[...] = 0.0
        clone_w = loaded[2].net.layers[0].W.data
        assert clone_w.tobytes() == saved["net.layers.0.W"].tobytes()


def test_sidecar_hit_keeps_awkward_floats(tmp_path, monkeypatch):
    arrays = {"w": np.array(AWKWARD).reshape(2, 4), "s": np.array(2.5),
              "e": np.zeros((0, 3))}
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {"x": [1, 0.1, None, "y"]}, arrays)
    parsed = load_checkpoint(path)
    _refuse_parse(monkeypatch)
    hit = load_checkpoint(path)
    _assert_same_load(hit, parsed)
    assert hit[2]["s"].shape == () and hit[2]["e"].shape == (0, 3)
    assert hit[1] == {"x": [1, 0.1, None, "y"]}


def test_sidecar_hit_holds_the_sidecar_once(tmp_path):
    """A hit holds the input's bytes, for their digest, and the sidecar's
    bytes in one buffer that its arrays are views of: no second copy."""
    import tracemalloc
    from dataclasses import asdict

    from sepsim.data import (N_FEATURES, Cohort, CsvSchema, Outcome,
                             PatientEpisode, export_cohort, load_cohort)

    rng = np.random.default_rng(0)
    cohort = Cohort(tuple(
        PatientEpisode(f"p{i}", rng.normal(size=(50, N_FEATURES)),
                       rng.integers(0, 25, size=50), Outcome(i % 2))
        for i in range(120)), tuple(f"f{i}" for i in range(N_FEATURES)))
    path = tmp_path / "cohort.csv"
    export_cohort(cohort, path)
    load_cohort(path)   # parses, and writes the sidecar
    sidecar = sidecar_path(path).stat().st_size
    assert sidecar >= 2 << 20

    def refuse(data):
        raise AssertionError("parsed although the sidecar matches")

    tracemalloc.start()
    try:
        meta, arrays = load_parsed(path, refuse, ["load_cohort", asdict(CsvSchema())])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arrays[0].shape == (120 * 50, N_FEATURES)
    assert peak < path.stat().st_size + sidecar + (256 << 10)


def test_sidecar_is_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        save_checkpoint(path, "demo", {"k": 1}, {"w": np.arange(6.0).reshape(2, 3)})
        load_checkpoint(path)
    a, b = (sidecar_path(p).read_bytes() for p in paths)
    assert a == b


# every kind of array a loader stores: checkpoint tensors (2-d, 0-d, empty)
# and the cohort's int64 actions, lengths and outcomes
SIDECAR_ARRAYS = {
    "2-d float64": np.array(AWKWARD).reshape(2, 4),
    "0-d float64": np.array(-0.0),
    "empty (0, 3)": np.zeros((0, 3)),
    "1-d int64": np.array([0, -1, 24, 2**62, -2**63], dtype=np.int64),
}


@pytest.mark.parametrize("name", list(SIDECAR_ARRAYS))
def test_sidecar_round_trips_every_array_kind(tmp_path, name):
    """A hit returns each array with the parse's dtype, shape and bits,
    writable as a parse's is."""
    path = tmp_path / "f.txt"
    path.write_text("the bytes the key is taken from", encoding="utf-8")
    arrays = [SIDECAR_ARRAYS[name], np.arange(3.0)]
    meta = {"names": [name, "x"], "n": [1, 0.1, None]}
    parsed = load_parsed(path, lambda data: (meta, arrays), ["test"])

    def refuse(data):
        raise AssertionError("parsed although the sidecar matches")

    hit = load_parsed(path, refuse, ["test"])
    assert parsed[0] == hit[0] == meta
    for got, want in zip(hit[1], arrays, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable


def test_sidecar_is_a_header_line_then_the_array_bytes(tmp_path):
    path = tmp_path / "m.json"
    w = np.random.default_rng(0).normal(size=(3, 4))
    save_checkpoint(path, "demo", {"k": 1}, {"w": w, "s": np.array(2.5)})
    load_checkpoint(path)
    data = sidecar_path(path).read_bytes()
    start = data.index(b"\n") + 1
    assert start % 8 == 0                     # the arrays are 8-byte aligned
    header = json.loads(data[:start])
    assert sorted(header) == ["arrays", "key", "meta"]
    assert header["arrays"] == [["<f8", []], ["<f8", [3, 4]]]
    assert data[start:] == np.array(2.5).astype("<f8").tobytes() + w.astype("<f8").tobytes()


def test_v1_zip_sidecar_is_parsed_around_and_replaced(tmp_path, monkeypatch):
    """An .npz sidecar at the same path, as SIDECAR_VERSION 1 wrote it, is
    parsed around once and overwritten with one that is read back."""
    from sepsim import checkpoint

    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {"k": 1}, {"w": np.arange(6.0).reshape(2, 3)})
    expected = _fresh_parse(path)
    key = json.dumps([1, ["load_checkpoint"], file_sha256(path)])
    meta = json.dumps({"kind": "demo", "hyperparams": {"k": 1}, "names": ["w"]})
    with sidecar_path(path).open("wb") as fh:
        np.savez(fh, key=np.array(key), meta=np.array(meta),
                 a0=np.arange(6.0).reshape(2, 3))
    assert sidecar_path(path).read_bytes()[:2] == b"PK"
    parses = []
    real = checkpoint._parse_checkpoint
    monkeypatch.setattr(checkpoint, "_parse_checkpoint",
                        lambda *args: parses.append(1) or real(*args))
    _assert_same_load(load_checkpoint(path), expected)
    assert parses == [1]
    assert sidecar_path(path).read_bytes()[:1] == b"{"
    _assert_same_load(load_checkpoint(path), expected)
    assert parses == [1]


def _fresh_parse(path):
    """What load_checkpoint returns with no sidecar to read."""
    sidecar_path(path).unlink(missing_ok=True)
    result = load_checkpoint(path)
    sidecar_path(path).unlink()
    return result


def _one_byte_edit(path):
    text = path.read_text(encoding="utf-8")
    at = text.index('"values": [') + len('"values": [')
    at = text.index(".", at) + 1              # first fraction digit
    digit = "1" if text[at] != "1" else "2"
    path.write_text(text[:at] + digit + text[at + 1:], encoding="utf-8")


def _truncate(path):
    sidecar = sidecar_path(path)
    sidecar.write_bytes(sidecar.read_bytes()[:-8])   # one float short


def _garbage(path):
    sidecar_path(path).write_bytes(b"PK\x03\x04 not a zip at all" * 10)


def _wrong_key(path):
    other = path.with_name("other.json")
    save_checkpoint(other, "demo", {}, {"w": np.ones(3)})
    load_checkpoint(other)
    sidecar_path(other).replace(sidecar_path(path))


def _edit_header(path, edit):
    """Rewrite the sidecar's header line through `edit`; the bytes after
    it stay."""
    sidecar = sidecar_path(path)
    data = sidecar.read_bytes()
    start = data.index(b"\n") + 1
    header = json.loads(data[:start])
    edit(header)
    sidecar.write_bytes(json.dumps(header).encode() + b"\n" + data[start:])


def _object_array(path):
    def edit(header):
        header["arrays"][0][0] = "|O"     # numpy's name of the object dtype
    _edit_header(path, edit)


def _other_dtype(path):
    def edit(header):
        header["arrays"][0] = ["<f4", [3, 8]]   # the same 96 bytes
    _edit_header(path, edit)


def _length_mismatch(path):
    sidecar = sidecar_path(path)
    sidecar.write_bytes(sidecar.read_bytes() + bytes(8))   # one float more


def _pickle_file(path):
    import pickle  # the sidecar reader must refuse this

    sidecar_path(path).write_bytes(pickle.dumps({"key": "x"}))


@pytest.mark.parametrize("spoil", [_one_byte_edit, _truncate, _garbage,
                                   _wrong_key, _object_array, _pickle_file,
                                   _other_dtype, _length_mismatch],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_spoilt_sidecar_falls_back_to_parsing(tmp_path, monkeypatch, spoil):
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {"k": 1},
                    {"w": np.random.default_rng(0).normal(size=(3, 4))})
    load_checkpoint(path)
    spoil(path)
    expected = load_checkpoint(path)          # parses, no exception
    _assert_same_load(expected, _fresh_parse(path))
    load_checkpoint(path)                     # writes a good sidecar again
    _refuse_parse(monkeypatch)
    _assert_same_load(load_checkpoint(path), expected)


def test_failed_sidecar_write_still_returns_the_parse(tmp_path, monkeypatch):
    import os

    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {}, {"w": np.arange(4.0)})

    def fail(*args, **kwargs):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(os, "replace", fail)
    result = load_checkpoint(path)
    np.testing.assert_array_equal(result[2]["w"], np.arange(4.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_failed_parse_raises_the_same_error_and_leaves_no_sidecar(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, "demo", {}, {"w": np.zeros(1)})
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported checkpoint format_version 2"):
        load_checkpoint(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        load_checkpoint(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_kind_is_checked_on_a_hit(tmp_path):
    path = tmp_path / "m.json"
    save_checkpoint(path, "vae", {}, {"w": np.zeros(2)})
    load_checkpoint(path)
    assert sidecar_path(path).is_file()
    with pytest.raises(ValueError, match="holds a 'vae' model, expected 'qnet'"):
        load_checkpoint(path, expect_kind="qnet")


_GOOD_DOC = {"format_version": FORMAT_VERSION, "model_kind": "demo", "hyperparams": {},
             "tensors": [{"name": "w", "shape": [1], "values": ["0.0"]}]}


@pytest.mark.parametrize("doc, reason", [
    ([1, 2], "a JSON list, not an object"),
    ({k: v for k, v in _GOOD_DOC.items() if k != "model_kind"}, "no model_kind"),
    ({k: v for k, v in _GOOD_DOC.items() if k != "tensors"}, "no tensors"),
    ({**_GOOD_DOC, "tensors": [{"name": "w", "values": ["0.0"]}]},
     "malformed tensors (KeyError: 'shape')")],
    ids=["list", "no-model_kind", "no-tensors", "tensor-without-shape"])
def test_load_checkpoint_refuses_a_document_that_is_no_checkpoint(tmp_path, doc, reason):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^not a checkpoint: {re.escape(reason)}$"):
        load_checkpoint(path)
