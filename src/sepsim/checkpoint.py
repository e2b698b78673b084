"""sepsim's on-disk formats.

`float_cells` is the only place a float becomes text: the repr of a Python
float, which reads back as the same IEEE double, so every checkpoint,
`stats.json` and CSV reloads exactly and save -> load -> save is
bit-identical. A caller that writes the same floats to two files formats
them once and hands both writers the cells. `csv_file` is the only CSV
writer, and every line it writes is the text `csv.writer` would write:
`write_table` makes each row's line, joining the row itself when no cell
of it needs quoting, and `csv_lines` builds many lines that share their
lead cells from that lead, checked once, and cells already made, one join
per line.
Every trained model serializes to the same JSON document:

    {format_version, model_kind, hyperparams, tensors: [{name, shape, values}]}

Text is slow to parse, so `load_parsed` parses each file once: it keeps a
binary sidecar `.<name>.sepsim-cache.npz` next to the file, keyed by the
sha256 of the file's bytes, `SIDECAR_VERSION` and the loader's settings.
`load_checkpoint` and `data.load_cohort` read through it. A sidecar is one
JSON header line (the key, the parse's JSON part, and each array's dtype
and shape), then the arrays' little-endian bytes; it is read with one
`readinto` into one buffer, and each array is a view of it (`np.frombuffer`).
The `.npz` suffix is historical: SIDECAR_VERSION 1 wrote a zip of .npy
members there, and a file of that format, like any sidecar that is not a
whole one of this layout (another key, a header or length mismatch, a
dtype other than float64 or int64), is parsed around and replaced. One that
cannot be written is skipped, so sidecars are always safe to delete.
Nothing in a sidecar is unpickled.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
# bump when a loader changes what it keeps in its sidecar
SIDECAR_VERSION = 2


def float_cells(values) -> list[str]:
    """Text of each value, flattened in C order, as float64 reprs."""
    return list(map(repr, np.asarray(values, dtype=np.float64).ravel().tolist()))


# cell types whose csv.writer text is str(cell); csv writes None as ""
_PLAIN_CELLS = frozenset((str, int, float, bool))
_CHUNK_LINES = 256


def _csv_line(row) -> str:
    """csv.writer's text of one row, default dialect, without its line end.

    The row is joined with commas directly when csv.writer would write that
    same text: every cell is a str, int, float or bool, and the line is not
    empty (csv writes [""] as "") and holds no quote, CR or LF and no comma
    but the separators. Any other row goes through csv.writer.
    """
    line = ",".join(map(str, row))
    if (line and '"' not in line and "\r" not in line and "\n" not in line
            and line.count(",") == len(row) - 1
            and _PLAIN_CELLS.issuperset(map(type, row))):
        return line
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()[:-len("\r\n")]


def csv_lines(lead, columns) -> list[str]:
    """csv.writer's text, without line ends, of the row [*lead, *cells] for
    each `cells` of zip(*columns): one line per row of the columns.

    `lead` is checked once, as `_csv_line` checks a row, and goes through
    csv.writer when a cell of it needs quoting or converting. Every cell of
    `columns` must be text csv.writer writes as it is, such as a
    `float_cells` cell or an int's str: no comma, quote, CR or LF, and no
    line of one empty cell. Each line is one join of those cells.
    """
    head = _csv_line([*lead, ""]) if lead else ""
    return [head + ",".join(cells) for cells in zip(*columns)]


@contextlib.contextmanager
def csv_file(path, header):
    """Open one CSV file, write the header cells in csv.writer's bytes, and
    give `write(lines)`, which appends lines as `csv_lines` makes them
    (csv.writer's text of a row), each ended by CRLF, joined a chunk of
    lines at a time. A caller that makes a file's lines in parts writes
    each part as it is made, and holds none of them after."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        def write(lines) -> None:
            lines = iter(lines)
            while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
                fh.write("\r\n".join(chunk) + "\r\n")

        write([_csv_line(header)])
        yield write


def write_table(path, header, rows) -> None:
    """Write one CSV file: the header, then the rows as given, each a
    sequence of cells, in the bytes of csv.writer's default dialect (see
    `_csv_line`)."""
    with csv_file(path, header) as write:
        write(map(_csv_line, rows))


def save_checkpoint(path, model_kind: str, hyperparams: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    """Write the checkpoint document in the bytes of
    `json.dumps(doc, indent=1, sort_keys=True)`, with the tensors sorted by
    name. json's encoder writes everything but the tensors; each tensor's
    cells are joined with one `str.join` and written before the next
    tensor's are made."""
    head = json.dumps({"format_version": FORMAT_VERSION, "model_kind": model_kind,
                       "hyperparams": hyperparams, "tensors": []},
                      indent=1, sort_keys=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        if not arrays:
            fh.write(head)
            return
        # "tensors" sorts last, so the text ends with its empty list
        fh.write(head[:-len("[]\n}")] + "[")
        for i, name in enumerate(sorted(arrays)):
            shape = [str(n) for n in np.shape(arrays[name])]
            values = _json_list(float_cells(arrays[name]), quote='"')
            fh.write(f'{"," if i else ""}\n  {{\n   "name": {json.dumps(name)},'
                     f'\n   "shape": {_json_list(shape)},'
                     f'\n   "values": {values}\n  }}')
        fh.write("\n ]\n}")


def _json_list(cells: list[str], quote: str = "") -> str:
    """json.dumps(indent=1) text of a list that is the value of a key at
    depth 3, given each item's text; `quote` goes around every item."""
    if not cells:
        return "[]"
    sep = f"{quote},\n    {quote}"
    return f"[\n    {quote}{sep.join(cells)}{quote}\n   ]"


def load_checkpoint(path, expect_kind: str | tuple[str, ...] | None = None
                    ) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, hyperparams, arrays) of a checkpoint whose kind is `expect_kind`,
    or one of them when it is a tuple; None accepts any kind."""
    meta, arrays = load_parsed(path, lambda data: _parse_checkpoint(data, expect_kind),
                               ["load_checkpoint"])
    # a parse checks the kind before the tensors; a sidecar hit checks it here
    _check_kind(meta["kind"], expect_kind)
    return meta["kind"], meta["hyperparams"], dict(zip(meta["names"], arrays))


def _check_kind(kind, expect_kind: str | tuple[str, ...] | None) -> None:
    kinds = (expect_kind,) if isinstance(expect_kind, str) else expect_kind
    if kinds is not None and kind not in kinds:
        want = " or ".join(map(repr, kinds))
        raise ValueError(f"checkpoint holds a {kind!r} model, expected {want}")


def _parse_checkpoint(data: bytes, expect_kind) -> tuple[dict, list]:
    # decoded as Path.read_text decodes it, newline translation included
    doc = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    kind = doc["model_kind"]
    _check_kind(kind, expect_kind)
    names, arrays = [], []
    for entry in doc["tensors"]:
        values = np.array([float(v) for v in entry["values"]], dtype=np.float64)
        arrays.append(values.reshape(entry["shape"]))
        names.append(entry["name"])
    return {"kind": kind, "hyperparams": doc["hyperparams"], "names": names}, arrays


# ---- parse once: binary sidecars -------------------------------------------


def sidecar_path(path) -> Path:
    path = Path(path)
    return path.with_name(f".{path.name}.sepsim-cache.npz")


def load_parsed(path, parse, loader) -> tuple[object, list[np.ndarray]]:
    """parse(data) of the bytes of the file at `path`, read from its sidecar
    when the sidecar's key matches, else parsed and written to the sidecar.

    parse returns (meta, arrays): a JSON value and a list of float64 or
    int64 arrays. `loader` is a JSON value naming the loader and every
    setting that changes what parse returns. Either way meta comes back
    through one JSON round trip, so a hit returns exactly what a parse
    returns.
    """
    path = Path(path)
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if _read_digests is not None:
        _read_digests[path.resolve()] = digest
    key = json.dumps([SIDECAR_VERSION, loader, digest])
    sidecar = sidecar_path(path)
    found = _read_sidecar(sidecar, key)
    if found is not None:
        return found
    meta, arrays = parse(data)
    header = _write_sidecar(sidecar, key, meta, arrays)
    return json.loads(header)["meta"], arrays


# a sidecar's array dtypes: float64 and int64, little-endian
_SIDECAR_DTYPES = ("<f8", "<i8")


def _read_sidecar(sidecar: Path, key: str) -> tuple[object, list] | None:
    """(meta, arrays) of a sidecar written under `key`, or None when there
    is none, or it has another key or is not a whole sidecar: a header line
    that is not JSON or not of the layout `_write_sidecar` writes, a dtype
    other than float64 or int64, or more or fewer bytes than its header
    gives."""
    try:
        # one writable buffer, sized by fstat, for the header and every
        # array, so a hit's arrays can be written to, as a parse's can
        with sidecar.open("rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(data) != len(data):
                return None
    except OSError:
        return None
    start = data.find(b"\n") + 1
    try:
        header = json.loads(data[:start])
    except (ValueError, RecursionError):  # no header line, not UTF-8 or not JSON
        return None
    if not (isinstance(header, dict) and header.get("key") == key
            and "meta" in header and isinstance(header.get("arrays"), list)):
        return None
    specs = header["arrays"]
    if not all(isinstance(spec, list) and len(spec) == 2
               and spec[0] in _SIDECAR_DTYPES and isinstance(spec[1], list)
               and all(type(n) is int and n >= 0 for n in spec[1])
               for spec in specs):
        return None
    counts = [math.prod(shape) for _, shape in specs]
    if start + 8 * sum(counts) != len(data):
        return None
    arrays = []
    for (dtype, shape), count in zip(specs, counts):
        arrays.append(np.frombuffer(data, dtype, count, start).reshape(shape))
        start += 8 * count
    return header["meta"], arrays


def _write_sidecar(sidecar: Path, key: str, meta, arrays: list[np.ndarray]) -> str:
    """Write the sidecar of `key` through a temporary file and os.replace:
    a JSON header line, {"key", "meta", "arrays": [[dtype, shape], ...]},
    padded with spaces so the arrays begin on an 8-byte boundary, then each
    array's little-endian bytes in C order. The same entries give the same
    bytes. Returns the header; a list holding an array of another dtype is
    not written."""
    specs = [[np.asarray(a).dtype.newbyteorder("<").str, list(np.shape(a))]
             for a in arrays]
    header = json.dumps({"key": key, "meta": meta, "arrays": specs})
    if any(dtype not in _SIDECAR_DTYPES for dtype, _ in specs):
        return header
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            line = header.encode()
            fh.write(line + b" " * (-(len(line) + 1) % 8) + b"\n")
            for a, (dtype, _) in zip(arrays, specs):
                fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
    return header


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# sha256 of each file load_parsed read, by resolved path, inside
# _recording_digests(); None outside it
_read_digests: dict[Path, str] | None = None


@contextlib.contextmanager
def _recording_digests():
    """Keep the digest of every file load_parsed reads in the block. A CLI
    stage runs in one, so it hashes each input once."""
    global _read_digests
    previous, _read_digests = _read_digests, {}
    try:
        yield
    finally:
        _read_digests = previous


def _sha256_as_read(path) -> str:
    """sha256 of the file at `path` as load_parsed read it in the current
    `_recording_digests()` block, or of its bytes now if it did not."""
    if _read_digests is not None:
        digest = _read_digests.get(Path(path).resolve())
        if digest is not None:
            return digest
    return file_sha256(path)
