"""sepsim's on-disk formats.

`float_cells` is the only place a float becomes text: the repr of a Python
float, which reads back as the same IEEE double, so every checkpoint,
`stats.json` and CSV reloads exactly and save -> load -> save is
bit-identical. `write_table` is the only CSV writer: it writes the bytes
`csv.writer` would, joining a row itself when no cell of it needs quoting.
Every trained model serializes to the same JSON document:

    {format_version, model_kind, hyperparams, tensors: [{name, shape, values}]}

Text is slow to parse, so `load_parsed` parses each file once: it keeps a
binary sidecar `.<name>.sepsim-cache.npz` next to the file, keyed by the
sha256 of the file's bytes, `SIDECAR_VERSION` and the loader's settings.
`load_checkpoint` and `data.load_cohort` read through it. A sidecar is plain
arrays, read with `allow_pickle=False`; one that cannot be read or has
another key is parsed around and replaced, and one that cannot be written is
skipped, so sidecars are always safe to delete.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import zipfile
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1
# bump when a loader changes what it keeps in its sidecar
SIDECAR_VERSION = 1


def float_cells(values) -> list[str]:
    """Text of each value, flattened in C order, as float64 reprs."""
    return list(map(repr, np.asarray(values, dtype=np.float64).ravel().tolist()))


# cell types whose csv.writer text is str(cell); csv writes None as ""
_PLAIN_CELLS = frozenset((str, int, float, bool))
_CHUNK_LINES = 256


def write_table(path, header, rows) -> None:
    """Write one CSV file: the header, then the rows as given, each a
    sequence of cells, in the bytes of csv.writer's default dialect.

    A row is joined with commas directly when csv.writer would write that
    same text: every cell is a str, int, float or bool, and the line is not
    empty (csv writes [""] as "") and holds no quote, CR or LF and no comma
    but the separators. Any other row goes through csv.writer, in its place.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        lines: list[str] = []
        for row in itertools.chain([header], rows):
            line = ",".join(map(str, row))
            if (line and '"' not in line and "\r" not in line
                    and "\n" not in line and line.count(",") == len(row) - 1
                    and _PLAIN_CELLS.issuperset(map(type, row))):
                lines.append(line)
                if len(lines) == _CHUNK_LINES:
                    _write_lines(fh, lines)
            else:
                _write_lines(fh, lines)
                writer.writerow(row)
        _write_lines(fh, lines)


def _write_lines(fh, lines: list[str]) -> None:
    """Write the buffered lines, each ended by CRLF, and empty the buffer."""
    if lines:
        fh.write("\r\n".join(lines) + "\r\n")
        lines.clear()


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

    parse returns (meta, arrays): a JSON value and a list of numeric arrays.
    `loader` is a JSON value naming the loader and every setting that changes
    what parse returns. Either way meta comes back through one JSON round
    trip, so a hit returns exactly what a parse returns.
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
    text = json.dumps(meta)
    _write_sidecar(sidecar, {"key": np.array(key), "meta": np.array(text),
                             **{f"a{i}": a for i, a in enumerate(arrays)}})
    return json.loads(text), arrays


def _read_sidecar(sidecar: Path, key: str) -> tuple[object, list] | None:
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            if npz["key"].item() != key:
                return None
            arrays = [npz[f"a{i}"] for i in range(len(npz.files) - 2)]
            return json.loads(npz["meta"].item()), arrays
    except Exception:  # noqa: BLE001 - whatever is wrong with it, parse instead
        return None


def _write_sidecar(sidecar: Path, entries: dict[str, np.ndarray]) -> None:
    """Write an .npz through a temporary file and os.replace. Members carry
    zip's fixed 1980 timestamp, so the same entries give the same bytes."""
    tmp = sidecar.with_name(f"{sidecar.name}.{os.getpid()}.tmp")
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            for name, value in entries.items():
                with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                             force_zip64=True) as fh:
                    np.lib.format.write_array(fh, np.asarray(value),
                                              allow_pickle=False)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


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
