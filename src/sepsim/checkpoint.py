"""sepsim's on-disk text format.

`float_cells` is the only place a float becomes text: the repr of a Python
float, which reads back as the same IEEE double, so every checkpoint,
`stats.json` and CSV reloads exactly and save -> load -> save is
bit-identical. `write_table` is the only CSV writer. Every trained model
serializes to the same JSON document:

    {format_version, model_kind, hyperparams, tensors: [{name, shape, values}]}
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def float_cells(values) -> list[str]:
    """Text of each value, flattened in C order, as float64 reprs."""
    return list(map(repr, np.asarray(values, dtype=np.float64).ravel().tolist()))


def write_table(path, header, rows) -> None:
    """Write one CSV file: the header, then the rows as given."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(path, model_kind: str, hyperparams: dict,
                    arrays: dict[str, np.ndarray]) -> None:
    tensors = [{"name": name, "shape": list(np.shape(arrays[name])),
                "values": float_cells(arrays[name])} for name in sorted(arrays)]
    doc = {"format_version": FORMAT_VERSION, "model_kind": model_kind,
           "hyperparams": hyperparams, "tensors": tensors}
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")


def load_checkpoint(path, expect_kind: str | None = None
                    ) -> tuple[str, dict, dict[str, np.ndarray]]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    kind = doc["model_kind"]
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"checkpoint holds a {kind!r} model, expected {expect_kind!r}")
    arrays = {}
    for entry in doc["tensors"]:
        values = np.array([float(v) for v in entry["values"]], dtype=np.float64)
        arrays[entry["name"]] = values.reshape(entry["shape"])
    return kind, doc["hyperparams"], arrays


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
