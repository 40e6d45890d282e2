"""The one writer of the fracblow/1 format: CSV tables, JSON manifests, field files."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import Field, GridSpec

SCHEMA = "fracblow/1"


def constants_manifest(constants, b_result=None) -> dict:
    """Echo every constant used, with tolerances, for the run manifest."""
    out = {
        "A_hat": {"value": constants.a_bound, "source": constants.a_source},
        "C": {"value": constants.c_threshold},
        "D": {"value": constants.d_rate},
        "W_n": {"value": constants.w_mass, "error": constants.w_mass_error},
        "omega_n": {"value": constants.sphere},
    }
    if b_result is not None:
        out["B"] = {"value": b_result.value, "error": b_result.error}
    return out


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return value


def write_csv(path: str | Path, header, rows) -> Path:
    """A CSV table: floats as %.12g, None as an empty cell, bools as 0/1."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(v) for v in row] for row in rows)
    return path


def write_manifest(path: str | Path, kind: str, body: dict) -> Path:
    path = Path(path)
    payload = {"schema": SCHEMA, "kind": kind}
    payload.update(body)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonify))
    return path


def _jsonify(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def save_field(field: Field, basepath: str | Path) -> tuple[Path, Path]:
    """Flat .npy values plus a JSON sidecar describing the lattice."""
    base = Path(basepath)
    npy = base.with_suffix(".npy")
    np.save(npy, field.values)
    meta = write_manifest(base.with_suffix(".json"), "field", {
        "grid": {"n": field.grid.n, "L": field.grid.L, "N": field.grid.N},
        "values": npy.name,
    })
    return npy, meta


def load_field(basepath: str | Path) -> Field:
    base = Path(basepath)
    meta = json.loads(base.with_suffix(".json").read_text())
    g = meta["grid"]
    values = np.load(base.with_suffix(".npy"))
    return Field(GridSpec(n=g["n"], L=g["L"], N=g["N"]), values)
