"""The one writer of the fracblow/1 format: CSV tables, JSON manifests, field files."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import GridSpec
from .pv import normalization_constant, sphere_measure, weight_mass

SCHEMA = "fracblow/1"


def constants_manifest(constants) -> dict:
    """Echo every constant used, with tolerances, for the run manifest."""
    b, w_mass = normalization_constant(constants.n), weight_mass(constants.n)
    margin = constants.a_bound / constants.n
    return {
        "A_hat": {"value": constants.a_bound,
                  "source": f"closed form sup |op w/w| = n, x margin {margin:g}"},
        "C": {"value": constants.c_threshold},
        "D": {"value": constants.d_rate},
        "W_n": {"value": w_mass.value, "error": w_mass.error},
        "omega_n": {"value": sphere_measure(constants.n)},
        "B": {"value": b.value, "error": b.error},
    }


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


def save_field(grid: GridSpec, values: np.ndarray, basepath: str | Path) -> tuple[Path, Path]:
    """The samples of a lattice as .npy values plus a JSON sidecar describing the lattice."""
    base = Path(basepath)
    npy = base.with_suffix(".npy")
    np.save(npy, values)
    meta = write_manifest(base.with_suffix(".json"), "field", {
        "grid": {"n": grid.n, "L": grid.L, "N": grid.N},
        "values": npy.name,
    })
    return npy, meta
