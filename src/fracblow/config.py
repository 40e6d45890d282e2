"""Sectioned text configuration for the command-line harness.

Sections [problem] and [grid], plus command-specific [lemma], [frac_apply],
[evolve] and [sweep]: the problem and the experiment only, as the PV rule,
the blow-up factor and the row order are fixed in code.  ``KEYS`` declares
every key once, with its cast and its default, and ``load_config`` checks
the whole file against it, and the rules across keys of one section,
whichever command reads it; rules that need n and p wait for the data or
plan.  A ConfigError names each parse failure, unknown section or key, bad
value or missing field.
"""
from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

import numpy as np

from .blowup import DATA_KINDS
from .evolution import ProblemParams
from .grid import GridSpec
from .lemma import FIT_WINDOW, MIDRANGE_START, MIN_WINDOW_SPAN
from .sweep import REGIME_EDGES, SweepPlan


class ConfigError(ValueError):
    """Bad or missing configuration content."""


def _complex(raw: str) -> complex:
    # an i that ends a term is the imaginary unit, so inf and 1+infi parse
    return complex(re.sub(r"i(?=$|[+\-)])", "j", raw.replace(" ", "")))


def _float_list(raw: str) -> list[float] | None:
    """Comma-separated finite floats; an empty value is None, the key's default."""
    values = [float(s) for s in (t.strip() for t in raw.split(",")) if s]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("every value must be a finite number")
    return values or None


def _dimensions(raw: str) -> list[int] | None:
    values = _float_list(raw) or []
    if any(v not in (1, 2) for v in values):
        raise ValueError("dimensions must be 1 or 2")
    return [int(v) for v in values] or None


def _weight_powers(raw: str) -> list[float] | None:
    values = _float_list(raw)
    if values and min(values) <= 0:
        raise ValueError("every weight power q must be positive")
    return values


def _fit_window(raw: str) -> tuple[float, float]:
    values = _float_list(raw) or []
    if len(values) != 2 or not (values[0] > MIDRANGE_START
                                and MIN_WINDOW_SPAN * values[0] <= values[1] < np.inf):
        raise ValueError(f"need two finite radii, the first above {MIDRANGE_START:g} (where "
                         f"the sampled midrange starts) and the second at least "
                         f"{MIN_WINDOW_SPAN:g} times the first: two decades")
    return values[0], values[1]


def _invalid(why: str):
    raise ValueError(why)


def _one_of(*choices: str):
    return lambda raw: raw if raw in choices else _invalid(f"need one of {', '.join(choices)}")


def _flag(raw: str) -> bool:
    return _one_of("1", "true", "yes", "0", "false", "no")(raw.lower()) in ("1", "true", "yes")


#: section -> key -> (cast, default) for every key a config file may hold;
#: any other section or key is an error, so a misspelt key cannot fall back
#: silently to its default.  A cast takes the raw text and raises ValueError
#: on a bad value; where it returns None the key keeps its default.  A
#: default of ... marks a key its section cannot do without.
KEYS = {
    "problem": {
        "n": (int, ...), "p": (float, ...), "lambda": (_complex, ...),
        # auto = conj(lambda)/|lambda|, set by ProblemParams
        "alpha": (lambda raw: None if raw in ("auto", "") else _complex(raw), None),
    },
    "grid": {"L": (float, ...), "N": (int, ...)},
    "frac_apply": {
        "profile": (_one_of("bracket", "gaussian"), "bracket"),
        "q": (float, 2.0), "r": (float, 1.0), "width": (float, 1.0),
        "points": (_float_list, list(np.linspace(0.0, 5.0, 11))),
    },
    "lemma": {
        "dims": (_dimensions, [1, 2]),
        "q_values": (_weight_powers, None),  # None: n/2, n, n + 1 and n + 2 for each n
        "fit_window": (_fit_window, FIT_WINDOW),
        "gaussian": (_flag, True),
    },
    "evolve": {
        "data": (_one_of(*DATA_KINDS), "inner-singular"), "mu": (float, 1.0), "k": (float, 0.25),
        # None: half the grid spacing
        "cap_radius": (lambda raw: float(raw) if raw else None, None),
        # None: the adapted radius of the family
        "r": (lambda raw: None if raw == "auto" else float(raw), None),
        "dt": (float, 0.01), "t_max": (float, 1.0),
    },
    "sweep": {
        "kind": (_one_of(*REGIME_EDGES), "inner-singular"), "k": (float, 0.25),
        "count": (lambda raw: int(raw) if int(raw) >= 1 else _invalid("need at least 1 row"), 8),
        # both None: the automatic range
        "mu_min": (float, None), "mu_max": (float, None),
        "dt_factor": (float, SweepPlan.dt_factor), "dt_base": (float, SweepPlan.dt_base),
        "workers": (lambda raw: 1 if int(raw) == 1 else _invalid(
            "rows run in order, so 1 is the only accepted value"), 1),
    },
}


def load_config(path: str | Path) -> dict:
    """The checked config file, by section: [problem] as a ProblemParams and
    [grid] as a GridSpec, each None where the file has no such section, and
    every other section as its values by key, defaults filled in."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    values = {section: {key: default for key, (_, default) in keys.items()}
              for section, keys in KEYS.items()}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]; known sections: "
                              f"{', '.join(KEYS)}")
        known = {parser.optionxform(k) for k in KEYS[section]}
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]; known keys: "
                                  f"{', '.join(KEYS[section])}")
        for key, (cast, default) in KEYS[section].items():
            if not parser.has_option(section, key):
                if default is ...:
                    raise ConfigError(f"missing field {key!r} in section [{section}]")
                continue
            raw = parser.get(section, key)
            try:
                value = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
            if value is not None:
                values[section][key] = value

    # rules across the keys of one section
    sweep, evolve = values["sweep"], values["evolve"]
    if (sweep["mu_min"] is None) != (sweep["mu_max"] is None):
        key = "mu_min" if sweep["mu_min"] is not None else "mu_max"
        raw = parser.get("sweep", key)
        raise ConfigError(f"bad value for [sweep] {key} = {raw!r}: mu_min and mu_max go "
                          "together: give both, or omit both for the automatic range")
    if evolve["data"] == "integrable" and evolve["r"] is None:
        raise ConfigError("bad value for [evolve] r = 'auto': integrable data has no adapted "
                          "radius; give r as a number")
    if evolve["cap_radius"] is not None and evolve["data"] != "inner-singular":
        raise ConfigError(f"bad value for [evolve] cap_radius = "
                          f"{parser.get('evolve', 'cap_radius')!r}: {evolve['data']} data has no "
                          "inner cap; cap_radius applies to inner-singular data only")

    params = grid = None
    if parser.has_section("problem"):
        problem = values["problem"]
        try:
            params = ProblemParams(n=problem["n"], p=problem["p"], lam=problem["lambda"],
                                   alpha=problem["alpha"])
        except ValueError as exc:
            raise ConfigError(f"bad [problem] section: {exc}") from exc
    if parser.has_section("grid"):
        if params is None:
            raise ConfigError("[grid] needs a [problem] section, which sets the dimension n")
        try:
            grid = GridSpec(n=params.n, L=values["grid"]["L"], N=values["grid"]["N"])
        except ValueError as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc
    return {**values, "problem": params, "grid": grid}
