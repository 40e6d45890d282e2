"""Sectioned text configuration for the command-line harness.

Sections [problem] and [grid], plus command-specific [lemma], [frac_apply],
[evolve] and [sweep]: the problem and the experiment only, as the PV rule,
the blow-up factor and the row order are fixed in code.  Parse failures,
bad values, unknown sections and unknown keys carry the section and field
name: commands read every key through ``HarnessConfig.get``.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .evolution import ProblemParams
from .grid import GridSpec


class ConfigError(ValueError):
    """Bad or missing configuration content."""


_sentinel = object()

#: the keys each section accepts; any other key or section is an error, so a
#: misspelt key cannot fall back silently to its default
_KNOWN_KEYS = {
    "problem": ("n", "p", "lambda", "alpha"),
    "grid": ("L", "N"),
    "frac_apply": ("profile", "q", "r", "width", "points"),
    "lemma": ("dims", "q_values", "fit_window", "gaussian"),
    "evolve": ("data", "mu", "k", "cap_radius", "r", "dt", "t_max"),
    "sweep": ("kind", "k", "count", "mu_min", "mu_max", "dt_factor", "dt_base", "workers"),
}


def _check_known_keys(parser: configparser.ConfigParser):
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]; known sections: "
                              f"{', '.join(_KNOWN_KEYS)}")
        known = {parser.optionxform(k) for k in _KNOWN_KEYS[section]}
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]; known keys: "
                                  f"{', '.join(_KNOWN_KEYS[section])}")


def _get(parser, section, key, cast, default=_sentinel):
    if not parser.has_section(section):
        if default is not _sentinel:
            return default
        raise ConfigError(f"missing section [{section}]")
    if not parser.has_option(section, key):
        if default is not _sentinel:
            return default
        raise ConfigError(f"missing field {key!r} in section [{section}]")
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except Exception as exc:
        raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc


def _complex(raw: str) -> complex:
    return complex(raw.replace(" ", "").replace("i", "j"))


def float_list(raw: str) -> list[float]:
    """Comma-separated floats; an empty value is an empty list."""
    items = [s for s in (t.strip() for t in raw.split(",")) if s]
    return [float(s) for s in items]


def dimensions(raw: str) -> list[int]:
    values = float_list(raw)
    if any(v not in (1, 2) for v in values):
        raise ValueError("dimensions must be 1 or 2")
    return [int(v) for v in values]


def increasing_pair(raw: str) -> tuple[float, float]:
    values = float_list(raw)
    if len(values) != 2 or not values[0] < values[1]:
        raise ValueError("need exactly two increasing values")
    return values[0], values[1]


def flag(raw: str) -> bool:
    word = raw.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("need one of 1, true, yes, 0, false, no")
    return word in ("1", "true", "yes")


@dataclass(frozen=True)
class HarnessConfig:
    """Everything a subcommand may need, parsed and validated."""

    params: ProblemParams | None
    grid: GridSpec | None
    raw: configparser.ConfigParser

    def get(self, section: str, key: str, cast, default=_sentinel):
        """[section] key through cast, or default when absent; a bad value
        is a ConfigError naming the section and key."""
        return _get(self.raw, section, key, cast, default)


def load_config(path: str | Path) -> HarnessConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    _check_known_keys(parser)

    params = None
    if parser.has_section("problem"):
        n = _get(parser, "problem", "n", int)
        p = _get(parser, "problem", "p", float)
        lam = _get(parser, "problem", "lambda", _complex)
        alpha = _get(parser, "problem", "alpha",
                     lambda raw: None if raw in ("auto", "") else _complex(raw), default=None)
        try:
            params = ProblemParams(n=n, p=p, lam=lam, alpha=alpha)
        except ValueError as exc:
            raise ConfigError(f"bad [problem] section: {exc}") from exc

    grid = None
    if parser.has_section("grid"):
        if params is None:
            raise ConfigError("[grid] needs a [problem] section, which sets the dimension n")
        try:
            grid = GridSpec(n=params.n, L=_get(parser, "grid", "L", float),
                            N=_get(parser, "grid", "N", int))
        except ValueError as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc

    return HarnessConfig(params=params, grid=grid, raw=parser)
