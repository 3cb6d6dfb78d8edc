"""Experiment configuration: INI-style files with strict key validation.

A config has three sections mapping onto the library's own configuration
types::

    [sim]
    n_taps = 64
    preset = rough

    [tracker]
    rank = 12

    [run]
    algos = lms,asrmae,dfb_asrmae
    seeds = 5
    out_dir = results

The keys of each section are the fields of ``SimConfig`` (but ``seed``: the
seeds run are ``run.seeds``), ``TrackerConfig`` and ``RunConfig``, and each
value is parsed by its field's type.  Unknown sections or keys are hard
errors, as are malformed values; silent typos would invalidate comparisons.
"""

import configparser
import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .channel_sim import SimConfig
from .errors import ConfigError
from .pipeline import ALGORITHMS, TrackerConfig


@dataclass
class RunConfig:
    """Run-control section: what to run and where to put the outputs."""

    algos: tuple = ("lms", "asrmae", "dfb_asrmae")
    seeds: tuple = (0,)
    out_dir: str = "results"
    emit_errors: bool = True
    emit_phi_traj: bool = True
    emit_coherence: bool = True
    emit_spectrum: bool = True
    cir_csv: Optional[str] = None  # replay a recorded trajectory instead of simulating


@dataclass
class ExperimentConfig:
    sim: SimConfig
    tracker: TrackerConfig
    run: RunConfig


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}") from None


def _parse_seeds(raw: str) -> tuple:
    """A bare integer means a seed count (0..n-1); a comma list is explicit."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("run.seeds: empty value")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"run.seeds: {exc}") from None
    if len(values) == 1 and "," not in raw:
        count = values[0]
        if count < 1:
            raise ConfigError(f"run.seeds: seed count must be >= 1, got {count}")
        return tuple(range(count))
    negative = [v for v in values if v < 0]
    if negative:
        raise ConfigError(f"run.seeds: seeds must be >= 0, got {negative}")
    return tuple(values)


def _parse_algos(raw: str) -> tuple:
    algos = tuple(p.strip() for p in raw.split(",") if p.strip())
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ConfigError(
            f"run.algos: unknown algorithm(s) {unknown}; valid: {sorted(ALGORITHMS)}")
    if not algos:
        raise ConfigError("run.algos: empty list")
    return algos


def _field_types(cls) -> dict:
    """Field name -> the scalar type it holds, with ``Optional[...]`` unwrapped."""
    hints = typing.get_type_hints(cls)
    types = {}
    for field in dataclasses.fields(cls):
        inner = [t for t in typing.get_args(hints[field.name]) if t is not type(None)]
        types[field.name] = inner[0] if inner else hints[field.name]
    return types


_FIELD_TYPES = {"sim": _field_types(SimConfig), "tracker": _field_types(TrackerConfig),
                "run": _field_types(RunConfig)}
del _FIELD_TYPES["sim"]["seed"]  # each run.seeds value replaces it
_OWN_PARSERS = {"run.algos": _parse_algos, "run.seeds": _parse_seeds}


def _convert(section: str, key: str, raw: str):
    """Parse one value by the type of its dataclass field."""
    full = f"{section}.{key}"
    if section not in _FIELD_TYPES:
        raise ConfigError(f"unknown section [{section}]")
    kind = _FIELD_TYPES[section].get(key)
    if kind is None:
        raise ConfigError(f"unknown key {full}")
    if full in _OWN_PARSERS:
        return _OWN_PARSERS[full](raw)
    if kind is bool:
        return _parse_bool(raw, full)
    if kind is str:
        return raw.strip()
    try:
        return kind(raw.strip())
    except ValueError:
        raise ConfigError(f"{full}: expected {kind.__name__}, got {raw!r}") from None


def _build(sections: dict) -> ExperimentConfig:
    tracker_kwargs = dict(sections["tracker"])
    try:
        sim = SimConfig(**sections["sim"])
        tracker_kwargs.setdefault("n_train", sim.n_train)
        tracker = TrackerConfig(**tracker_kwargs)
        run = RunConfig(**sections["run"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(sim=sim, tracker=tracker, run=run)


def load_config(path: Optional[str] = None, overrides: Optional[list] = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional INI file plus overrides.

    ``overrides`` is a list of ``section.key=value`` strings applied on top of
    the file (or on top of the defaults when no file is given).
    """
    sections: dict = {"sim": {}, "tracker": {}, "run": {}}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read(file_path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        for section in parser.sections():
            if section not in sections:  # an empty section converts no key
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                sections[section][key] = _convert(section, key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        full, raw = item.split("=", 1)
        if "." not in full:
            raise ConfigError(f"override must be section.key=value, got {item!r}")
        section, key = (part.strip() for part in full.split(".", 1))
        sections[section][key] = _convert(section, key, raw)
    return _build(sections)
