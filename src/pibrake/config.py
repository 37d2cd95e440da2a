"""Run configuration: plain-text config files plus CLI overrides.

Config files are flat ``key = value`` INI sections::

    [run]
    source = kinematic
    scheme = pi
    seed = 0
    out = reports

    [gbt]
    rounds = 300
    lr = 0.1
    depth = 6
    min_samples_leaf = 5

    [vehicles]
    small = 0.345, 37.77, 28.84

    [variables]
    N_f = M L T^-2

    [grid.kinematic]
    v_i = 0.1, 5.0, 50

Every key has a built-in default, so an empty (or absent) file is a valid
configuration.  A setting's ``--key`` flag overrides the file only when it is
given.  ``[gbt]`` holds the four learner settings and nothing else: the
learner draws no random numbers, and the ``[run]`` seed drives the train/test
splits, the learning-curve subsets and the surrogate noise.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .dataset import DEFAULT_VEHICLES, GRIDS, LISTED_AXES, SOURCES, axis_input
from .dimensions import VariableDecl, variables_from_config
from .experiments import OUTPUT_COLUMNS, check_curve
from .features import SCHEME_NAMES
from .gbt import GbtConfig
from .simulator import INPUT_RULES, VehicleSpec

DEFAULT_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)


@dataclass
class RunConfig:
    vehicles: dict[str, VehicleSpec] = field(default_factory=lambda: dict(DEFAULT_VEHICLES))
    source: str = "kinematic"
    scheme: str = "pi"
    seed: int = 0
    out_dir: Path = Path("reports")
    gbt: GbtConfig = field(default_factory=GbtConfig)
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    repeats: int = 5
    target_vehicle: str = "large"
    target_output: str = "Y"
    grids: dict[str, dict] = field(default_factory=lambda: {src: dict(axes) for src, axes in GRIDS.items()})
    variables: list[VariableDecl] = field(default_factory=list)

    @property
    def data_dir(self) -> Path:
        return self.out_dir / "data"


def floats(text: str) -> tuple[float, ...]:
    """Comma- or space-separated floats."""
    return tuple(float(t) for t in text.replace(",", " ").split())


def natural(text: str) -> int:
    """A whole number >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _axis_triplet(text: str) -> tuple[float, float, int]:
    vals = text.replace(",", " ").split()
    if len(vals) != 3:
        raise ValueError(f"grid axis needs 'start, stop, count', got {text!r}")
    if not vals[2].isdigit() or int(vals[2]) < 1:
        raise ValueError(f"grid axis count must be a whole number >= 1, got {vals[2]!r}")
    return (float(vals[0]), float(vals[1]), int(vals[2]))


def _axis_values(text: str) -> tuple[float, ...]:
    vals = floats(text)
    if not vals:
        raise ValueError("grid axis needs at least one value")
    return vals


def _grid_axis(source: str, key: str, text: str) -> tuple:
    """One grid axis: listed values or a 'start, stop, count' linspace triplet,
    as ``dataset.LISTED_AXES`` says; its values must lie in range and differ."""
    listed = (source, key) in LISTED_AXES
    axis = (_axis_values if listed else _axis_triplet)(text)
    if not np.isfinite(axis).all():
        raise ValueError(f"grid axis values must be finite, got {text!r}")
    name, values = axis_input(source, key, axis)
    in_range, rule = INPUT_RULES[name]
    bad = np.flatnonzero(~in_range(values))
    if len(bad):
        # a linspace takes its endpoints exactly and lies between them, so its
        # first bad value is its start or else its stop; report it as written
        written = axis[bad[0]] if listed else axis[min(bad[0], 1)]
        raise ValueError(f"{written} is out of range: {rule}")
    if len(np.unique(values)) < len(values):
        raise ValueError(f"grid axis repeats a value, got {text!r}")
    return axis


class Setting(NamedTuple):
    """One ``[section] key`` setting, read from a config file or given as a ``--key`` flag."""

    section: str
    attr: str  # the GbtConfig field for [gbt], the RunConfig field otherwise
    parse: Callable[[str], Any]
    choices: tuple | None = None  # the allowed values, where they are fixed
    help: str | None = None

    def assign(self, cfg: RunConfig, value: Any) -> None:
        """Check a parsed value and store it in ``cfg``; a bad value raises ``ValueError``."""
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{value!r} is not one of {self.choices}")
        if self.section == "curve":  # the checks learning_curve makes, run as the value is read
            check_curve(**{"fractions": cfg.fractions, "repeats": cfg.repeats, self.attr: value})
        if self.section == "gbt":
            cfg.gbt = replace(cfg.gbt, **{self.attr: value})  # GbtConfig checks the value
        else:
            setattr(cfg, self.attr, value)


# key -> setting; a key names one setting across all sections, as it is also its flag
SETTINGS = {
    "source": Setting("run", "source", str, SOURCES),
    "scheme": Setting("run", "scheme", str, SCHEME_NAMES),
    "seed": Setting("run", "seed", natural, help="run seed (splits, surrogate noise)"),
    "out": Setting("run", "out_dir", Path, help="output directory (default: reports)"),
    "rounds": Setting("gbt", "n_rounds", int, help="boosting rounds"),
    "lr": Setting("gbt", "learning_rate", float, help="learning rate"),
    "depth": Setting("gbt", "max_depth", int, help="tree depth limit"),
    "min_samples_leaf": Setting("gbt", "min_samples_leaf", int),
    "fractions": Setting("curve", "fractions", floats, help="comma-separated training fractions"),
    "repeats": Setting("curve", "repeats", int),
    "target": Setting("compare", "target_vehicle", str, help="target vehicle (default large)"),
    "output": Setting("compare", "target_output", str, tuple(OUTPUT_COLUMNS), "target output (default Y)"),
}

# the keys each section accepts; None marks free-form names
SECTION_KEYS = {
    **{s.section: tuple(k for k, t in SETTINGS.items() if t.section == s.section) for s in SETTINGS.values()},
    **{f"grid.{src}": tuple(axes) for src, axes in GRIDS.items()}, "vehicles": None, "variables": None,
}


def parse_vehicles(section: dict[str, str], where: str) -> dict[str, VehicleSpec]:
    """The registry of a ``[vehicles]`` section; ``where`` names its file in errors."""
    if not section:
        raise ValueError(f"{where}: [vehicles] lists no vehicle")
    out = {}
    for name, text in section.items():
        try:
            vals = floats(text)
            if len(vals) != 3:
                raise ValueError(f"needs 'l, Nf, Nr', got {text!r}")
            out[name] = VehicleSpec(name, *vals)
        except ValueError as e:
            raise ValueError(f"{where}: [vehicles] {name}: {e}") from None
    return out


def _read(path: str | Path) -> configparser.ConfigParser:
    """Parse a config file; a missing file or a ``[DEFAULT]`` section raises."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep case: variable and vehicle names matter
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError(f"config {path}: unknown section [{parser.default_section}]")
    return parser


def load_vehicles(path: str | Path) -> dict[str, VehicleSpec]:
    """The vehicle registry of a file holding one ``[vehicles]`` section and no other."""
    parser = _read(path)
    if parser.sections() != ["vehicles"]:
        raise ValueError(
            f"vehicles file {path}: needs exactly one [vehicles] section, got {parser.sections()}"
        )
    return parse_vehicles(dict(parser["vehicles"]), f"vehicles file {path}")


def _set(cfg: RunConfig, section: str, key: str, text: str) -> None:
    """Parse one value of any section but ``[vehicles]`` into ``cfg``; a bad value raises ``ValueError``."""
    if section == "variables":
        cfg.variables += variables_from_config({key: text})
    elif section.startswith("grid."):
        source = section.removeprefix("grid.")
        cfg.grids[source][key] = _grid_axis(source, key, text)
    else:
        setting = SETTINGS[key]
        setting.assign(cfg, setting.parse(text))


def load_run_config(path: str | Path | None = None) -> RunConfig:
    """Read a config file into a RunConfig; missing keys keep their defaults.

    Unknown sections or keys, values that do not parse or lie outside the
    range the simulator, ``GbtConfig`` or the learning curve accepts (or,
    for a setting with fixed choices, outside them), and an empty
    ``[vehicles]`` section raise ``ValueError`` naming the file and the key.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = _read(path)
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ValueError(f"config {path}: unknown section [{section}]")
        if section == "vehicles":
            continue
        allowed = SECTION_KEYS[section]
        for key, text in parser[section].items():
            if allowed is not None and key not in allowed:
                raise ValueError(
                    f"config {path}: unknown key {key!r} in [{section}]; expected one of {tuple(allowed)}"
                )
            try:
                _set(cfg, section, key, text)
            except ValueError as e:
                raise ValueError(f"config {path}: [{section}] {key}: {e}") from None
    if parser.has_section("vehicles"):
        cfg.vehicles = parse_vehicles(dict(parser["vehicles"]), f"config {path}")
    return cfg

