"""Run configuration: JSON parsing, defaults, and derived objects.

Configs are strict: unknown keys are rejected and everything is parsed
and validated before any work starts. Radio parameters are written in
dB in the file (matching how link budgets are usually quoted) and
converted to linear values here, once.

Each JSON object has one table of `json key -> (attribute, kind,
default)` rows. A row's kind type-checks and converts the value on the
way in and writes it back on the way out, so parsing, defaults,
`RunConfig.to_dict` and sweep overrides all read the same row. Range
checks live in each dataclass's `__post_init__`, so that
`dataclasses.replace` runs them too.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from .ambiguity import Distribution, SampleSpace, tolerance_from_confidence
from .errors import ConfigError
from .geometry import ComputeParams, EnergyParams, RadioParams, ScenarioConfig

MBIT = 1e6

METHODS = ("dro", "do", "ro", "exhaustive")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class TruthSpec:
    """Ground-truth task-size distribution used for histories and realizations."""

    kind: str
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("uniform", "categorical"):
            raise ConfigError(f"truth kind must be 'uniform' or 'categorical', got {self.kind!r}")
        if self.kind == "categorical" and not self.probs:
            raise ConfigError("categorical truth requires 'probs'")


@dataclass(frozen=True)
class AmbiguityConfig:
    """The ambiguity block. `__post_init__` derives the sample space (bits) and the
    truth's distribution over it once; they are not config fields."""

    atoms_mbit: tuple[float, ...]
    history_len: int
    epsilon: float | None
    confidence: float | None
    truth: TruthSpec
    per_device_history: bool
    space: SampleSpace = field(init=False, compare=False, repr=False)
    truth_distribution: Distribution = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.history_len < 1:
            raise ConfigError(f"ambiguity.history_len must be >= 1, got {self.history_len}")
        if self.history_len > sys.maxsize:  # past NumPy's index range
            raise ConfigError(
                f"ambiguity.history_len must be <= {sys.maxsize}, got {self.history_len}"
            )
        if (self.epsilon is None) == (self.confidence is None):
            raise ConfigError("set exactly one of 'epsilon' and 'confidence'")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.confidence is not None and not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"ambiguity.confidence must be in (0, 1), got {self.confidence}")
        try:
            space = SampleSpace(atoms=tuple(a * MBIT for a in self.atoms_mbit))
        except ConfigError as exc:
            raise ConfigError(f"ambiguity.atoms_mbit: {exc}") from exc
        if self.truth.kind == "uniform":
            if self.truth.probs:
                raise ConfigError(
                    "ambiguity.truth.probs must be left out for a uniform truth "
                    "(use kind \"categorical\" to give weights)"
                )
            truth = Distribution.uniform(space.num_atoms)
        else:
            if len(self.truth.probs) != space.num_atoms:
                raise ConfigError(
                    f"ambiguity.truth.probs must have one entry per atom ({space.num_atoms}), "
                    f"got {len(self.truth.probs)}"
                )
            try:
                truth = Distribution(probs=self.truth.probs)
            except ConfigError as exc:
                raise ConfigError(f"ambiguity.truth.probs is not a distribution: {exc}") from exc
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "truth_distribution", truth)

    def effective_epsilon(self) -> float:
        if self.epsilon is not None:
            return self.epsilon
        return tolerance_from_confidence(len(self.atoms_mbit), self.history_len, self.confidence)


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...]
    methods: tuple[str, ...]
    jobs: int
    sweep_param: str | None
    sweep_values: tuple[float, ...]

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("experiment.seeds must list at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"experiment.seeds must be >= 0, got {min(self.seeds)}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ConfigError(
                f"experiment.methods must be a non-empty list of distinct methods, "
                f"got {list(self.methods)}"
            )
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"experiment.methods must be drawn from {METHODS}, got {m!r}")
        if self.jobs < 1:
            raise ConfigError(f"experiment.jobs must be >= 1, got {self.jobs}")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(
                f"experiment.sweep_param must be one of {SWEEP_PARAMS}, got {self.sweep_param!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    ambiguity: AmbiguityConfig
    experiment: ExperimentConfig

    def to_dict(self) -> dict:
        return _RUN.dump(self)

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def with_override(self, param: str, value: float) -> "RunConfig":
        """Apply one sweep-parameter override, parsed by its row's kind."""
        if param not in _SWEEP:
            raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")
        block, key, resets = _SWEEP[param]
        block_attr, block_kind, _ = _RUN.rows[block]
        attr, kind, _ = block_kind.rows[key]
        updated = replace(
            getattr(self, block_attr), **{attr: kind.parse(value, f"{block}.{key}")}, **resets
        )
        return replace(self, **{block_attr: updated})


# -- kinds: how one JSON value is read in and written back out ------------------


class _Kind(NamedTuple):
    parse: Callable[[Any, str], Any]  # (json value, dotted path) -> attribute value
    dump: Callable[[Any], Any] = lambda value: value


def _real(value, path: str) -> float:
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # NaN fails too
    if finite and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{path} must be a finite number, got {value!r}")


def _integer(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path} must be an integer, got {value!r}")


def _db_in(value, path: str) -> float:
    try:
        return db_to_linear(_real(value, path))
    except OverflowError:
        raise ConfigError(f"{path} is out of range, got {value!r}") from None


def _db_out(linear: float) -> float:
    """10·log10(linear), or, where a parse would dump that differently (3 dB is written
    2.999999999999999, then 2.9999999999999987), a dB value that parses back to `linear`."""
    db = 10.0 * math.log10(linear)
    if 10.0 * math.log10(db_to_linear(db)) == db:
        return db
    down = up = db
    for _ in range(2):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        for near in (down, up):
            if db_to_linear(near) == linear:
                return near
    return db


def _instance(cls: type, expected: str) -> _Kind:
    def parse(value, path: str):
        if not isinstance(value, cls):
            raise ConfigError(f"{path} must be {expected}, got {value!r}")
        return value

    return _Kind(parse)


def _optional(kind: _Kind) -> _Kind:
    return _Kind(
        lambda value, path: None if value is None else kind.parse(value, path),
        lambda value: None if value is None else kind.dump(value),
    )


def _list_of(kind: _Kind) -> _Kind:
    def parse(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return tuple(kind.parse(v, f"{path}[{i}]") for i, v in enumerate(value))

    return _Kind(parse, lambda values: [kind.dump(v) for v in values])


@dataclass(frozen=True)
class _Object:
    """A JSON object read into `cls`; `rows` maps json key -> (attribute, kind, default)."""

    cls: type
    rows: dict[str, tuple[str, Any, Any]]

    def parse(self, value, path: str):
        where = path or "config root"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        unknown = set(value) - set(self.rows)
        if unknown:
            raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
        return self.cls(
            **{
                attr: kind.parse(value.get(key, default), f"{path}.{key}" if path else key)
                for key, (attr, kind, default) in self.rows.items()
            }
        )

    def dump(self, obj) -> dict:
        return {key: kind.dump(getattr(obj, attr)) for key, (attr, kind, _) in self.rows.items()}


_REAL = _Kind(_real)
_INTEGER = _Kind(_integer)
_DB = _Kind(_db_in, _db_out)
_BOOL = _instance(bool, "true or false")
_STRING = _instance(str, "a string")

_RADIO = _Object(RadioParams, {
    "ref_gain_td_uav_db": ("ref_gain_td_uav", _DB, -60.0),
    "ref_gain_uav_hap_db": ("ref_gain_uav_hap", _DB, -60.0),
    "bandwidth_td_uav_hz": ("bandwidth_td_uav", _REAL, 1e6),
    "bandwidth_uav_hap_hz": ("bandwidth_uav_hap", _REAL, 2e7),
    "noise_power_db": ("noise_power", _DB, -100.0),
    "tx_power_td_w": ("tx_power_td", _REAL, 0.5),
    "tx_power_uav_w": ("tx_power_uav", _REAL, 10.0),
})
_COMPUTE = _Object(ComputeParams, {
    "uav_capability_cps": ("uav_capability", _REAL, 3e9),
    "hap_capability_cps": ("hap_capability", _REAL, 5e10),
    "uav_cycles_per_bit": ("uav_cycles_per_bit", _REAL, 270.0),
    "hap_cycles_per_bit": ("hap_cycles_per_bit", _REAL, 1100.0),
})
_ENERGY = _Object(EnergyParams, {
    "uav_basic_j": ("uav_basic", _REAL, 0.0),
    "hap_basic_j": ("hap_basic", _REAL, 0.0),
    "uav_chip_coeff": ("uav_chip_coeff", _REAL, 1e-28),
    "hap_chip_coeff": ("hap_chip_coeff", _REAL, 1e-28),
    "uav_budget_j": ("uav_budget", _REAL, 1e5),
    "hap_budget_j": ("hap_budget", _REAL, 1e6),
    "uav_relay_power_w": ("uav_relay_power", _REAL, 10.0),
})
_SCENARIO = _Object(ScenarioConfig, {
    "num_tds": ("num_tds", _INTEGER, 10),
    "num_uavs": ("num_uavs", _INTEGER, 3),
    "area_size_m": ("area_size", _REAL, 10000.0),
    "uav_altitude_m": ("uav_altitude", _REAL, 2000.0),
    "hap_position_m": ("hap_position", _list_of(_REAL), [5000.0, 5000.0, 20000.0]),
    "quota_uav": ("quota_uav", _INTEGER, 4),
    "quota_hap": ("quota_hap", _INTEGER, 4),
    "radio": ("radio", _RADIO, {}),
    "compute": ("compute", _COMPUTE, {}),
    "energy": ("energy", _ENERGY, {}),
})
_TRUTH = _Object(TruthSpec, {
    "kind": ("kind", _STRING, "uniform"),
    "probs": ("probs", _list_of(_REAL), []),
})
_AMBIGUITY = _Object(AmbiguityConfig, {
    "atoms_mbit": ("atoms_mbit", _list_of(_REAL), [3.0, 9.0, 15.0, 21.0, 27.0]),
    "history_len": ("history_len", _INTEGER, 200),
    "epsilon": ("epsilon", _optional(_REAL), 0.3),
    "confidence": ("confidence", _optional(_REAL), None),
    "truth": ("truth", _TRUTH, {}),
    "per_device_history": ("per_device_history", _BOOL, False),
})
_EXPERIMENT = _Object(ExperimentConfig, {
    "seeds": ("seeds", _list_of(_INTEGER), list(range(1, 21))),
    "methods": ("methods", _list_of(_STRING), ["dro", "do", "ro"]),
    "jobs": ("jobs", _INTEGER, 1),
    "sweep_param": ("sweep_param", _optional(_STRING), None),
    "sweep_values": ("sweep_values", _list_of(_REAL), []),
})
_RUN = _Object(RunConfig, {
    "scenario": ("scenario", _SCENARIO, {}),
    "ambiguity": ("ambiguity", _AMBIGUITY, {}),
    "experiment": ("experiment", _EXPERIMENT, {}),
})

# sweep parameter -> (block, json key, attributes the override resets)
_SWEEP = {
    "Q": ("ambiguity", "history_len", {}),
    "eps": ("ambiguity", "epsilon", {"confidence": None}),
    "quota-hap": ("scenario", "quota_hap", {}),
    "quota-uav": ("scenario", "quota_uav", {}),
}
SWEEP_PARAMS = tuple(_SWEEP)


def parse_config(data: dict) -> RunConfig:
    return _RUN.parse(data, "")


def default_config() -> RunConfig:
    return parse_config({})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an over-long integer literal
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
