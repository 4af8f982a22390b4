"""Run configuration: JSON parsing, defaults, and derived objects.

Configs are strict: unknown keys are rejected and everything is parsed
and validated before any work starts. Radio parameters are written in
dB in the file (matching how link budgets are usually quoted) and
converted to linear values here, once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .ambiguity import Distribution, SampleSpace, tolerance_from_confidence
from .errors import ConfigError
from .geometry import ComputeParams, EnergyParams, Position3D, RadioParams, ScenarioConfig

MBIT = 1e6

SWEEP_PARAMS = ("Q", "eps", "quota-hap", "quota-uav")
METHODS = ("dro", "do", "ro", "exhaustive")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _take(data: dict, context: str, defaults: dict) -> dict:
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(sorted(unknown))}")
    merged = dict(defaults)
    merged.update(data)
    return merged


@dataclass(frozen=True)
class TruthSpec:
    """Ground-truth task-size distribution used for histories and realizations."""

    kind: str = "uniform"
    probs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "categorical"):
            raise ConfigError(f"truth kind must be 'uniform' or 'categorical', got {self.kind!r}")
        if self.kind == "categorical" and not self.probs:
            raise ConfigError("categorical truth requires 'probs'")

    def distribution(self, space: SampleSpace) -> Distribution:
        if self.kind == "uniform":
            return Distribution.uniform(space.num_atoms)
        if len(self.probs) != space.num_atoms:
            raise ConfigError("truth probs length must equal the number of atoms")
        return Distribution(probs=tuple(float(p) for p in self.probs))


@dataclass(frozen=True)
class AmbiguityConfig:
    atoms_mbit: tuple[float, ...] = (3.0, 9.0, 15.0, 21.0, 27.0)
    history_len: int = 200
    epsilon: float | None = 0.3
    confidence: float | None = None
    truth: TruthSpec = field(default_factory=TruthSpec)
    per_device_history: bool = False

    def __post_init__(self):
        if self.history_len < 1:
            raise ConfigError(f"history_len must be >= 1, got {self.history_len}")
        if (self.epsilon is None) == (self.confidence is None):
            raise ConfigError("set exactly one of 'epsilon' and 'confidence'")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        try:
            self.sample_space()
        except ConfigError as exc:
            raise ConfigError(f"ambiguity.atoms_mbit: {exc}") from exc

    def sample_space(self) -> SampleSpace:
        return SampleSpace.with_midpoint_edges([a * MBIT for a in self.atoms_mbit])

    def effective_epsilon(self) -> float:
        if self.epsilon is not None:
            return float(self.epsilon)
        return tolerance_from_confidence(
            len(self.atoms_mbit), self.history_len, float(self.confidence)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = tuple(range(1, 21))
    methods: tuple[str, ...] = ("dro", "do", "ro")
    jobs: int = 1
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {self.sweep_param!r}")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    ambiguity: AmbiguityConfig
    experiment: ExperimentConfig

    def to_dict(self) -> dict:
        sc = self.scenario
        return {
            "scenario": {
                "num_tds": sc.num_tds,
                "num_uavs": sc.num_uavs,
                "area_size_m": sc.area_size,
                "uav_altitude_m": sc.uav_altitude,
                "hap_position_m": list(sc.hap_position.to_tuple()),
                "quota_uav": sc.quota_uav,
                "quota_hap": sc.quota_hap,
                "radio": {
                    "ref_gain_td_uav_db": _linear_to_db(sc.radio.ref_gain_td_uav),
                    "ref_gain_uav_hap_db": _linear_to_db(sc.radio.ref_gain_uav_hap),
                    "bandwidth_td_uav_hz": sc.radio.bandwidth_td_uav,
                    "bandwidth_uav_hap_hz": sc.radio.bandwidth_uav_hap,
                    "noise_power_db": _linear_to_db(sc.radio.noise_power),
                    "tx_power_td_w": sc.radio.tx_power_td,
                    "tx_power_uav_w": sc.radio.tx_power_uav,
                },
                "compute": {
                    "uav_capability_cps": sc.compute.uav_capability,
                    "hap_capability_cps": sc.compute.hap_capability,
                    "uav_cycles_per_bit": sc.compute.uav_cycles_per_bit,
                    "hap_cycles_per_bit": sc.compute.hap_cycles_per_bit,
                },
                "energy": {
                    "uav_basic_j": sc.energy.uav_basic,
                    "hap_basic_j": sc.energy.hap_basic,
                    "uav_chip_coeff": sc.energy.uav_chip_coeff,
                    "hap_chip_coeff": sc.energy.hap_chip_coeff,
                    "uav_budget_j": sc.energy.uav_budget,
                    "hap_budget_j": sc.energy.hap_budget,
                    "uav_relay_power_w": sc.energy.uav_relay_power,
                },
            },
            "ambiguity": {
                "atoms_mbit": list(self.ambiguity.atoms_mbit),
                "history_len": self.ambiguity.history_len,
                "epsilon": self.ambiguity.epsilon,
                "confidence": self.ambiguity.confidence,
                "truth": {"kind": self.ambiguity.truth.kind, "probs": list(self.ambiguity.truth.probs)},
                "per_device_history": self.ambiguity.per_device_history,
            },
            "experiment": {
                "seeds": list(self.experiment.seeds),
                "methods": list(self.experiment.methods),
                "jobs": self.experiment.jobs,
                "sweep_param": self.experiment.sweep_param,
                "sweep_values": list(self.experiment.sweep_values),
            },
        }

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def with_override(self, param: str, value: float) -> "RunConfig":
        """Apply one sweep-parameter override, returning a new config."""
        if param == "Q":
            return replace(self, ambiguity=replace(self.ambiguity, history_len=int(value)))
        if param == "eps":
            return replace(
                self, ambiguity=replace(self.ambiguity, epsilon=float(value), confidence=None)
            )
        if param == "quota-hap":
            return replace(self, scenario=replace(self.scenario, quota_hap=int(value)))
        if param == "quota-uav":
            return replace(self, scenario=replace(self.scenario, quota_uav=int(value)))
        raise ConfigError(f"sweep param must be one of {SWEEP_PARAMS}, got {param!r}")


def _linear_to_db(linear: float) -> float:
    import math

    return 10.0 * math.log10(linear)


_SCENARIO_DEFAULTS = {
    "num_tds": 10,
    "num_uavs": 3,
    "area_size_m": 10000.0,
    "uav_altitude_m": 2000.0,
    "hap_position_m": [5000.0, 5000.0, 20000.0],
    "quota_uav": 4,
    "quota_hap": 4,
    "radio": {},
    "compute": {},
    "energy": {},
}

_RADIO_DEFAULTS = {
    "ref_gain_td_uav_db": -60.0,
    "ref_gain_uav_hap_db": -60.0,
    "bandwidth_td_uav_hz": 1e6,
    "bandwidth_uav_hap_hz": 2e7,
    "noise_power_db": -100.0,
    "tx_power_td_w": 0.5,
    "tx_power_uav_w": 10.0,
}

_COMPUTE_DEFAULTS = {
    "uav_capability_cps": 3e9,
    "hap_capability_cps": 5e10,
    "uav_cycles_per_bit": 270.0,
    "hap_cycles_per_bit": 1100.0,
}

_ENERGY_DEFAULTS = {
    "uav_basic_j": 0.0,
    "hap_basic_j": 0.0,
    "uav_chip_coeff": 1e-28,
    "hap_chip_coeff": 1e-28,
    "uav_budget_j": 1e5,
    "hap_budget_j": 1e6,
    "uav_relay_power_w": 10.0,
}

_AMBIGUITY_DEFAULTS = {
    "atoms_mbit": [3.0, 9.0, 15.0, 21.0, 27.0],
    "history_len": 200,
    "epsilon": 0.3,
    "confidence": None,
    "truth": {},
    "per_device_history": False,
}

_TRUTH_DEFAULTS = {"kind": "uniform", "probs": []}

_EXPERIMENT_DEFAULTS = {
    "seeds": list(range(1, 21)),
    "methods": ["dro", "do", "ro"],
    "jobs": 1,
    "sweep_param": None,
    "sweep_values": [],
}


def parse_config(data: dict) -> RunConfig:
    top = _take(data, "top-level", {"scenario": {}, "ambiguity": {}, "experiment": {}})

    sc = _take(top["scenario"], "scenario", _SCENARIO_DEFAULTS)
    radio_d = _take(sc["radio"], "scenario.radio", _RADIO_DEFAULTS)
    compute_d = _take(sc["compute"], "scenario.compute", _COMPUTE_DEFAULTS)
    energy_d = _take(sc["energy"], "scenario.energy", _ENERGY_DEFAULTS)
    if radio_d["bandwidth_td_uav_hz"] <= 0 or radio_d["bandwidth_uav_hap_hz"] <= 0:
        raise ConfigError("radio bandwidths (bandwidth_*_hz) must be positive")
    radio = RadioParams(
        ref_gain_td_uav=db_to_linear(radio_d["ref_gain_td_uav_db"]),
        ref_gain_uav_hap=db_to_linear(radio_d["ref_gain_uav_hap_db"]),
        bandwidth_td_uav=float(radio_d["bandwidth_td_uav_hz"]),
        bandwidth_uav_hap=float(radio_d["bandwidth_uav_hap_hz"]),
        noise_power=db_to_linear(radio_d["noise_power_db"]),
        tx_power_td=float(radio_d["tx_power_td_w"]),
        tx_power_uav=float(radio_d["tx_power_uav_w"]),
    )
    compute = ComputeParams(
        uav_capability=float(compute_d["uav_capability_cps"]),
        hap_capability=float(compute_d["hap_capability_cps"]),
        uav_cycles_per_bit=float(compute_d["uav_cycles_per_bit"]),
        hap_cycles_per_bit=float(compute_d["hap_cycles_per_bit"]),
    )
    energy = EnergyParams(
        uav_basic=float(energy_d["uav_basic_j"]),
        hap_basic=float(energy_d["hap_basic_j"]),
        uav_chip_coeff=float(energy_d["uav_chip_coeff"]),
        hap_chip_coeff=float(energy_d["hap_chip_coeff"]),
        uav_budget=float(energy_d["uav_budget_j"]),
        hap_budget=float(energy_d["hap_budget_j"]),
        uav_relay_power=float(energy_d["uav_relay_power_w"]),
    )
    scenario = ScenarioConfig(
        num_tds=int(sc["num_tds"]),
        num_uavs=int(sc["num_uavs"]),
        area_size=float(sc["area_size_m"]),
        uav_altitude=float(sc["uav_altitude_m"]),
        hap_position=Position3D(*[float(v) for v in sc["hap_position_m"]]),
        radio=radio,
        compute=compute,
        energy=energy,
        quota_uav=int(sc["quota_uav"]),
        quota_hap=int(sc["quota_hap"]),
    )

    amb = _take(top["ambiguity"], "ambiguity", _AMBIGUITY_DEFAULTS)
    truth_d = _take(amb["truth"], "ambiguity.truth", _TRUTH_DEFAULTS)
    ambiguity = AmbiguityConfig(
        atoms_mbit=tuple(float(a) for a in amb["atoms_mbit"]),
        history_len=int(amb["history_len"]),
        epsilon=None if amb["epsilon"] is None else float(amb["epsilon"]),
        confidence=None if amb["confidence"] is None else float(amb["confidence"]),
        truth=TruthSpec(kind=truth_d["kind"], probs=tuple(truth_d["probs"])),
        per_device_history=bool(amb["per_device_history"]),
    )

    exp = _take(top["experiment"], "experiment", _EXPERIMENT_DEFAULTS)
    experiment = ExperimentConfig(
        seeds=tuple(int(s) for s in exp["seeds"]),
        methods=tuple(exp["methods"]),
        jobs=int(exp["jobs"]),
        sweep_param=exp["sweep_param"],
        sweep_values=tuple(float(v) for v in exp["sweep_values"]),
    )
    return RunConfig(scenario=scenario, ambiguity=ambiguity, experiment=experiment)


def default_config() -> RunConfig:
    return parse_config({})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data)
