"""Network geometry and deterministic per-bit delay/energy coefficients.

Everything here is in linear SI units: meters, Hz, watts, bits/s, joules.
dB-to-linear conversion happens at config-parse time, never here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class RadioParams:
    """Link-budget parameters, all linear and strictly positive."""

    ref_gain_td_uav: float
    ref_gain_uav_hap: float
    bandwidth_td_uav: float
    bandwidth_uav_hap: float
    noise_power: float
    tx_power_td: float
    tx_power_uav: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"radio parameter {name} must be > 0, got {value}")


@dataclass(frozen=True)
class ComputeParams:
    uav_capability: float  # cycles/s
    hap_capability: float  # cycles/s
    uav_cycles_per_bit: float
    hap_cycles_per_bit: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"compute parameter {name} must be > 0, got {value}")


@dataclass(frozen=True)
class EnergyParams:
    uav_basic: float  # J
    hap_basic: float  # J
    uav_chip_coeff: float  # J*s^2/cycle^3
    hap_chip_coeff: float  # J*s^2/cycle^3
    uav_budget: float  # J
    hap_budget: float  # J
    uav_relay_power: float  # W

    def __post_init__(self):
        if self.uav_chip_coeff < 0 or self.hap_chip_coeff < 0:
            raise ConfigError("chip coefficients must be >= 0")
        if not self.uav_budget > self.uav_basic:
            raise ConfigError("UAV energy budget must exceed its basic cost")
        if not self.hap_budget > self.hap_basic:
            raise ConfigError("HAP energy budget must exceed its basic cost")
        if not self.uav_relay_power > 0:
            raise ConfigError("UAV relay power must be > 0")


@dataclass(frozen=True)
class Scenario:
    """Immutable snapshot of the physical network.

    `generate_scenario` derives the rate matrices from the geometry, and
    `__post_init__` derives the per-bit costs `coeffs` from them; both are
    shared read-only by all solvers and evaluation workers.
    """

    tds: np.ndarray = field(repr=False)  # I x 3, meters; z is altitude above ground
    uavs: np.ndarray = field(repr=False)  # J x 3, meters
    hap: tuple[float, float, float]
    radio: RadioParams
    compute: ComputeParams
    energy: EnergyParams
    quota_uav: int
    quota_hap: int
    rate_td_uav: np.ndarray = field(repr=False)  # I x J, bits/s
    rate_uav_hap: np.ndarray = field(repr=False)  # J, bits/s
    coeffs: DelayEnergyCoeffs = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.tds) < 1 or len(self.uavs) < 1:
            raise ConfigError("scenario needs at least one TD and one UAV")
        if self.rate_td_uav.shape != (self.num_tds, self.num_uavs):
            raise ShapeError("rate_td_uav shape mismatch")
        if self.rate_uav_hap.shape != (self.num_uavs,):
            raise ShapeError("rate_uav_hap shape mismatch")
        if not (self.rate_td_uav > 0).all() or not (self.rate_uav_hap > 0).all():
            raise ConfigError("all link rates must be strictly positive")
        for array in (self.tds, self.uavs, self.rate_td_uav, self.rate_uav_hap):
            array.setflags(write=False)
        object.__setattr__(self, "coeffs", _per_bit_costs(self))

    @property
    def num_tds(self) -> int:
        return len(self.tds)

    @property
    def num_uavs(self) -> int:
        return len(self.uavs)

    def to_dict(self) -> dict:
        return {
            "tds": self.tds.tolist(),
            "uavs": self.uavs.tolist(),
            "hap": list(self.hap),
            "radio": vars(self.radio).copy(),
            "compute": vars(self.compute).copy(),
            "energy": vars(self.energy).copy(),
            "quota_uav": self.quota_uav,
            "quota_hap": self.quota_hap,
            "rate_td_uav": self.rate_td_uav.tolist(),
            "rate_uav_hap": self.rate_uav_hap.tolist(),
        }

@dataclass(frozen=True)
class DelayEnergyCoeffs:
    """Per-bit delay (s/bit) and energy (J/bit) coefficients.

    access_delay is I x J; all other arrays are indexed by UAV j.
    The relay path delay bundles the UAV->HAP hop with the HAP compute
    stage, since a relayed bit always traverses both.
    """

    access_delay: np.ndarray
    uav_compute_delay: np.ndarray
    relay_path_delay: np.ndarray
    uav_relay_energy: np.ndarray
    uav_compute_energy: np.ndarray
    hap_compute_energy: float

    def __post_init__(self):
        for array in (
            self.access_delay,
            self.uav_compute_delay,
            self.relay_path_delay,
            self.uav_relay_energy,
            self.uav_compute_energy,
        ):
            array.setflags(write=False)


def _compute_energy_per_bit(chip_coeff: float, capability: float, cycles_per_bit: float) -> float:
    """beta * C^3 * (lambda/C) = beta * C^2 * lambda joules per bit; inf past the float range."""
    try:
        return chip_coeff * capability**2 * cycles_per_bit
    except OverflowError:
        return math.inf


def _per_bit_costs(scenario: Scenario) -> DelayEnergyCoeffs:
    """Collapse rates, capabilities, and chip coefficients into per-bit costs."""
    cp, en = scenario.compute, scenario.energy
    uav_compute_delay = np.full(
        scenario.num_uavs, cp.uav_cycles_per_bit / cp.uav_capability
    )
    hap_compute_delay = cp.hap_cycles_per_bit / cp.hap_capability
    relay_path_delay = 1.0 / scenario.rate_uav_hap + hap_compute_delay
    uav_compute_energy = np.full(
        scenario.num_uavs,
        _compute_energy_per_bit(en.uav_chip_coeff, cp.uav_capability, cp.uav_cycles_per_bit),
    )
    hap_compute_energy = _compute_energy_per_bit(
        en.hap_chip_coeff, cp.hap_capability, cp.hap_cycles_per_bit
    )
    return DelayEnergyCoeffs(
        access_delay=1.0 / scenario.rate_td_uav,
        uav_compute_delay=uav_compute_delay,
        relay_path_delay=relay_path_delay,
        uav_relay_energy=en.uav_relay_power / scenario.rate_uav_hap,
        uav_compute_energy=uav_compute_energy,
        hap_compute_energy=hap_compute_energy,
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of a random scenario to generate."""

    num_tds: int
    num_uavs: int
    area_size: float  # side of the square deployment area, meters
    uav_altitude: float
    hap_position: tuple[float, float, float]  # meters
    radio: RadioParams
    compute: ComputeParams
    energy: EnergyParams
    quota_uav: int
    quota_hap: int

    def __post_init__(self):
        for name in ("num_tds", "num_uavs"):
            count = getattr(self, name)
            if count < 1:
                raise ConfigError(f"scenario.{name} must be >= 1, got {count}")
            if count > sys.maxsize:  # past NumPy's index range
                raise ConfigError(f"scenario.{name} must be <= {sys.maxsize}, got {count}")
        if not self.area_size > 0:
            raise ConfigError(f"scenario.area_size_m must be > 0, got {self.area_size}")
        if not self.uav_altitude > 0:
            raise ConfigError(f"scenario.uav_altitude_m must be > 0, got {self.uav_altitude}")
        hap = self.hap_position
        if not (len(hap) == 3 and all(map(math.isfinite, hap)) and hap[2] >= 0):
            raise ConfigError(
                f"scenario.hap_position_m must be 3 finite coordinates with altitude >= 0, "
                f"got {list(hap)}"
            )
        for name in ("quota_uav", "quota_hap"):
            if getattr(self, name) < 0:
                raise ConfigError(f"scenario.{name} must be >= 0, got {getattr(self, name)}")
        cp, en = self.compute, self.energy
        for node, chip, capability, cycles in (
            ("uav", en.uav_chip_coeff, cp.uav_capability, cp.uav_cycles_per_bit),
            ("hap", en.hap_chip_coeff, cp.hap_capability, cp.hap_cycles_per_bit),
        ):
            if not math.isfinite(_compute_energy_per_bit(chip, capability, cycles)):
                raise ConfigError(
                    f"scenario.compute.{node}_capability_cps is out of range: the per-bit "
                    f"compute energy {node}_chip_coeff * capability**2 * cycles_per_bit = "
                    f"{chip} * {capability}**2 * {cycles} J/bit is not finite"
                )


def generate_scenario(config: ScenarioConfig, seed: int) -> Scenario:
    """Place TDs and UAVs uniformly at random in the configured square.

    Deterministic for a given (config, seed) pair.
    """
    rng = np.random.default_rng([int(seed), 0x6E0])
    num_tds, num_uavs, radio = config.num_tds, config.num_uavs, config.radio
    tds = np.column_stack([rng.uniform(0.0, config.area_size, (num_tds, 2)), np.zeros(num_tds)])
    uavs = np.column_stack(
        [rng.uniform(0.0, config.area_size, (num_uavs, 2)), np.full(num_uavs, config.uav_altitude)]
    )
    # every link in one scalar pass over Python floats, the TD-UAV links in row-major order
    # and then the UAV-HAP links: numpy's log2 and power differ from math's in the last
    # bit, and x ** 2 differs from x * x
    td_uav = (radio.ref_gain_td_uav, radio.bandwidth_td_uav, radio.tx_power_td)
    uav_hap = (radio.ref_gain_uav_hap, radio.bandwidth_uav_hap, radio.tx_power_uav)
    uav_points = uavs.tolist()
    links = [(td, uav, td_uav) for td in tds.tolist() for uav in uav_points]
    links += [(uav, config.hap_position, uav_hap) for uav in uav_points]
    rates = []
    try:
        for (ax, ay, az), (bx, by, bz), (gain, bandwidth, power) in links:
            distance = math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
            if distance <= 0:
                raise ConfigError(f"link distance must be > 0, got {distance}: two nodes meet")
            gain /= distance * distance
            rates.append(bandwidth * math.log2(1.0 + power * gain / radio.noise_power))
    except OverflowError:
        raise ConfigError(
            "a squared link distance is past the float range: scenario.area_size_m, "
            "scenario.uav_altitude_m and scenario.hap_position_m must place the nodes closer"
        ) from None
    num_links = num_tds * num_uavs
    return Scenario(
        tds=tds,
        uavs=uavs,
        hap=config.hap_position,
        radio=radio,
        compute=config.compute,
        energy=config.energy,
        quota_uav=config.quota_uav,
        quota_hap=config.quota_hap,
        rate_td_uav=np.array(rates[:num_links]).reshape(num_tds, num_uavs),
        rate_uav_hap=np.array(rates[num_links:]),
    )
