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
class Position3D:
    """Cartesian coordinates in meters; z is altitude above ground."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ConfigError("position coordinates must be finite")
        if self.z < 0:
            raise ConfigError(f"altitude must be >= 0, got {self.z}")

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


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


def euclidean_distance(a: Position3D, b: Position3D) -> float:
    """Straight-line distance in meters between two nodes."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def channel_gain(ref_gain: float, distance: float) -> float:
    """Inverse-square line-of-sight gain: ref_gain * distance**-2."""
    if distance <= 0:
        raise ConfigError(f"distance must be > 0, got {distance}")
    return ref_gain / (distance * distance)


def link_rate(bandwidth: float, tx_power: float, gain: float, noise: float) -> float:
    """Shannon rate B*log2(1 + p*g/sigma^2) in bits/s.

    A zero gain is allowed and yields a zero rate (the zero-SNR limit).
    """
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be > 0, got {bandwidth}")
    if noise <= 0:
        raise ConfigError(f"noise power must be > 0, got {noise}")
    if tx_power <= 0:
        raise ConfigError(f"tx power must be > 0, got {tx_power}")
    if gain < 0:
        raise ConfigError(f"gain must be >= 0, got {gain}")
    return bandwidth * math.log2(1.0 + tx_power * gain / noise)


@dataclass(frozen=True)
class Scenario:
    """Immutable snapshot of the physical network.

    `generate_scenario` derives the rate matrices from the geometry; they are
    shared read-only by all solvers and evaluation workers.
    """

    tds: tuple[Position3D, ...]
    uavs: tuple[Position3D, ...]
    hap: Position3D
    radio: RadioParams
    compute: ComputeParams
    energy: EnergyParams
    quota_uav: int
    quota_hap: int
    rate_td_uav: np.ndarray = field(repr=False)  # I x J, bits/s
    rate_uav_hap: np.ndarray = field(repr=False)  # J, bits/s

    def __post_init__(self):
        if len(self.tds) < 1 or len(self.uavs) < 1:
            raise ConfigError("scenario needs at least one TD and one UAV")
        if self.rate_td_uav.shape != (self.num_tds, self.num_uavs):
            raise ShapeError("rate_td_uav shape mismatch")
        if self.rate_uav_hap.shape != (self.num_uavs,):
            raise ShapeError("rate_uav_hap shape mismatch")
        if not (self.rate_td_uav > 0).all() or not (self.rate_uav_hap > 0).all():
            raise ConfigError("all link rates must be strictly positive")
        self.rate_td_uav.setflags(write=False)
        self.rate_uav_hap.setflags(write=False)

    @property
    def num_tds(self) -> int:
        return len(self.tds)

    @property
    def num_uavs(self) -> int:
        return len(self.uavs)

    def to_dict(self) -> dict:
        return {
            "tds": [p.to_tuple() for p in self.tds],
            "uavs": [p.to_tuple() for p in self.uavs],
            "hap": self.hap.to_tuple(),
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


def _compute_energy_per_bit(chip_coeff: float, capability: float, cycles_per_bit: float) -> float:
    """beta * C^3 * (lambda/C) = beta * C^2 * lambda joules per bit; inf past the float range."""
    try:
        return chip_coeff * capability**2 * cycles_per_bit
    except OverflowError:
        return math.inf


def per_bit_coefficients(scenario: Scenario) -> DelayEnergyCoeffs:
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
    hap_position: Position3D
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
    # Python floats: their arithmetic is numpy's, bit for bit, at a fraction of the cost
    td_xy = rng.uniform(0.0, config.area_size, size=(config.num_tds, 2)).tolist()
    uav_xy = rng.uniform(0.0, config.area_size, size=(config.num_uavs, 2)).tolist()
    tds = tuple(Position3D(x, y, 0.0) for x, y in td_xy)
    uavs = tuple(Position3D(x, y, config.uav_altitude) for x, y in uav_xy)
    hap, radio = config.hap_position, config.radio
    # every link in one scalar pass, the TD-UAV links in row-major order and then the
    # UAV-HAP links: numpy's log2 and power differ from math's in the last bit
    td_uav = (radio.ref_gain_td_uav, radio.bandwidth_td_uav, radio.tx_power_td)
    uav_hap = (radio.ref_gain_uav_hap, radio.bandwidth_uav_hap, radio.tx_power_uav)
    links = [(td, uav, td_uav) for td in tds for uav in uavs]
    links += [(uav, hap, uav_hap) for uav in uavs]
    rates = np.array(
        [
            link_rate(bw, power, channel_gain(gain, euclidean_distance(a, b)), radio.noise_power)
            for a, b, (gain, bw, power) in links
        ]
    )
    num_links = config.num_tds * config.num_uavs
    return Scenario(
        tds=tds,
        uavs=uavs,
        hap=hap,
        radio=radio,
        compute=config.compute,
        energy=config.energy,
        quota_uav=config.quota_uav,
        quota_hap=config.quota_hap,
        rate_td_uav=rates[:num_links].reshape(config.num_tds, config.num_uavs),
        rate_uav_hap=rates[num_links:],
    )
