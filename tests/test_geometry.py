import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dro_offload import geometry
from dro_offload.config import default_config
from dro_offload.errors import ConfigError
from dro_offload.geometry import generate_scenario, per_bit_coefficients
from helpers import link_rates_per_link


def _default_scenario(seed=1):
    return generate_scenario(default_config().scenario, seed)


def _one_link(altitude=2000.0, hap=(0.0, 0.0, 20000.0), **radio):
    """A 1x1 scenario whose area collapses to a point at the origin: its TD sits
    `altitude` right below its UAV, so each rate is the rate at a chosen distance."""
    cfg = default_config().scenario
    cfg = dataclasses.replace(
        cfg,
        num_tds=1,
        num_uavs=1,
        area_size=5e-324,
        uav_altitude=altitude,
        hap_position=hap,
        radio=dataclasses.replace(cfg.radio, **radio),
    )
    return generate_scenario(cfg, 1)


def _uav_hap_rate_at(sc, distance):
    r = sc.radio
    gain = r.ref_gain_uav_hap / (distance * distance)
    return r.bandwidth_uav_hap * math.log2(1.0 + r.tx_power_uav * gain / r.noise_power)


class TestDistanceAndGain:
    def test_345_triangle(self):
        sc = _one_link(hap=(3.0, 4.0, 2000.0))
        assert sc.rate_uav_hap[0] == _uav_hap_rate_at(sc, 5.0)

    def test_corner_distance(self):
        sc = _one_link(hap=(10000.0, 10000.0, 0.0))
        expected = _uav_hap_rate_at(sc, 14282.8568570857)
        assert sc.rate_uav_hap[0] == pytest.approx(expected, rel=1e-12)

    def test_gain_inverse_square(self):
        sc = _one_link(altitude=1000.0)
        r = sc.radio
        expected = r.bandwidth_td_uav * math.log2(1.0 + r.tx_power_td * 1e-12 / r.noise_power)
        assert sc.rate_td_uav[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_gain_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigError, match="distance must be > 0"):
            _one_link(hap=(0.0, 0.0, 2000.0))

    @given(
        d1=st.floats(min_value=1.0, max_value=1e6),
        factor=st.floats(min_value=1.001, max_value=100.0),
    )
    def test_gain_decreases_with_distance(self, d1, factor):
        far, near = (_one_link(altitude=d, hap=(0.0, 0.0, 0.0)) for d in (d1 * factor, d1))
        assert far.rate_td_uav[0, 0] < near.rate_td_uav[0, 0]


class TestLinkRate:
    """Section-IV rates: a TD under its UAV at 2 km, and that UAV to the HAP at 18 km."""

    def test_overhead_td_rate(self):
        sc = _one_link()
        assert sc.rate_td_uav[0, 0] == pytest.approx(1802.242633985384, rel=1e-12)

    def test_corner_td_rate(self):
        sc = _one_link(altitude=14282.8568570857, hap=(0.0, 0.0, 0.0))
        assert sc.rate_td_uav[0, 0] == pytest.approx(35.35973924240811, rel=1e-9)

    def test_uav_hap_rate(self):
        sc = _one_link()
        assert sc.rate_uav_hap[0] == pytest.approx(8904.150917069082, rel=1e-12)

    def test_zero_rate_rejected(self):
        # at 1e10 m the SNR is below half an ulp of 1, so the rate rounds to 0
        with pytest.raises(ConfigError, match="strictly positive"):
            _one_link(altitude=1e10, hap=(0.0, 0.0, 0.0))

    def test_invalid_inputs(self):
        radio = default_config().scenario.radio
        for name in ("bandwidth_td_uav", "tx_power_td", "ref_gain_td_uav", "noise_power"):
            with pytest.raises(ConfigError, match=name):
                dataclasses.replace(radio, **{name: 0.0})

    @given(p=st.floats(min_value=0.01, max_value=100.0))
    def test_rate_increases_with_power(self, p):
        # gain 1e-6 / 100**2 = 1e-10 over noise 1e-10: the SNR is the power
        stronger, weaker = (_one_link(altitude=100.0, tx_power_td=q) for q in (2 * p, p))
        assert stronger.rate_td_uav[0, 0] > weaker.rate_td_uav[0, 0]


class TestPerBitCoefficients:
    def test_section_iv_values(self):
        coeffs = per_bit_coefficients(_default_scenario())
        assert coeffs.uav_compute_delay == pytest.approx(9e-8, rel=1e-12)
        # relay path bundles the hop and the HAP compute stage (22 ns/bit)
        assert (coeffs.relay_path_delay > 1100 / 5e10).all()
        assert coeffs.uav_compute_energy == pytest.approx(2.43e-7, rel=1e-12)
        assert coeffs.hap_compute_energy == pytest.approx(2.75e-4, rel=1e-12)

    def test_relay_energy_per_bit(self):
        sc = _default_scenario()
        coeffs = per_bit_coefficients(sc)
        expected = sc.energy.uav_relay_power / sc.rate_uav_hap
        np.testing.assert_allclose(coeffs.uav_relay_energy, expected, rtol=1e-14)

    def test_costs_are_computed_once_and_read_only(self, monkeypatch):
        computed = []
        compute = geometry._per_bit_costs
        monkeypatch.setattr(
            geometry, "_per_bit_costs", lambda sc: computed.append(sc) or compute(sc)
        )
        sc = _default_scenario()
        coeffs = per_bit_coefficients(sc)
        assert per_bit_coefficients(sc) is coeffs and computed == [sc]
        arrays = [value for value in vars(coeffs).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 5
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_cache_stays_out_of_repr_dict_and_copies(self):
        sc = _default_scenario()
        coeffs = per_bit_coefficients(sc)
        assert "coeffs" not in repr(sc) and "_coeffs" not in sc.to_dict()
        copy = dataclasses.replace(sc)
        assert copy._coeffs is None
        fresh = per_bit_coefficients(copy)
        assert fresh is not coeffs
        for name, value in vars(coeffs).items():
            assert np.asarray(getattr(fresh, name)).tobytes() == np.asarray(value).tobytes()

    def test_relay_dominates_uav_compute(self):
        # the relay path costs orders of magnitude more per bit than local
        # UAV compute under the defaults; solvers should never relay
        coeffs = per_bit_coefficients(_default_scenario())
        assert (coeffs.relay_path_delay > 100 * coeffs.uav_compute_delay).all()


class TestScenario:
    def test_shapes_and_positivity(self):
        sc = _default_scenario()
        assert sc.rate_td_uav.shape == (10, 3)
        assert sc.rate_uav_hap.shape == (3,)
        assert (sc.rate_td_uav > 0).all()
        assert (sc.rate_uav_hap > 0).all()

    def test_rate_matrices_read_only(self):
        sc = _default_scenario()
        for array in (sc.rate_td_uav, sc.tds, sc.uavs):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_round_trip_dict(self):
        # `generate` prints to_dict(); it must survive JSON without loss
        sc = _default_scenario()
        data = json.loads(json.dumps(sc.to_dict()))
        np.testing.assert_array_equal(data["rate_td_uav"], sc.rate_td_uav)
        assert data["tds"] == sc.tds.tolist() and data["uavs"] == sc.uavs.tolist()
        assert data["hap"] == list(sc.hap)
        assert data["energy"] == vars(sc.energy)

    def test_generation_is_deterministic(self):
        cfg = default_config().scenario
        a = generate_scenario(cfg, 42)
        b = generate_scenario(cfg, 42)
        c = generate_scenario(cfg, 43)
        assert np.array_equal(a.tds, b.tds) and np.array_equal(a.uavs, b.uavs)
        assert not np.array_equal(a.tds, c.tds)

    def test_positions_inside_area(self):
        cfg = default_config().scenario
        sc = generate_scenario(cfg, 5)
        assert sc.tds.shape == (10, 3) and sc.uavs.shape == (3, 3)
        for points in (sc.tds, sc.uavs):
            assert ((0 <= points[:, :2]) & (points[:, :2] <= cfg.area_size)).all()
        assert (sc.tds[:, 2] == 0.0).all() and (sc.uavs[:, 2] == cfg.uav_altitude).all()

    def test_validation_errors(self):
        cfg = default_config().scenario
        for hap in ((0.0, 0.0, -1.0), (0.0, math.nan, 0.0), (0.0, 0.0)):
            with pytest.raises(ConfigError, match=r"scenario\.hap_position_m"):
                dataclasses.replace(cfg, hap_position=hap)


class TestOnePassRates:
    """`generate_scenario` computes every link in one pass over Python floats; its
    rates equal those composed link by link in `helpers.link_rates_per_link`."""

    CONFIG = dataclasses.replace(
        default_config().scenario, num_tds=30, num_uavs=5, quota_uav=8
    )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_30x5_rates_match_the_per_link_composition(self, seed):
        sc = generate_scenario(self.CONFIG, seed)
        td_uav, uav_hap = link_rates_per_link(self.CONFIG, seed)
        assert sc.rate_td_uav.shape == td_uav.shape == (30, 5)
        assert sc.rate_td_uav.tobytes() == td_uav.tobytes()
        assert sc.rate_uav_hap.tobytes() == uav_hap.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), uav=st.integers(0, 4))
    def test_uav_on_the_hap_rejected(self, seed, uav):
        on_hap = tuple(generate_scenario(self.CONFIG, seed).uavs[uav].tolist())
        config = dataclasses.replace(self.CONFIG, hap_position=on_hap)
        with pytest.raises(ConfigError, match="distance must be > 0"):
            generate_scenario(config, seed)
