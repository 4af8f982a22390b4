import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dro_offload.config import default_config
from dro_offload.errors import ConfigError
from dro_offload.geometry import (
    Position3D,
    channel_gain,
    euclidean_distance,
    generate_scenario,
    link_rate,
    per_bit_coefficients,
)
from helpers import link_rates_per_link


def _default_scenario(seed=1):
    return generate_scenario(default_config().scenario, seed)


class TestDistanceAndGain:
    def test_345_triangle(self):
        assert euclidean_distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == 5.0

    def test_corner_distance(self):
        d = euclidean_distance(Position3D(0, 0, 0), Position3D(10000, 10000, 2000))
        assert d == pytest.approx(14282.8568570857, abs=1e-9)

    def test_gain_inverse_square(self):
        assert channel_gain(1e-6, 1000.0) == pytest.approx(1e-12, rel=1e-15)

    def test_gain_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigError):
            channel_gain(1e-6, 0.0)

    @given(
        d1=st.floats(min_value=1.0, max_value=1e6),
        factor=st.floats(min_value=1.001, max_value=100.0),
    )
    def test_gain_decreases_with_distance(self, d1, factor):
        assert channel_gain(1e-6, d1 * factor) < channel_gain(1e-6, d1)


class TestLinkRate:
    def test_overhead_td_rate(self):
        # TD directly under a UAV at 2 km with section-IV radio defaults
        g = channel_gain(1e-6, 2000.0)
        assert link_rate(1e6, 0.5, g, 1e-10) == pytest.approx(1802.242633985384, rel=1e-12)

    def test_corner_td_rate(self):
        g = channel_gain(1e-6, 14282.8568570857)
        assert link_rate(1e6, 0.5, g, 1e-10) == pytest.approx(35.35973924240811, rel=1e-9)

    def test_uav_hap_rate(self):
        g = channel_gain(1e-6, 18000.0)
        assert link_rate(2e7, 10.0, g, 1e-10) == pytest.approx(8904.150917069082, rel=1e-12)

    def test_zero_gain_zero_rate(self):
        assert link_rate(1e6, 0.5, 0.0, 1e-10) == 0.0

    def test_invalid_inputs(self):
        for kwargs in (
            dict(bandwidth=0.0, tx_power=1, gain=1, noise=1),
            dict(bandwidth=1, tx_power=0.0, gain=1, noise=1),
            dict(bandwidth=1, tx_power=1, gain=-1.0, noise=1),
            dict(bandwidth=1, tx_power=1, gain=1, noise=0.0),
        ):
            with pytest.raises(ConfigError):
                link_rate(**kwargs)

    @given(p=st.floats(min_value=0.01, max_value=100.0))
    def test_rate_increases_with_power(self, p):
        g, n = 1e-10, 1e-10
        assert link_rate(1e6, 2 * p, g, n) > link_rate(1e6, p, g, n)


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
        with pytest.raises(ValueError):
            sc.rate_td_uav[0, 0] = 1.0

    def test_round_trip_dict(self):
        # `generate` prints to_dict(); it must survive JSON without loss
        sc = _default_scenario()
        data = json.loads(json.dumps(sc.to_dict()))
        np.testing.assert_array_equal(data["rate_td_uav"], sc.rate_td_uav)
        assert [tuple(p) for p in data["tds"]] == [p.to_tuple() for p in sc.tds]
        assert data["energy"] == vars(sc.energy)

    def test_generation_is_deterministic(self):
        cfg = default_config().scenario
        a = generate_scenario(cfg, 42)
        b = generate_scenario(cfg, 42)
        c = generate_scenario(cfg, 43)
        assert a.tds == b.tds and a.uavs == b.uavs
        assert a.tds != c.tds

    def test_positions_inside_area(self):
        cfg = default_config().scenario
        sc = generate_scenario(cfg, 5)
        for p in sc.tds:
            assert 0 <= p.x <= cfg.area_size and 0 <= p.y <= cfg.area_size
            assert p.z == 0.0
        for p in sc.uavs:
            assert p.z == cfg.uav_altitude

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            Position3D(0, 0, -1)
        with pytest.raises(ConfigError):
            Position3D(math.nan, 0, 0)


class TestOnePassRates:
    """`generate_scenario` computes every link in one pass over Python floats; its
    rates equal `link_rate(channel_gain(euclidean_distance))` link by link."""

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
        on_hap = generate_scenario(self.CONFIG, seed).uavs[uav]
        config = dataclasses.replace(self.CONFIG, hap_position=on_hap)
        with pytest.raises(ConfigError, match="distance must be > 0"):
            generate_scenario(config, seed)
