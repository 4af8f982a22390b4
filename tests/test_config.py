import json

import pytest

from dro_offload.config import (
    db_to_linear,
    default_config,
    load_config,
    parse_config,
)
from dro_offload.errors import ConfigError


class TestDefaults:
    def test_section_iv_values(self):
        cfg = default_config()
        sc = cfg.scenario
        assert sc.num_tds == 10 and sc.num_uavs == 3
        assert sc.area_size == 10000.0 and sc.uav_altitude == 2000.0
        assert sc.hap_position.to_tuple() == (5000.0, 5000.0, 20000.0)
        assert sc.quota_uav == 4 and sc.quota_hap == 4
        assert sc.radio.ref_gain_td_uav == pytest.approx(1e-6, rel=1e-12)
        assert sc.radio.noise_power == pytest.approx(1e-10, rel=1e-12)
        assert sc.radio.bandwidth_td_uav == 1e6
        assert sc.radio.bandwidth_uav_hap == 2e7
        assert sc.compute.uav_capability == 3e9
        assert sc.compute.hap_capability == 5e10
        assert sc.compute.uav_cycles_per_bit == 270.0
        assert sc.compute.hap_cycles_per_bit == 1100.0
        assert sc.energy.uav_budget == 1e5 and sc.energy.hap_budget == 1e6
        amb = cfg.ambiguity
        assert amb.atoms_mbit == (3.0, 9.0, 15.0, 21.0, 27.0)
        assert amb.history_len == 200 and amb.epsilon == 0.3
        assert cfg.experiment.seeds == tuple(range(1, 21))

    def test_db_conversion(self):
        assert db_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-100.0) == pytest.approx(1e-10, rel=1e-12)

    def test_atoms_converted_to_bits(self):
        space = default_config().ambiguity.sample_space()
        assert space.atoms == (3e6, 9e6, 15e6, 21e6, 27e6)


class TestStrictParsing:
    def test_unknown_keys_rejected_at_every_level(self):
        for bad in (
            {"bogus": 1},
            {"scenario": {"bogus": 1}},
            {"scenario": {"radio": {"bogus": 1}}},
            {"ambiguity": {"bogus": 1}},
            {"experiment": {"bogus": 1}},
        ):
            with pytest.raises(ConfigError, match="unknown"):
                parse_config(bad)

    def test_epsilon_confidence_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config({"ambiguity": {"epsilon": 0.3, "confidence": 0.95}})
        with pytest.raises(ConfigError):
            parse_config({"ambiguity": {"epsilon": None}})
        cfg = parse_config({"ambiguity": {"epsilon": None, "confidence": 0.95}})
        assert cfg.ambiguity.effective_epsilon() == pytest.approx(
            0.06622896708185044, abs=1e-12
        )

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config({"ambiguity": {"epsilon": float("nan")}})

    def test_nonpositive_atom_rejected(self):
        with pytest.raises(ConfigError, match="atoms_mbit"):
            parse_config({"ambiguity": {"atoms_mbit": [0]}})

    def test_categorical_truth(self):
        cfg = parse_config(
            {"ambiguity": {"truth": {"kind": "categorical", "probs": [0.1, 0.1, 0.2, 0.3, 0.3]}}}
        )
        space = cfg.ambiguity.sample_space()
        dist = cfg.ambiguity.truth.distribution(space)
        assert dist.mean(space) > 15e6  # skewed toward big tasks

    def test_bad_truth_kind(self):
        with pytest.raises(ConfigError):
            parse_config({"ambiguity": {"truth": {"kind": "gaussian"}}})

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": {"methods": ["dro", "magic"]}})

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)


class TestHashAndOverrides:
    def test_hash_stable_and_sensitive(self):
        a = default_config()
        b = parse_config({})
        assert a.hash() == b.hash()
        c = parse_config({"ambiguity": {"epsilon": 0.31}})
        assert a.hash() != c.hash()

    def test_round_trip_through_dict(self):
        cfg = default_config()
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again.hash() == cfg.hash()

    def test_overrides(self):
        cfg = default_config()
        assert cfg.with_override("Q", 400).ambiguity.history_len == 400
        assert cfg.with_override("eps", 0.1).ambiguity.epsilon == 0.1
        assert cfg.with_override("quota-hap", 6).scenario.quota_hap == 6
        assert cfg.with_override("quota-uav", 5).scenario.quota_uav == 5
        with pytest.raises(ConfigError):
            cfg.with_override("nope", 1)

    def test_eps_override_clears_confidence(self):
        cfg = parse_config({"ambiguity": {"epsilon": None, "confidence": 0.95}})
        swept = cfg.with_override("eps", 0.2)
        assert swept.ambiguity.epsilon == 0.2
        assert swept.ambiguity.confidence is None
