import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dro_offload.config import (
    METHODS,
    SWEEP_PARAMS,
    db_to_linear,
    default_config,
    load_config,
    parse_config,
)
from dro_offload.errors import ConfigError

# (config file text, dotted path of the field the error must name)
MALFORMED = [
    ('{"scenario": {"num_tds": "x"}}', "scenario.num_tds"),
    ('{"scenario": {"hap_position_m": [1, 2]}}', "scenario.hap_position_m"),
    ('{"experiment": {"seeds": 5}}', "experiment.seeds"),
    ('{"experiment": {"sweep_values": 5}}', "experiment.sweep_values"),
    ('{"scenario": {"radio": null}}', "scenario.radio"),
    ('{"scenario": {"radio": {"bandwidth_td_uav_hz": "1e6"}}}', "scenario.radio.bandwidth_td_uav_hz"),
    ('{"scenario": {"radio": {"noise_power_db": "x"}}}', "scenario.radio.noise_power_db"),
    ('{"scenario": {"radio": {"noise_power_db": 4000}}}', "scenario.radio.noise_power_db"),
    ('{"scenario": {"area_size_m": 1e999}}', "scenario.area_size_m"),
    pytest.param(
        '{"scenario": {"area_size_m": 1' + "0" * 400 + "}}",
        "scenario.area_size_m",
        id="area_size_m-past-float-range",
    ),
    (
        '{"ambiguity": {"truth": {"kind": "categorical", "probs": [NaN, 0.5, 0.5, 0, 0]}}}',
        "ambiguity.truth.probs",
    ),
    ('{"scenario": []}', "scenario"),
    ('{"scenario": {"radio": []}}', "scenario.radio"),
    ('{"ambiguity": {"atoms_mbit": "3"}}', "ambiguity.atoms_mbit"),
    ('{"ambiguity": {"per_device_history": "false"}}', "ambiguity.per_device_history"),
    ('{"ambiguity": {"history_len": 30.9}}', "ambiguity.history_len"),
    ('{"ambiguity": {"history_len": "30"}}', "ambiguity.history_len"),
    ('{"experiment": {"jobs": 1.5}}', "experiment.jobs"),
    ('{"experiment": {"seeds": [1.7]}}', "experiment.seeds"),
    ('{"scenario": {"num_uavs": 3.9}}', "scenario.num_uavs"),
    ('{"scenario": {"quota_uav": 2.7}}', "scenario.quota_uav"),
    ('{"scenario": {"quota_uav": true}}', "scenario.quota_uav"),
    ('{"ambiguity": {"epsilon": null, "confidence": 1.5}}', "ambiguity.confidence"),
    (
        '{"ambiguity": {"truth": {"kind": "categorical", "probs": [0.2, 0.3, 0.5]}}}',
        "ambiguity.truth.probs",
    ),
    (
        '{"ambiguity": {"truth": {"kind": "categorical", "probs": [1, 1, 1, 1, 1]}}}',
        "ambiguity.truth.probs",
    ),
    (
        '{"ambiguity": {"truth": {"kind": "uniform", "probs": [0.1, 0.9]}}}',
        "ambiguity.truth.probs",
    ),
    (
        '{"scenario": {"compute": {"uav_capability_cps": 1e308}}}',
        "scenario.compute.uav_capability_cps",
    ),
    (
        '{"scenario": {"compute": {"hap_capability_cps": 1e308}}}',
        "scenario.compute.hap_capability_cps",
    ),
    (
        '{"ambiguity": {"truth": {"kind": "categorical", "probs": [-1e-10, 0.5, 0.5000000001, 0, 0]}}}',
        "ambiguity.truth.probs",
    ),
    ('{"experiment": {"methods": []}}', "experiment.methods"),
    ('{"experiment": {"methods": ["dro", "dro"]}}', "experiment.methods"),
    ('{"scenario": {"quota_uav": -1}}', "scenario.quota_uav"),
    ('{"scenario": {"quota_hap": -1}}', "scenario.quota_hap"),
    ('{"scenario": {"hap_position_m": [5000, 5000, -1]}}', "scenario.hap_position_m"),
    ('{"scenario": {"num_tds": 0}}', "scenario.num_tds"),
    ('{"scenario": {"num_uavs": 0}}', "scenario.num_uavs"),
    ('{"scenario": {"area_size_m": 0}}', "scenario.area_size_m"),
    ('{"scenario": {"uav_altitude_m": 0}}', "scenario.uav_altitude_m"),
    ('{"ambiguity": {"history_len": 0}}', "ambiguity.history_len"),
    ('{"experiment": {"jobs": 0}}', "experiment.jobs"),
    ('{"experiment": {"seeds": []}}', "experiment.seeds"),
    ('{"experiment": {"methods": ["dro", "foo"]}}', "experiment.methods"),
    ('{"experiment": {"sweep_param": "foo"}}', "experiment.sweep_param"),
]


class TestDefaults:
    def test_section_iv_values(self):
        cfg = default_config()
        sc = cfg.scenario
        assert sc.num_tds == 10 and sc.num_uavs == 3
        assert sc.area_size == 10000.0 and sc.uav_altitude == 2000.0
        assert sc.hap_position == (5000.0, 5000.0, 20000.0)
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
        space = default_config().ambiguity.space
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

    @pytest.mark.parametrize("text, path", MALFORMED)
    def test_malformed_field_is_named(self, text, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}(\[\d+\])? (must|is)"):
            parse_config(json.loads(text))

    def test_integral_floats_read_as_integers(self):
        cfg = parse_config({"scenario": {"quota_uav": 4.0}, "experiment": {"seeds": [2.0]}})
        assert cfg.scenario.quota_uav == 4 and isinstance(cfg.scenario.quota_uav, int)
        assert cfg.experiment.seeds == (2,) and isinstance(cfg.experiment.seeds[0], int)

    def test_integer_probs_read_as_floats(self):
        cfg = parse_config({"ambiguity": {"truth": {"kind": "categorical", "probs": [0, 0, 1, 0, 0]}}})
        assert all(type(p) is float for p in cfg.ambiguity.truth.probs)

    def test_categorical_truth(self):
        cfg = parse_config(
            {"ambiguity": {"truth": {"kind": "categorical", "probs": [0.1, 0.1, 0.2, 0.3, 0.3]}}}
        )
        amb = cfg.ambiguity
        assert amb.truth_distribution.probs == (0.1, 0.1, 0.2, 0.3, 0.3)
        assert np.dot(amb.truth_distribution.probs, amb.space.atoms) > 15e6  # big tasks

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
        # bad syntax, an integer literal over 4300 digits, bad UTF-8
        for raw in (b"{nope", b"1" * 5000, b'{"scenario": "\xff"}'):
            path.write_bytes(raw)
            with pytest.raises(ConfigError, match="not valid JSON"):
                load_config(path)


def _block(**fields):
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def _ambiguity_block(draw):
    """Ambiguity overrides; a categorical truth gets one probability per atom, summing to 1."""
    block = draw(
        _block(
            atoms_mbit=st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True).map(
                lambda quarters: [q / 4 for q in sorted(quarters)]
            ),
            history_len=st.integers(1, 10**4),
            epsilon=st.floats(0.0, 2.0),
            per_device_history=st.booleans(),
        )
    )
    if draw(st.booleans()):
        num_atoms = len(block.get("atoms_mbit", default_config().ambiguity.atoms_mbit))
        weights = draw(
            st.lists(st.floats(0.0, 1.0), min_size=num_atoms, max_size=num_atoms).filter(any)
        )
        block["truth"] = {"kind": "categorical", "probs": [w / sum(weights) for w in weights]}
    return block


_DB = st.floats(-150.0, 30.0)
_POSITIVE = st.floats(1e-3, 1e12)
_OVERRIDES = _block(
    scenario=_block(
        num_tds=st.integers(1, 100),
        num_uavs=st.integers(1, 20),
        area_size_m=_POSITIVE,
        uav_altitude_m=_POSITIVE,
        hap_position_m=st.lists(st.floats(0.0, 1e5), min_size=3, max_size=3),
        quota_uav=st.integers(0, 50),
        quota_hap=st.integers(0, 50),
        radio=_block(
            ref_gain_td_uav_db=_DB,
            ref_gain_uav_hap_db=_DB,
            bandwidth_td_uav_hz=_POSITIVE,
            bandwidth_uav_hap_hz=_POSITIVE,
            noise_power_db=_DB,
            tx_power_td_w=_POSITIVE,
            tx_power_uav_w=_POSITIVE,
        ),
        compute=_block(
            uav_capability_cps=_POSITIVE,
            hap_capability_cps=_POSITIVE,
            uav_cycles_per_bit=_POSITIVE,
            hap_cycles_per_bit=_POSITIVE,
        ),
        energy=_block(
            uav_chip_coeff=st.floats(0.0, 1e-20),
            hap_chip_coeff=st.floats(0.0, 1e-20),
            uav_budget_j=_POSITIVE,
            hap_budget_j=_POSITIVE,
            uav_relay_power_w=_POSITIVE,
        ),
    ),
    ambiguity=_ambiguity_block(),
    experiment=_block(
        seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=5),
        methods=st.lists(st.sampled_from(METHODS), min_size=1, max_size=4, unique=True),
        jobs=st.integers(1, 64),
        sweep_param=st.none() | st.sampled_from(SWEEP_PARAMS),
        sweep_values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    ),
)


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

    def test_overrides_use_the_field_kind(self):
        cfg = default_config()
        assert cfg.with_override("Q", 30.0).ambiguity.history_len == 30
        with pytest.raises(ConfigError, match="ambiguity.history_len must be an integer"):
            cfg.with_override("Q", 30.9)
        with pytest.raises(ConfigError, match="scenario.quota_uav must be an integer"):
            cfg.with_override("quota-uav", 4.9)
        with pytest.raises(ConfigError, match="^scenario.quota_hap must be >= 0"):
            cfg.with_override("quota-hap", -1)
        with pytest.raises(ConfigError, match="^ambiguity.history_len must be >= 1"):
            cfg.with_override("Q", 0)
        with pytest.raises(ConfigError, match="ambiguity.epsilon must be a finite number"):
            cfg.with_override("eps", float("nan"))

    def test_db_round_trip_keeps_hash(self):
        # 10*log10(10**0.3) is 2.999999999999999, which parses and dumps
        # again as 2.9999999999999987
        cfg = parse_config({"scenario": {"radio": {"ref_gain_td_uav_db": 3}}})
        assert cfg.to_dict()["scenario"]["radio"]["ref_gain_td_uav_db"] == 3.0
        assert parse_config(cfg.to_dict()).hash() == cfg.hash()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(overrides=_OVERRIDES)
    def test_round_trip_through_dict_keeps_hash(self, overrides):
        cfg = parse_config(overrides)
        again = parse_config(json.loads(json.dumps(cfg.to_dict())))
        assert again.hash() == cfg.hash()

    def test_derived_space_and_truth_follow_every_rebuild(self):
        cfg = default_config()
        keys = {"atoms_mbit", "history_len", "epsilon", "confidence", "truth", "per_device_history"}
        assert set(cfg.to_dict()["ambiguity"]) == keys
        assert cfg.hash() == "1a8a97bc2f243e4b8a0e6f27fd58a51d1b92fcba92fb568394eee872151f7935"
        amb = dataclasses.replace(cfg.ambiguity, atoms_mbit=(1.0, 2.0))
        assert amb.space.atoms == (1e6, 2e6) and amb.truth_distribution.probs == (0.5, 0.5)
        swept = cfg.with_override("Q", 30).ambiguity
        assert swept.history_len == 30 and swept.space == cfg.ambiguity.space
        assert swept.truth_distribution == cfg.ambiguity.truth_distribution

    def test_eps_override_clears_confidence(self):
        cfg = parse_config({"ambiguity": {"epsilon": None, "confidence": 0.95}})
        swept = cfg.with_override("eps", 0.2)
        assert swept.ambiguity.epsilon == 0.2
        assert swept.ambiguity.confidence is None
