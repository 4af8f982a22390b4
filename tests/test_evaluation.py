import concurrent.futures
import dataclasses
import math

import pytest

import dro_offload
from dro_offload import evaluation, geometry, mdrloa, model
from dro_offload.config import METHODS, default_config, parse_config
from dro_offload.errors import ConfigError
from dro_offload.evaluation import (
    CSV_COLUMNS,
    EvaluationReport,
    build_ambiguity_sets,
    compare_methods,
    draw_realization,
    evaluate_seed,
    solve_with_method,
    sweep,
)
from dro_offload.geometry import generate_scenario
from dro_offload.mdrloa import mdrloa_solve
from helpers import choice_history, empirical_distribution, expected_energy, expected_latency


def _cfg(**experiment):
    base = default_config()
    exp = {"seeds": (1, 2), **experiment}
    return dataclasses.replace(
        base, experiment=dataclasses.replace(base.experiment, **exp)
    )


class TestInstanceGeneration:
    def test_shared_history_shares_reference(self):
        cfg = default_config()
        amb = build_ambiguity_sets(cfg, 1)
        assert amb.references.shape == (10, 5)
        assert amb.references.strides[0] == 0  # one stored row, spread to every TD
        truth, space = cfg.ambiguity.truth_distribution, cfg.ambiguity.space
        want = empirical_distribution(choice_history(truth, space, 200, [1, 0x415]), space)
        assert all(tuple(row) == want.probs for row in amb.references)

    def test_per_device_histories_differ(self):
        cfg = default_config()
        cfg = dataclasses.replace(
            cfg, ambiguity=dataclasses.replace(cfg.ambiguity, per_device_history=True)
        )
        amb = build_ambiguity_sets(cfg, 1)
        assert len({tuple(row) for row in amb.references}) > 1
        truth, space = cfg.ambiguity.truth_distribution, cfg.ambiguity.space
        for i, row in enumerate(amb.references):
            hist = choice_history(truth, space, 200, [1, 0x415, i])
            assert tuple(row) == empirical_distribution(hist, space).probs

    def test_confidence_path_sets_radius(self):
        cfg = default_config()
        cfg = dataclasses.replace(
            cfg,
            ambiguity=dataclasses.replace(cfg.ambiguity, epsilon=None, confidence=0.95),
        )
        amb = build_ambiguity_sets(cfg, 1)
        assert amb.radius == pytest.approx(0.06622896708185044, abs=1e-12)

    def test_realization_deterministic_atoms(self):
        cfg = default_config()
        a = draw_realization(cfg, 5)
        b = draw_realization(cfg, 5)
        assert (a == b).all()
        atoms = set(cfg.ambiguity.space.atoms)
        assert set(a.tolist()) <= atoms
        assert a.shape == (10,)


class TestRealizedMetrics:
    def test_point_mass_equivalence(self):
        # a row scores its decision at the drawn sizes, i.e. the expectation under point masses
        cfg = default_config()
        scenario = generate_scenario(cfg.scenario, 1)
        sizes = draw_realization(cfg, 1)
        decision = mdrloa_solve(scenario, build_ambiguity_sets(cfg, 1)).decision
        row = evaluate_seed(cfg, 1)[0]
        assert row.method == "MDRLOA"
        assert row.realized_latency == pytest.approx(
            expected_latency(decision, scenario, sizes), rel=1e-15
        )
        en = cfg.scenario.energy
        uav, hap = expected_energy(decision, scenario, sizes)
        assert row.hap_energy == hap - en.hap_basic
        assert row.max_uav_energy == uav.max() - en.uav_basic


class TestEvaluateSeed:
    def test_one_row_per_method(self):
        rows = evaluate_seed(default_config(), 1)
        assert [r.method for r in rows] == ["MDRLOA", "DO", "RO"]
        for r in rows:
            assert r.feasible
            assert r.seed == 1
            assert r.realized_latency > 0

    def test_each_method_goes_through_its_module_name(self, small_cfg, monkeypatch):
        # the benchmark's tracer wraps these names where evaluation looks them up
        calls = []

        def counting(name, original):
            def wrapper(scenario, *args):
                calls.append(name)
                return original(scenario, *args)

            return wrapper

        for name in ("mdrloa_solve", "do_solve", "ro_solve"):
            monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
        evaluate_seed(small_cfg, 1)
        assert sorted(calls) == ["do_solve", "mdrloa_solve", "ro_solve"]

    def test_per_bit_costs_are_computed_once_per_seed(self, monkeypatch):
        # dro, do, ro and the realized P2 all read the costs the seed's scenario derived
        computed = []
        compute = geometry._per_bit_costs
        monkeypatch.setattr(
            geometry, "_per_bit_costs", lambda sc: computed.append(compute(sc)) or computed[-1]
        )
        reads = []
        build = model.build_p2

        def reading(scenario, mean_sizes):
            reads.append(scenario.coeffs)
            return build(scenario, mean_sizes)

        for module in (mdrloa, evaluation):
            monkeypatch.setattr(module, "build_p2", reading)
        cfg = _cfg(seeds=(1,))
        assert len(evaluate_seed(cfg, 1)) == len(cfg.experiment.methods) == 3
        assert len(computed) == 1 and len(reads) == 4
        assert all(coeffs is computed[0] for coeffs in reads)

    def test_infeasible_recorded_not_raised(self):
        cfg = parse_config(
            {
                "scenario": {"num_tds": 3, "num_uavs": 1, "quota_uav": 2},
                "experiment": {"seeds": [1]},
            }
        )
        rows = evaluate_seed(cfg, 1)
        assert len(rows) == 3
        for r in rows:
            assert not r.feasible
            assert math.isnan(r.realized_latency)


def test_unknown_method_is_a_config_error():
    cfg = default_config()
    scenario = generate_scenario(cfg.scenario, 1)
    with pytest.raises(ConfigError, match="unknown method 'nope'") as exc:
        solve_with_method("nope", scenario, build_ambiguity_sets(cfg, 1))
    assert str(METHODS) in str(exc.value)


class TestReport:
    def test_csv_header_and_determinism(self):
        cfg = _cfg()
        a = compare_methods(cfg)
        b = compare_methods(cfg)
        assert a.to_csv() == b.to_csv()
        header = a.to_csv().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_rows_sorted_by_seed_then_method(self):
        rows = compare_methods(_cfg()).sorted_rows()
        keys = [(r.seed, r.method) for r in rows]
        assert keys == [
            (1, "MDRLOA"),
            (1, "DO"),
            (1, "RO"),
            (2, "MDRLOA"),
            (2, "DO"),
            (2, "RO"),
        ]

    def test_parallel_matches_serial(self):
        serial = compare_methods(_cfg(jobs=1))
        parallel = compare_methods(_cfg(jobs=2))
        assert serial.to_csv() == parallel.to_csv()

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        csv = compare_methods(_cfg(jobs=64)).to_csv()
        assert pools == [2]  # two seeds
        assert csv == compare_methods(_cfg(jobs=1)).to_csv()

    def test_csv_file_round_trip(self, tmp_path):
        report = compare_methods(_cfg())
        path = tmp_path / "results.csv"
        report.write_csv(path)
        assert path.read_text(encoding="utf-8") == report.to_csv()

    def test_summary_headlines(self):
        text = compare_methods(_cfg()).summary()
        assert "latency vs DO" in text
        assert "energy vs RO" in text
        assert "MDRLOA" in text

    def test_aggregates_counts(self):
        agg = compare_methods(_cfg()).aggregates()
        per_method = agg[("", None)]
        assert per_method["MDRLOA"]["count"] == 2
        assert per_method["MDRLOA"]["solved"] == 2

    def test_empty_report_serializes(self):
        report = EvaluationReport(rows=())
        assert report.to_csv().splitlines() == [",".join(CSV_COLUMNS)]


class TestSweep:
    def test_param_columns_filled(self):
        report = sweep(_cfg(methods=("dro",)), "eps", [0.1, 0.3])
        values = {(r.param_name, r.param_value) for r in report.rows}
        assert values == {("eps", 0.1), ("eps", 0.3)}

    def test_q_sweep_with_confidence_rederives_radius(self):
        cfg = _cfg(methods=("dro",))
        cfg = dataclasses.replace(
            cfg, ambiguity=dataclasses.replace(cfg.ambiguity, epsilon=None, confidence=0.95)
        )
        radii = []
        for q in (50, 400):
            radii.append(build_ambiguity_sets(cfg.with_override("Q", q), 1).radius)
        assert radii[0] > radii[1]  # more history shrinks the ball

    def test_quota_sweep_changes_scenario(self):
        cfg = _cfg(methods=("dro",))
        report = sweep(cfg, "quota-hap", [2, 6])
        assert all(r.feasible for r in report.rows)

    def test_parallel_matches_serial(self):
        serial = sweep(_cfg(methods=("dro", "do")), "eps", [0.1, 0.5])
        parallel = sweep(_cfg(methods=("dro", "do"), jobs=2), "eps", [0.1, 0.5])
        assert serial.to_csv() == parallel.to_csv()

    def test_byte_identical_reruns(self):
        cfg = _cfg(methods=("dro", "do"))
        a = sweep(cfg, "eps", [0.1, 0.5]).to_csv()
        b = sweep(cfg, "eps", [0.1, 0.5]).to_csv()
        assert a.encode() == b.encode()


def test_every_public_name_resolves():
    missing = [name for name in dro_offload.__all__ if not hasattr(dro_offload, name)]
    assert missing == []
