import json

import pytest

from dro_offload.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, main
from helpers import DIVE_DEAD_END


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"experiment": {"seeds": [1, 2], "methods": ["dro", "do", "ro"]}}),
        encoding="utf-8",
    )
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dro-offload" in capsys.readouterr().out


def test_generate_stdout(cfg_path, capsys):
    assert main(["generate", "--config", str(cfg_path)]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 1
    assert len(data["scenario"]["tds"]) == 10


def test_generate_to_file(cfg_path, tmp_path):
    out = tmp_path / "scenario.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["scenario"]["quota_uav"] == 4


def test_solve_each_method(cfg_path, tmp_path):
    for method, label in (("dro", "MDRLOA"), ("do", "DO"), ("ro", "RO")):
        out = tmp_path / f"{method}.json"
        code = main(
            ["solve", "--config", str(cfg_path), "--seed", "3", "--method", method,
             "--out", str(out)]
        )
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["method"] == label
        assert data["seed"] == 3
        assert data["worst_case_expected_latency_s"] > 0


def test_evaluate_writes_artifacts(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    csv_text = (out / "results.csv").read_text()
    assert csv_text.startswith("method,seed,param_name,param_value")
    assert len(csv_text.splitlines()) == 1 + 2 * 3  # header + seeds x methods
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [1, 2]
    assert len(manifest["config_sha256"]) == 64
    assert "latency vs DO" in (out / "summary.txt").read_text()


def test_sweep_is_byte_identical(cfg_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["sweep", "--config", str(cfg_path), "--param", "eps",
             "--values", "0.1", "0.3", "--out", str(out)]
        )
        assert code == EXIT_OK
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_requires_param(cfg_path, tmp_path, capsys):
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "sweep needs" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}', encoding="utf-8")
    assert main(["evaluate", "--config", str(bad), "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "unknown" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--config", str(missing)]) == EXIT_CONFIG


@pytest.mark.parametrize("method", ["dro", "exhaustive"])
def test_infeasible_exit_3(tmp_path, capsys, method):
    cfg = tmp_path / "infeasible.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": {"num_tds": 3, "num_uavs": 1, "quota_uav": 2},
                "experiment": {"seeds": [1]},
            }
        ),
        encoding="utf-8",
    )
    assert main(["solve", "--config", str(cfg), "--method", method]) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


@pytest.fixture
def dead_end_path(tmp_path):
    path = tmp_path / "dead_end.json"
    path.write_text(json.dumps(DIVE_DEAD_END), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "method, message",
    [("dro", "both children infeasible"), ("exhaustive", "no feasible decision exists")],
)
def test_dive_dead_end_exit_3(dead_end_path, capsys, method, message):
    assert main(["solve", "--config", str(dead_end_path), "--method", method]) == EXIT_INFEASIBLE
    assert message in capsys.readouterr().err


def test_dive_dead_end_is_an_infeasible_row(dead_end_path, tmp_path):
    out = tmp_path / "r"
    assert main(["evaluate", "--config", str(dead_end_path), "--out", str(out)]) == EXIT_OK
    assert (out / "results.csv").read_text().splitlines()[1] == "MDRLOA,34,,,,,,false"


def test_internal_error_exit_4(cfg_path, tmp_path, monkeypatch, capsys):
    import dro_offload.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "compare_methods", boom)
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert code == EXIT_INTERNAL
    assert "synthetic failure" in capsys.readouterr().err


def test_bad_argument_exit_2(cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg_path), "--method", "nope"])
    assert exc.value.code == 2


def test_exhaustive_over_size_limit_exit_2(cfg_path, capsys):
    # the default 10 x 3 instance is past the exhaustive 6 x 3 limit
    assert main(["solve", "--config", str(cfg_path), "--method", "exhaustive"]) == EXIT_CONFIG
    assert "exhaustive search limited" in capsys.readouterr().err


def test_exhaustive_solve_is_exact_and_solves_no_lp(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(
        json.dumps(
            {"scenario": {"num_tds": 4, "num_uavs": 2, "quota_uav": 2}, "experiment": {"seeds": [1]}}
        ),
        encoding="utf-8",
    )
    results = {}
    for method in ("exhaustive", "dro"):
        out = tmp_path / f"{method}.json"
        argv = ["solve", "--config", str(cfg), "--method", method, "--out", str(out)]
        assert main(argv) == EXIT_OK
        results[method] = json.loads(out.read_text())
    exact = results["exhaustive"]
    assert exact["method"] == "EXHAUSTIVE" and exact["lp_solve_count"] == 0
    assert exact["relaxation_bound_s"] == exact["worst_case_expected_latency_s"]
    assert exact["worst_case_expected_latency_s"] <= results["dro"]["worst_case_expected_latency_s"]


def test_negative_seed_exit_2(capsys):
    assert main(["solve", "--seed", "-1"]) == EXIT_CONFIG
    assert "seeds must be >= 0" in capsys.readouterr().err


def test_zero_jobs_exit_2(cfg_path, tmp_path, capsys):
    out = tmp_path / "r"
    argv = ["evaluate", "--config", str(cfg_path), "--jobs", "0", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_zero_bandwidth_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bw.json"
    cfg.write_text(json.dumps({"scenario": {"radio": {"bandwidth_td_uav_hz": 0}}}), encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--seed", "1"]) == EXIT_CONFIG
    assert "bandwidth_td_uav must be > 0" in capsys.readouterr().err


def test_sweep_non_integral_quota_exit_2(cfg_path, tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["sweep", "--config", str(cfg_path), "--param", "quota-uav", "--values", "4", "4.9"]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert "scenario.quota_uav must be an integer, got 4.9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ({"scenario": {"compute": {"uav_capability_cps": 1e308}}}, "uav_capability_cps"),
        ({"scenario": {"compute": {"hap_capability_cps": 1e308}}}, "hap_capability_cps"),
        ({"ambiguity": {"epsilon": None, "confidence": 1.5}}, "ambiguity.confidence"),
        ({"scenario": {"num_tds": 1e20}}, "scenario.num_tds"),
        ({"scenario": {"num_uavs": 1e19}}, "scenario.num_uavs"),
        ({"ambiguity": {"history_len": 1e20}}, "ambiguity.history_len"),
        (
            {"ambiguity": {"truth": {"kind": "categorical", "probs": [0.2, 0.3, 0.5]}}},
            "ambiguity.truth.probs",
        ),
    ],
)
def test_out_of_range_config_exit_2_on_every_command(tmp_path, capsys, config, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    for argv in (["generate"], ["solve", "--seed", "1"]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def test_sizes_that_overflow_p2_exit_2(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    config = {
        "scenario": {"compute": {"uav_capability_cps": 1e-6}},
        "ambiguity": {"atoms_mbit": [3, 9, 1e295]},
    }
    cfg.write_text(json.dumps(config), encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["solve", "--config", str(cfg), "--seed", "1"]) == EXIT_CONFIG
    assert "objective, constraint coefficients and rhs must be finite" in capsys.readouterr().err
