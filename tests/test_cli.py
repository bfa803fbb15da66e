import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qsysid.models
from qsysid import symplectic_basis
from qsysid.cli import COMMANDS, ConfigError, format_report, job_to_dict, main, parse_config, run

TWO_LEVEL = {"preset": "two-level", "params": {"alpha": 1.0, "delta": 0.0, "omega": 1.0, "theta": 0.0}}
# base (h, l) of the one-parameter presets, with mixed number / [re, im] entries
ONE_PARAM_BASE = {"h": [[0, [0.5, 0]], [[0.5, 0], 0]], "l": [[0, [1, 0]], [0, 0]]}
EXPLICIT_QFI = {
    "command": "qfi",
    "model": {"matrices": {"h": ONE_PARAM_BASE["h"], "ls": [ONE_PARAM_BASE["l"]]}},
    "tangents": [{"dh": [[0, 0], [0, 0]], "dls": [[[0, [1, 0]], [0, 0]]]}],
    "options": {"convention": "metric"},
}
# one config per command, as the tests below run them (overrides of make_config)
COMMAND_CONFIGS = {
    "info": {},
    "qfi": EXPLICIT_QFI,
    "decompose": {"command": "decompose"},
    "connection": {"command": "connection"},
    "symplectic": {
        "command": "symplectic",
        "model": {"preset": "coupling", "params": ONE_PARAM_BASE},
        "options": {"complete_with_j": True},
    },
    "lan-check": {"command": "lan-check", "options": {"convention": "metric", "t_grid": [20.0, 40.0]}},
    "equiv-check": {"command": "equiv-check", "model2": TWO_LEVEL},
    "cov-converge": {"command": "cov-converge", "options": {"t_grid": [10.0, 30.0], "quad_steps": 100}},
    "output-overlap": {"command": "output-overlap", "model2": TWO_LEVEL, "options": {"t_grid": [1.0, 10.0]}},
}
DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def make_config(**overrides):
    cfg = {"command": "info", "model": dict(TWO_LEVEL)}
    cfg.update(overrides)
    return json.dumps(cfg)


class TestParseConfig:
    def test_minimal_with_defaults(self):
        job = parse_config(make_config())
        assert job.command == "info"
        assert job.tangents == "physical"
        assert job.options == {}

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(make_config(command="frobnicate"))

    def test_model_source_exclusive(self):
        bad = {"preset": "two-level", "matrices": {"h": [[0]], "ls": []}}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(make_config(model=bad))

    def test_non_hermitian_matrix_named(self):
        bad = {"matrices": {"h": [[0, [0, 1]], [0, 0]], "ls": [[[0, 0], [0, 0]]]}}
        with pytest.raises(ConfigError, match="model.matrices.h"):
            parse_config(make_config(model=bad))

    def test_missing_convention_for_qfi(self):
        with pytest.raises(ConfigError, match="convention"):
            parse_config(make_config(command="qfi"))

    def test_model2_requirements(self):
        with pytest.raises(ConfigError, match="model2"):
            parse_config(make_config(command="equiv-check"))
        with pytest.raises(ConfigError, match="model2"):
            parse_config(make_config(model2=dict(TWO_LEVEL)))

    def test_bad_t_grid(self):
        with pytest.raises(ConfigError, match="t_grid"):
            parse_config(make_config(options={"t_grid": [0.0]}))

    def test_roundtrip_stability(self):
        assert set(COMMAND_CONFIGS) == set(COMMANDS)
        for overrides in COMMAND_CONFIGS.values():
            once = json.dumps(job_to_dict(parse_config(make_config(**overrides))))
            twice = json.dumps(job_to_dict(parse_config(once)))
            assert once == twice

    @pytest.mark.parametrize("entry", ["1", [1.0, 2.0, 3.0]])
    def test_malformed_entry_named(self, entry):
        cfg = json.loads(make_config(**EXPLICIT_QFI))
        tangent = cfg["tangents"][0]
        cfg["tangents"] = [tangent, {"dh": tangent["dh"], "dls": [[[0, 0], [0, entry]]]}]
        with pytest.raises(ConfigError, match=r"tangents\[1\]\.dls\[0\]\[1\]\[1\]"):
            parse_config(json.dumps(cfg))

    def test_ragged_matrix_is_config_error(self):
        cfg = json.loads(make_config(**EXPLICIT_QFI))
        cfg["tangents"][0]["dls"] = [[[0, 0], [0]]]
        with pytest.raises(ConfigError, match=r"tangents\[0\]\.dls\[0\]: rows of unequal length"):
            parse_config(json.dumps(cfg))

    def test_preset_base_matrix_checked_at_parse(self):
        model = {"preset": "phase", "params": {**ONE_PARAM_BASE, "h": [[0, "x"], [0, 0]]}}
        with pytest.raises(ConfigError, match=r"model\.params\.h\[0\]\[1\]"):
            parse_config(make_config(command="qfi", model=model, options={"convention": "metric"}))
        with pytest.raises(ConfigError, match="needs base matrices"):
            parse_config(make_config(model={"preset": "phase", "params": {"l": ONE_PARAM_BASE["l"]}}))


class TestRun:
    def test_info_reports_stationary_state(self):
        report = run(parse_config(make_config()))
        res = report["result"]
        assert res["ergodic"] is True
        rho = np.array([[complex(*z) for z in row] for row in res["stationary"]])
        assert np.max(np.abs(rho - np.array([[2 / 3, 1j / 3], [-1j / 3, 1 / 3]]))) < 1e-10
        # defaults are echoed; tol None means module defaults
        assert report["effective_config"]["options"]["tol"] is None
        assert report["effective_config"]["options"]["t_grid"] == [50.0, 100.0, 200.0, 400.0]

    def test_qfi_metric_diagonal(self):
        job = parse_config(make_config(command="qfi", options={"convention": "metric"}))
        res = run(job)["result"]
        diag = np.diagonal(np.array(res["matrix"]))
        assert np.allclose(diag, [2 / 9, 1.0, 1 / 3, 1 / 9], atol=1e-10)
        assert res["labels"] == ["delta", "omega", "alpha", "theta"]

    def test_connection_command(self):
        job = parse_config(make_config(command="connection"))
        res = run(job)["result"]
        alpha_entry = res["components"][2]
        assert alpha_entry["label"] == "alpha"
        assert abs(alpha_entry["r"]) < 1e-12

    def test_decompose_residuals(self):
        job = parse_config(make_config(command="decompose"))
        res = run(job)["result"]
        assert all(e["residual_e_norm"] < 1e-10 for e in res["components"])

    def test_symplectic_command(self):
        job = parse_config(make_config(command="symplectic"))
        res = run(job)["result"]
        f = np.array(res["f"])
        assert np.allclose(np.diagonal(f), [1 / 3, 3.0, 2 / 3, 1.5], atol=1e-10)

    def test_equiv_check(self):
        job = parse_config(make_config(**COMMAND_CONFIGS["equiv-check"]))
        res = run(job)["result"]
        assert res["found"] is True
        assert abs(res["r"]) < 1e-8

    def test_output_overlap_series(self):
        job = parse_config(make_config(**COMMAND_CONFIGS["output-overlap"]))
        res = run(job)["result"]
        assert len(res["values"]) == 2
        assert res["values"][0] > res["values"][1] > 0.6

    def test_cov_converge_series(self):
        job = parse_config(make_config(**COMMAND_CONFIGS["cov-converge"]))
        res = run(job)["result"]
        alpha_series = res["series"][2]
        assert alpha_series["label"] == "alpha"
        assert alpha_series["errors"][1] < alpha_series["errors"][0]

    def test_lan_check(self):
        job = parse_config(make_config(**COMMAND_CONFIGS["lan-check"]))
        res = run(job)["result"]
        assert len(res["finite_overlaps"]) == 2
        assert res["errors"][1] < res["errors"][0]

    def test_determinism(self):
        text = make_config(command="qfi", options={"convention": "metric"})
        a = json.dumps(run(parse_config(text)))
        b = json.dumps(run(parse_config(text)))
        assert a == b

    def test_symplectic_one_param_with_completion(self):
        res = run(parse_config(make_config(**COMMAND_CONFIGS["symplectic"])))["result"]
        assert res["dim_id"] == 2
        assert np.allclose(res["sigma"], [[0, -1], [1, 0]], atol=1e-8)

    def test_named_tangents_require_zero_v(self):
        model = {"preset": "two-level", "params": {"alpha": 1.0, "delta": 0.0, "omega": 1.0, "v": [0.1, 0, 0]}}
        job = parse_config(make_config(command="qfi", model=model, options={"convention": "metric"}))
        with pytest.raises(ConfigError, match="v = 0"):
            run(job)

    def test_one_parameter_presets(self):
        for name, expected in (("coupling", 1 / 3), ("phase", None), ("hamiltonian", None)):
            cfg = {
                "command": "qfi",
                "model": {"preset": name, "params": dict(ONE_PARAM_BASE)},
                "options": {"convention": "metric"},
            }
            res = run(parse_config(json.dumps(cfg)))["result"]
            assert res["labels"] == [name]
            value = res["matrix"][0][0]
            assert value > 0
            if expected is not None:
                assert value == pytest.approx(expected, abs=1e-10)

    def test_one_parameter_preset_realised_once(self):
        cfg = {"command": "qfi", "model": {"preset": "phase", "params": ONE_PARAM_BASE}, "options": {"convention": "metric"}}
        with mock.patch.object(
            qsysid.models, "one_param_presets", wraps=qsysid.models.one_param_presets
        ) as presets:
            report = run(parse_config(json.dumps(cfg)))
        assert presets.call_count == 1
        assert report["result"]["labels"] == ["phase"]
        # the base matrices are echoed as [re, im] float pairs
        assert report["effective_config"]["model"]["params"]["h"] == [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]

    def test_symplectic_default_builds_no_physical_tangents(self):
        # the two-level default is the canonical basis; the physical set is not built
        with mock.patch.object(
            qsysid.models, "two_level_tangents", wraps=qsysid.models.two_level_tangents
        ) as tangents:
            report = run(parse_config(make_config(command="symplectic")))
        assert tangents.call_count == 0
        assert report["effective_config"]["tangents"] == "physical"
        res = report["result"]
        assert res["labels"] == ["q1", "p1", "q2", "p2"]
        p = qsysid.models.TwoLevelParams(**TWO_LEVEL["params"])
        model = symplectic_basis(qsysid.models.two_level(p), qsysid.models.two_level_symplectic_basis(p), "metric")
        assert np.array_equal(res["f"], model.f)
        assert np.array_equal(res["sigma"], model.sigma)

    def test_explicit_matrices_and_tangents(self):
        cfg = dict(EXPLICIT_QFI)
        res = run(parse_config(json.dumps(cfg)))["result"]
        assert np.allclose(res["matrix"], [[1 / 3]], atol=1e-10)
        cfg["tangents"] = []
        assert run(parse_config(json.dumps(cfg)))["result"]["matrix"] == []


class TestMainAndFormats:
    def test_exit_code_success(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(make_config())
        assert main([str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["ergodic"] is True

    def test_exit_code_parse_error(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        assert main([str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["module"] == "cli"

    def test_exit_code_missing_file(self, capsys):
        assert main(["/nonexistent/job.json"]) == 2
        assert json.loads(capsys.readouterr().err)["module"] == "cli"

    def test_exit_code_precondition(self, tmp_path, capsys):
        cfg = {
            "command": "connection",
            "model": {"matrices": {"h": [[1, 0], [0, -1]], "ls": [[[0, 0], [0, 0]]]}},
            "tangents": [{"dh": [[1, 0], [0, 1]], "dls": [[[0, 0], [0, 0]]]}],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        assert main([str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["module"] == "lindblad"
        assert "ergodic" in err["message"]

    def test_convention_flag_override(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(make_config(command="qfi"))
        assert main([str(path), "--convention", "metric"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["convention"] == "metric"

    def test_t_grid_flag_and_output_file(self, tmp_path):
        path = tmp_path / "job.json"
        out_path = tmp_path / "report.json"
        path.write_text(make_config(command="output-overlap", model2=dict(TWO_LEVEL)))
        rc = main([str(path), "--t-grid", "1,5", "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["result"]["t_grid_gap_units"] == [1.0, 5.0]

    def test_tol_flag_overrides_module_defaults(self, tmp_path, capsys):
        # a huge rank tolerance swallows the whole spectrum of W into the
        # "zero" disc, so the ergodicity verdict flips: proves the flag is
        # wired through rather than merely echoed
        path = tmp_path / "job.json"
        path.write_text(make_config())
        assert main([str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["ergodic"] is True
        assert main([str(path), "--tol", "10.0"]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        assert res["ergodic"] is False
        assert res["zero_eigen_count"] == 4

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(make_config(command="qfi", options={"convention": "metric"}))
        assert main([str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,row,col,value_re,value_im"
        assert any(line.startswith("matrix,") for line in lines)

    def test_out_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(make_config())
        out_path = tmp_path / "missing" / "report.json"
        assert main([str(path), "--out", str(out_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["module"] == "cli"
        assert err["context"]["out"] == str(out_path)
        assert str(out_path) in err["message"]

    @pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda path: path.name)
    def test_demo_config_runs(self, config, tmp_path):
        out_path = tmp_path / "report.json"
        assert main([str(config), "--out", str(out_path)]) == 0
        assert "result" in json.loads(out_path.read_text())

    def test_csv_roundtrip_values(self):
        job = parse_config(make_config(command="qfi", options={"convention": "metric", "format": "csv"}))
        report = run(job)
        text = format_report(report, "csv")
        matrix_rows = [l.split(",") for l in text.splitlines() if l.startswith("matrix,")]
        assert len(matrix_rows) == 16
        entry_00 = float([r for r in matrix_rows if r[1] == "0" and r[2] == "0"][0][3])
        assert entry_00 == pytest.approx(2 / 9, abs=1e-10)
