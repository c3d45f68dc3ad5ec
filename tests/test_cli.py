import csv
import json
import struct

import numpy as np
import pytest

from intquant.cli import main
from intquant.pipeline import ConfigError, config_from_dict
from intquant.tensor import Tensor, tensor_read, tensor_write


def run(tmp_path, *argv):
    return main(["--report-file", str(tmp_path / "runs.jsonl"), *argv])


CONFIG = {
    "model": {"blocks": 2, "embed_dim": 32, "heads": 2, "tokens": 8, "mlp_ratio": 2},
    "bits": {"weights": 8, "activations": 8},
    "calib": {"batches": 2, "batch_size": 4},
    "seed": 0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


class TestFit:
    def test_writes_result(self, tmp_path):
        out = tmp_path / "fit.json"
        assert run(tmp_path, "fit", "--range", "-3", "3", "--degree", "4",
                   "--samples", "501", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"a", "b", "degree", "range", "l2_err", "linf_err"}
        assert payload["degree"] == 4
        assert payload["linf_err"] <= 0.0555  # no worse than the shipped quartic

    def test_degenerate_range_is_usage_error(self, tmp_path):
        assert run(tmp_path, "fit", "--range", "0", "0",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(tmp_path, "fit", "--range", "-2", "2", "--degree", "2",
            "--samples", "301", "--out", str(a))
        run(tmp_path, "fit", "--range", "-2", "2", "--degree", "2",
            "--samples", "301", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestEvalApprox:
    def read_rows(self, path):
        with open(path) as fh:
            return {row["method"]: row for row in csv.DictReader(fh)}

    def test_erf_table(self, tmp_path):
        out = tmp_path / "erf.csv"
        assert run(tmp_path, "eval-approx", "--which", "erf", "--out", str(out)) == 0
        rows = self.read_rows(out)
        assert float(rows["erf_ibert_quadratic"]["linf"]) == pytest.approx(0.0962, abs=0.001)
        assert float(rows["erf_quartic_ours"]["linf"]) == pytest.approx(0.0550, abs=0.0005)
        assert float(rows["erf_quartic_ours"]["l2"]) == pytest.approx(0.0098, rel=0.15)

    def test_gelu_table(self, tmp_path):
        out = tmp_path / "gelu.csv"
        assert run(tmp_path, "eval-approx", "--which", "gelu", "--out", str(out)) == 0
        rows = self.read_rows(out)
        assert float(rows["i_gelu"]["linf"]) == pytest.approx(0.0182, abs=0.001)
        assert float(rows["data_aware_poly_gelu"]["linf"]) == pytest.approx(0.0093, abs=0.0005)

    def test_exp2_table(self, tmp_path):
        out = tmp_path / "exp2.csv"
        assert run(tmp_path, "eval-approx", "--which", "exp2", "--out", str(out)) == 0
        rows = self.read_rows(out)
        assert float(rows["base2_exp_ivit"]["linf"]) == 0.5
        assert float(rows["base2_exp_ours_exact_ln2"]["linf"]) == pytest.approx(0.3069, abs=1e-4)
        assert float(rows["base2_exp_ours_shift"]["linf"]) == 0.3125

    def test_unknown_selector(self, tmp_path):
        assert run(tmp_path, "eval-approx", "--which", "tanh",
                   "--out", str(tmp_path / "x.csv")) == 2


class TestAssign:
    def test_emits_plan_and_metrics(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert run(tmp_path, "assign", "--config", str(config_path),
                   "--out", str(out)) == 0
        plan = json.loads((tmp_path / "run.plan.json").read_text())
        assert len(plan["assignments"]) == 9
        with open(tmp_path / "run.metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 29
        chosen = [r for r in rows if r["chosen"] == "1"]
        assert len(chosen) == 9

    def test_same_seed_identical_plans(self, tmp_path, config_path):
        run(tmp_path, "assign", "--config", str(config_path), "--out", str(tmp_path / "a"))
        run(tmp_path, "assign", "--config", str(config_path), "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.plan.json").read_bytes() == (tmp_path / "b.plan.json").read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"depth": 2}}))
        assert run(tmp_path, "assign", "--config", str(bad),
                   "--out", str(tmp_path / "x")) == 2

    # values of the right type that the pipeline cannot run
    @pytest.mark.parametrize("raw, field", [
        ({"stage1_mode": "bogus"}, "stage1_mode"),
        ({"metric": {"db_convention": "bogus"}}, "metric.db_convention"),
        ({"bits": {"activations": 14}}, "bits.activations"),
        ({"bits": {"activations": 16}}, "bits.activations"),
        ({"bits": {"activations": 1}}, "bits.activations"),
        ({"bits": {"weights": 1}}, "bits.weights"),
        ({"model": {"tokens": 1}}, "model.tokens"),
        ({"model": {"heads": 3}}, "model.heads"),
        ({"calib": {"batches": 0}}, "calib.batches"),
        ({"calib": {"batch_size": 0}}, "calib.batch_size"),
        ({"taylor_degree": 3}, "taylor_degree"),
        ({"seed": -1}, "seed"),
        ({"pools": {"softmax": ["bogus"]}}, "pools.softmax"),
        ({"pools": {"gelu": 3}}, "pools.gelu"),
    ])
    def test_unrunnable_config_is_refused(self, tmp_path, raw, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run(tmp_path, "assign", "--config", str(path),
                   "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x.plan.json").exists()

    def test_malformed_config_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"model\": ")
        assert run(tmp_path, "assign", "--config", str(bad),
                   "--out", str(tmp_path / "x")) == 2


class TestInfer:
    def _plan(self, tmp_path, config_path, name="run"):
        run(tmp_path, "assign", "--config", str(config_path), "--out",
            str(tmp_path / name))
        return tmp_path / f"{name}.plan.json"

    def _input(self, tmp_path):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(0, 1, size=(8, 32)).astype(np.float32))
        path = tmp_path / "x.iptq"
        tensor_write(x, path)
        return path

    def test_runs_and_reports_zero_violations(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        xpath = self._input(tmp_path)
        out = tmp_path / "y.iptq"
        assert run(tmp_path, "infer", "--plan", str(plan), "--input", str(xpath),
                   "--out", str(out)) == 0
        ops = json.loads((tmp_path / "y.iptq.ops.json").read_text())
        assert ops["float_violations"] == 0
        assert ops["total"] > 0
        y = tensor_read(out)
        assert y.dims == (10,)

    def test_deterministic_output_files(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        xpath = self._input(tmp_path)
        a, b = tmp_path / "a.iptq", tmp_path / "b.iptq"
        run(tmp_path, "infer", "--plan", str(plan), "--input", str(xpath), "--out", str(a))
        run(tmp_path, "infer", "--plan", str(plan), "--input", str(xpath), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_nan_input_is_usage_error(self, tmp_path, config_path, capsys):
        plan = self._plan(tmp_path, config_path)
        x = np.zeros((8, 32), dtype=np.float32)
        x[3, 5] = np.nan
        xpath = tmp_path / "nan.iptq"
        tensor_write(Tensor(x), xpath)
        capsys.readouterr()
        assert run(tmp_path, "infer", "--plan", str(plan), "--input", str(xpath),
                   "--out", str(tmp_path / "y.iptq")) == 2
        err = capsys.readouterr().err
        assert "usage error: input:" in err and str(xpath) in err and "NaN" in err
        assert not (tmp_path / "y.iptq").exists()

    def test_shape_mismatch_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        bad = Tensor(np.zeros((4, 4), dtype=np.float32))
        bad_path = tmp_path / "bad.iptq"
        tensor_write(bad, bad_path)
        assert run(tmp_path, "infer", "--plan", str(plan), "--input", str(bad_path),
                   "--out", str(tmp_path / "y.iptq")) == 2

    def _infer(self, tmp_path, plan, xpath):
        return run(tmp_path, "infer", "--plan", str(plan), "--input", str(xpath),
                   "--out", str(tmp_path / "y.iptq"))

    def test_bad_magic_is_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        xpath = self._input(tmp_path)
        blob = bytearray(xpath.read_bytes())
        blob[:4] = b"NOPE"
        xpath.write_bytes(bytes(blob))
        assert self._infer(tmp_path, plan, xpath) == 2
        assert self._infer(tmp_path, plan, tmp_path / "missing.iptq") == 2

    def test_extents_past_int64_are_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        xpath = tmp_path / "huge.iptq"
        xpath.write_bytes(b"IPTQ" + bytes([1, 0, 4]) + struct.pack("<4I", *[1 << 16] * 4))
        assert self._infer(tmp_path, plan, xpath) == 2

    def test_unparsable_plan_is_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        plan.write_text(plan.read_text()[:100])
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2

    def test_unknown_plan_field_is_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        raw["model_config"]["extra"] = 1
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2

    def test_plan_missing_an_edge_is_usage_error(self, tmp_path, config_path):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        raw["qparams"] = [q for q in raw["qparams"] if q["layer_id"] != "block1.res1"]
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2

    def test_candidate_outside_the_layer_pool_is_usage_error(self, tmp_path, config_path,
                                                             capsys):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        entry = next(a for a in raw["assignments"] if a["layer_id"] == "block0.softmax")
        entry["candidate"] = "shift_gelu"
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        assert "block0.softmax" in capsys.readouterr().err

    @pytest.mark.parametrize("edge, per_channel", [
        ("block0.attn.scores", False), ("input", True), ("block0.res1", True),
    ], ids=["non_dyadic_scores", "per_channel_input", "per_channel_residual"])
    def test_params_the_kernels_cannot_run_are_usage_error(self, tmp_path, config_path,
                                                          capsys, edge, per_channel):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        entry = next(q for q in raw["qparams"] if q["layer_id"] == edge)
        if per_channel:
            entry.update(scale=[entry["scale"]] * 32, zero_point=[entry["zero_point"]] * 32,
                         granularity="per_channel")
        else:
            entry["scale"] = 0.3
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        assert "usage error: plan:" in capsys.readouterr().err

    @pytest.mark.parametrize("edge, scale, named", [
        ("embed.ln", 1e300, "block0.res1"), ("block0.mlp.fc1", 1e-300, "block0.mlp.fc1"),
        ("block0.attn.scores", 0.5, "2 <= f"), ("block0.attn.scores", 1.0, "2 <= f"),
        ("block0.mlp.fc1", float("inf"), "finite"),
        ("block0.ln1", 1e-300, "block0.attn.q: requantization multiplier rounds to 0"),
        ("embed.ln", 1e-30, "block0.res1: requantization multiplier rounds to 0"),
        ("block0.gelu", 1e-30, "block0.mlp.fc2: requantization multiplier rounds to 0"),
    ], ids=["add_multiplier_past_62_bits", "linear_multiplier_past_62_bits",
            "scores_grid_2^-1", "scores_grid_2^0", "infinite_scale",
            "linear_multiplier_rounds_to_0", "add_multiplier_rounds_to_0",
            "gelu_output_under_the_fc2_multiplier"])
    def test_plan_scales_the_kernels_cannot_run_are_usage_error(
            self, tmp_path, config_path, capsys, edge, scale, named):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        next(q for q in raw["qparams"] if q["layer_id"] == edge)["scale"] = scale
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        assert named in capsys.readouterr().err

    def test_pool_choice_changes_op_totals(self, tmp_path):
        # pin the softmax pool to one candidate per plan: the shift-heavy
        # fraction strictly out-costs the single-shift baseline
        totals = {}
        for cand in ("efficient_bit_softmax", "shiftmax"):
            cfgd = dict(CONFIG)
            cfgd["pools"] = {"softmax": [cand]}
            cpath = tmp_path / f"cfg_{cand}.json"
            cpath.write_text(json.dumps(cfgd))
            run(tmp_path, "assign", "--config", str(cpath), "--out",
                str(tmp_path / cand))
            xpath = self._input(tmp_path)
            out = tmp_path / f"{cand}.out.iptq"
            run(tmp_path, "infer", "--plan", str(tmp_path / f"{cand}.plan.json"),
                "--input", str(xpath), "--out", str(out))
            ops = json.loads((tmp_path / f"{cand}.out.iptq.ops.json").read_text())
            totals[cand] = ops["total"]
        assert totals["efficient_bit_softmax"] > totals["shiftmax"]


class TestRunReport:
    def test_records_the_seed_that_built_the_model(self, tmp_path, capsys):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({**CONFIG, "seed": 7}))
        assert run(tmp_path, "assign", "--config", str(cpath),
                   "--out", str(tmp_path / "run")) == 0
        plan = json.loads((tmp_path / "run.plan.json").read_text())
        assert plan["model_config"]["seed"] == 7
        xpath = TestInfer()._input(tmp_path)
        assert run(tmp_path, "infer", "--plan", str(tmp_path / "run.plan.json"),
                   "--input", str(xpath), "--out", str(tmp_path / "y.iptq")) == 0
        assert run(tmp_path, "eval-approx", "--which", "exp2",
                   "--out", str(tmp_path / "e.csv")) == 0
        lines = [json.loads(l) for l in
                 (tmp_path / "runs.jsonl").read_text().strip().splitlines()]
        assert [(l["command"], l["seed"]) for l in lines] == [
            ("assign", 7), ("infer", 7), ("eval-approx", None)]
        assert all("seed" not in l["args"] for l in lines)
        capsys.readouterr()
        assert run(tmp_path, "report") == 0
        assert "eval-approx: seed=-" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["fit", "--range", "-1", "1"], ["eval-approx", "--which", "erf"],
        ["assign", "--config", "c.json"], ["infer", "--plan", "p", "--input", "x"]])
    def test_seed_flag_is_gone(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *command, "--seed", "3")
        assert exc.value.code == 2


class TestReport:
    def test_report_lists_runs(self, tmp_path, capsys):
        run(tmp_path, "eval-approx", "--which", "exp2", "--out", str(tmp_path / "e.csv"))
        assert run(tmp_path, "report") == 0
        out = capsys.readouterr().out
        assert "eval-approx" in out

    def test_reports_append(self, tmp_path):
        run(tmp_path, "eval-approx", "--which", "exp2", "--out", str(tmp_path / "e.csv"))
        run(tmp_path, "eval-approx", "--which", "erf", "--out", str(tmp_path / "f.csv"))
        lines = (tmp_path / "runs.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        assert all("wall_time_s" in json.loads(l) for l in lines)
