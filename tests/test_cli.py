import csv
import json
import os
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intquant
from intquant import pipeline as pl
from intquant.cli import main
from intquant.model import MODEL_FIELDS
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

    # values of the right type that the pipeline cannot run, and fields
    # that were removed from the schema
    @pytest.mark.parametrize("raw, field", [
        ({"stage1_mode": "bogus"}, "stage1_mode"),
        ({"metric": {"db_convention": "bogus"}}, "metric.db_convention"),
        ({"metric": {"standardize": True}}, "metric.standardize"),
        ({"bits": {"activations": 14}}, "bits.activations"),
        ({"bits": {"activations": 16}}, "bits.activations"),
        ({"bits": {"activations": 1}}, "bits.activations"),
        ({"bits": {"activations": 20}}, "bits.activations"),
        ({"bits": {"weights": 1}}, "bits.weights"),
        ({"model": {"tokens": 1}}, "model.tokens"),
        ({"model": {"heads": 3}}, "model.heads"),
        ({"calib": {"batches": 0}}, "calib.batches"),
        ({"calib": {"batch_size": 0}}, "calib.batch_size"),
        # refused before the calibration set is allocated
        ({"calib": {"batches": 1025}}, "calib.batches"),
        ({"calib": {"batches": 1 << 62}}, "calib.batches"),
        ({"calib": {"batch_size": 1025}}, "calib.batch_size"),
        ({"calib": {"batch_size": 1 << 62}}, "calib.batch_size"),
        ({"taylor_degree": 3}, "taylor_degree"),
        ({"seed": -1}, "seed"),
        ({"pools": {"softmax": ["bogus"]}}, "pools.softmax"),
        ({"pools": {"gelu": 3}}, "pools.gelu"),
        ({"pools": {"softmax": ["shiftmax", "shiftmax"]}}, "pools.softmax"),
    ])
    def test_unrunnable_config_is_refused(self, tmp_path, raw, field):
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run(tmp_path, "assign", "--config", str(path),
                   "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x.plan.json").exists()

    # valid configs whose plans the integer path cannot run: assign refuses
    # them, as infer would, and writes nothing
    @pytest.mark.parametrize("raw, edge", [
        ({"model": {"embed_dim": 1, "heads": 1}}, "block1.attn.proj"),
    ], ids=["embed_dim_1"])
    def test_plan_infer_would_refuse_is_usage_error(self, tmp_path, capsys, raw, edge):
        config_from_dict(raw)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert run(tmp_path, "assign", "--config", str(path), "--jobs", "1",
                   "--out", str(tmp_path / "x")) == 2
        assert f"usage error: plan: {edge}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_widest_weights_assign_and_infer(self, tmp_path):
        # the linear multipliers' shift grows with the weights' width, so
        # at W16 they keep their precision instead of rounding to 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bits": {"weights": 16}}))
        assert run(tmp_path, "assign", "--config", str(path), "--jobs", "1",
                   "--out", str(tmp_path / "x")) == 0
        x = tmp_path / "x.iptq"
        tensor_write(Tensor(np.random.default_rng(0).normal(size=(2, 8, 32))), x)
        assert run(tmp_path, "infer", "--plan", str(tmp_path / "x.plan.json"),
                   "--input", str(x), "--out", str(tmp_path / "y.iptq")) == 0
        assert tensor_read(tmp_path / "y.iptq").dims == (2, 10)

    @pytest.mark.parametrize("flag, value", [
        ("--calib-seed", "-1"), ("--jobs", "0"), ("--jobs", "-2"),
    ])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, config_path, capsys,
                                              flag, value):
        assert run(tmp_path, "assign", "--config", str(config_path), flag, value,
                   "--out", str(tmp_path / "x")) == 2
        assert f"usage error: {flag} must be >= " in capsys.readouterr().err
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

    def test_infer_does_not_load_scipy_special(self, tmp_path, config_path):
        # erf is imported where the float reference calls it, so neither the
        # import nor integer inference on a saved plan pays for scipy.special
        plan, xpath = self._plan(tmp_path, config_path), self._input(tmp_path)
        code = ("import sys, intquant, intquant.cli;"
                " before = 'scipy.special' in sys.modules;"
                " code = intquant.cli.main(sys.argv[1:]);"
                " print(before, code, 'scipy.special' in sys.modules)")
        argv = ["--report-file", str(tmp_path / "runs.jsonl"), "infer", "--plan", str(plan),
                "--input", str(xpath), "--out", str(tmp_path / "y.iptq")]
        src = os.path.dirname(os.path.dirname(intquant.__file__))
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines()[-1] == "False 0 False"

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

    @pytest.mark.parametrize("section, entry", [
        ("qparams", "block9.res1"), ("assignments", "block9.gelu"),
    ], ids=["extra_edge", "extra_layer"])
    def test_plan_entry_the_model_lacks_is_usage_error(self, tmp_path, config_path, capsys,
                                                       section, entry):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        raw[section].append({**raw[section][-1], "layer_id": entry})
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        assert f"usage error: plan: entries for ['{entry}']" in capsys.readouterr().err

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
        ("block0.attn.scores", 1e-16, "2 <= f"), ("block0.attn.scores", 2.0 ** -40, "2 <= f"),
        ("block0.mlp.fc1", float("inf"), "finite"),
        ("block0.ln1", 1e-300, "block0.attn.q: requantization multiplier rounds to 0"),
        ("embed.ln", 1e-30, "block0.res1: requantization multiplier rounds to 0"),
        ("block0.gelu", 1e-30, "block0.mlp.fc2: requantization multiplier rounds to 0"),
        ("block0.softmax", 0.37, "block0.softmax"),
    ], ids=["add_multiplier_past_62_bits", "linear_multiplier_past_62_bits",
            "scores_grid_2^-1", "scores_grid_2^0", "scores_scale_1e-16", "scores_grid_2^-40",
            "infinite_scale",
            "linear_multiplier_rounds_to_0", "add_multiplier_rounds_to_0",
            "gelu_output_under_the_fc2_multiplier", "probabilities_off_the_kernels_grid"])
    def test_plan_scales_the_kernels_cannot_run_are_usage_error(
            self, tmp_path, config_path, capsys, edge, scale, named):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        next(q for q in raw["qparams"] if q["layer_id"] == edge)["scale"] = scale
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"scale": 0.37, "zero_point": 5}, {"zero_point": 5}, {"bits": 7},
    ], ids=["scale_and_zero_point", "zero_point", "bits"])
    def test_softmax_edge_off_the_kernels_grid_is_usage_error(self, tmp_path, config_path,
                                                              capsys, change):
        plan = self._plan(tmp_path, config_path)
        raw = json.loads(plan.read_text())
        next(q for q in raw["qparams"] if q["layer_id"] == "block0.softmax").update(change)
        plan.write_text(json.dumps(raw))
        assert self._infer(tmp_path, plan, self._input(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "usage error: plan: block0.softmax: softmax kernels write" in err

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


def _leaf_paths(node, path=()) -> list:
    """The path of every value in a JSON document that is not a non-empty
    object or list."""
    if isinstance(node, (dict, list)) and node:
        keys = node if isinstance(node, dict) else range(len(node))
        return [p for k in keys for p in _leaf_paths(node[k], (*path, k))]
    return [path]


# wrong JSON types, 0, -1, each maximum + 1 and 2^62; never a large in-bound
# dimension, which would be run instead of refused
_ADVERSARIAL = (None, "x", [], {}, 1.5, True, 0, -1, 1 << 62,
                *sorted({hi + 1 for _, _, hi in MODEL_FIELDS.values()}
                        | {lim[1] + 1 for _, lim in pl._CONFIG_FIELDS.values()
                           if isinstance(lim, tuple) and type(lim[-1]) is int}))


class TestPlanMutations:
    """A toy-default plan file with one value replaced is run or refused
    (exit 0 or 2), never an internal failure (exit 1)."""

    @pytest.fixture(scope="class")
    def toy(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("toy")
        (d / "config.json").write_text("{}")
        assert run(d, "assign", "--config", str(d / "config.json"), "--jobs", "1",
                   "--out", str(d / "toy")) == 0
        x = np.random.default_rng(0).normal(0, 1, size=(8, 32)).astype(np.float32)
        tensor_write(Tensor(x), d / "x.iptq")
        return d, json.loads((d / "toy.plan.json").read_text())

    def _infer(self, toy, raw):
        d, _ = toy
        (d / "m.plan.json").write_text(json.dumps(raw))
        return run(d, "infer", "--plan", str(d / "m.plan.json"), "--input", str(d / "x.iptq"),
                   "--out", str(d / "y.iptq"))

    def test_embed_dim_no_array_can_hold_is_usage_error(self, toy, capsys):
        raw = json.loads(json.dumps(toy[1]))
        raw["model_config"]["embed_dim"] = 1 << 62
        assert self._infer(toy, raw) == 2
        assert "usage error: plan: ConfigError: model.embed_dim must be in [1, 768]" in \
            capsys.readouterr().err

    def test_plan_with_removed_fields_is_usage_error(self, toy, capsys):
        # a plan written before metric.db_convention, metric.standardize and
        # stage1_mode were removed carries them in its model_config, in
        # this order, after calib_batch_size; it must be assigned again
        raw = json.loads(json.dumps(toy[1]))
        fields = list(raw["model_config"].items())
        at = [k for k, _ in fields].index("calib_batch_size") + 1
        old = [("db_convention", "power10"), ("standardize", False), ("stage1_mode", "local")]
        raw["model_config"] = dict(fields[:at] + old + fields[at:])
        assert self._infer(toy, raw) == 2
        assert "usage error: plan: ConfigError: db_convention: unknown field" in \
            capsys.readouterr().err

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_single_field_mutation_exits_0_or_2(self, toy, data):
        raw = json.loads(json.dumps(toy[1]))
        path = data.draw(st.sampled_from(_leaf_paths(raw)), label="path")
        node = raw
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = data.draw(st.sampled_from(_ADVERSARIAL), label="value")
        assert self._infer(toy, raw) in (0, 2)


# in-range values drawn for these fields are capped, so that an example
# runs in milliseconds; the values just outside a range are the schema's own
_CAPS = {"model.blocks": 2, "model.embed_dim": 16, "model.heads": 4, "model.tokens": 8,
         "model.classes": 10, "calib.batches": 2, "calib.batch_size": 2, "seed": 1000}


def _field_range(name, allowed):
    """(min, max or None) of a config field: its ``_CONFIG_FIELDS`` entry, or
    its ``MODEL_FIELDS`` one where ``model_dims`` checks it."""
    return MODEL_FIELDS[name][1:] if allowed is None else allowed


# (config path, a value just outside the field's range), for every field
_OUTSIDE = [(path, v) for path, (name, allowed) in pl._CONFIG_FIELDS.items()
            for lo, hi in [_field_range(name, allowed)]
            for v in (lo - 1, *([hi + 1] if hi is not None else []))]
_WRONG_TYPES = (1.0, "1", True, None, [1])


def _nested(values: dict) -> dict:
    """A config file's object from {config path: value}."""
    raw: dict = {}
    for path, v in values.items():
        section, _, key = path.rpartition(".")
        (raw.setdefault(section, {}) if section else raw)[key] = v
    return raw


@st.composite
def _drawn_configs(draw):
    """A config whose fields are drawn from ``pl._CONFIG_FIELDS``: each is
    left out or takes a value in its range, and at most one is then given
    a value just outside its range or of another type. Returns the config
    and whether it has such a value."""
    values = {}
    for path, (name, allowed) in pl._CONFIG_FIELDS.items():
        lo, hi = _field_range(name, allowed)
        if draw(st.booleans()):
            values[path] = draw(st.integers(lo, _CAPS.get(path, hi)))
    bad = draw(st.none() | st.sampled_from(_OUTSIDE)
               | st.tuples(st.sampled_from(list(pl._CONFIG_FIELDS)), st.sampled_from(_WRONG_TYPES)))
    if bad is not None:
        values[bad[0]] = bad[1]
    return _nested(values), bad is not None


class TestDrawnConfigs:
    """Every config the schema's fields can express is assigned and
    inferred (exit 0) or refused (exit 2), never an internal failure; a
    value outside its field's range or type is refused before the
    pipeline allocates anything."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("drawn")

    def _assign(self, workdir, raw):
        """``assign``'s exit code on ``raw``, and whether it ran the pipeline."""
        (workdir / "config.json").write_text(json.dumps(raw))
        with mock.patch.object(pl, "run_pipeline", wraps=pl.run_pipeline) as pipeline:
            code = run(workdir, "assign", "--config", str(workdir / "config.json"),
                       "--jobs", "1", "--out", str(workdir / "run"))
        return code, pipeline.called

    @pytest.mark.parametrize("path, value", _OUTSIDE, ids=[f"{p}={v}" for p, v in _OUTSIDE])
    def test_value_just_outside_its_range_is_refused_first(self, workdir, path, value):
        assert self._assign(workdir, _nested({path: value})) == (2, False)

    @settings(max_examples=100, deadline=None)
    @given(drawn=_drawn_configs())
    def test_assign_then_infer_exits_0_or_2(self, workdir, drawn):
        raw, bad = drawn
        code, ran = self._assign(workdir, raw)
        assert code in (0, 2)
        if bad:
            assert (code, ran) == (2, False)
        if code == 2:
            return
        cfg = config_from_dict(raw)
        x = np.random.default_rng(0).normal(size=(2, cfg.tokens, cfg.embed_dim))
        tensor_write(Tensor(x, dtype="real32"), workdir / "x.iptq")
        assert run(workdir, "infer", "--plan", str(workdir / "run.plan.json"),
                   "--input", str(workdir / "x.iptq"), "--out", str(workdir / "y.iptq")) == 0
        assert tensor_read(workdir / "y.iptq").dims == (2, cfg.classes)


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

    @pytest.mark.parametrize("line, message", [
        ("{\"command\": ", "line 2: Expecting value"),
        ("[1,2]", "line 2: expected an object"),
        ("{\"outputs\": []}", "line 2: expected an object"),
        ("{\"command\": \"x\", \"wall_time_s\": \"slow\"}",
         "line 2: \"wall_time_s\" must be a number, got 'slow'"),
        ("{\"command\": \"x\", \"outputs\": [1]}",
         "line 2: \"outputs\" must be a list of strings, got [1]"),
    ], ids=["not-json", "a-list", "no-command", "wall-time-not-a-number",
            "outputs-not-strings"])
    def test_malformed_report_line_is_usage_error(self, tmp_path, capsys, line, message):
        run(tmp_path, "eval-approx", "--which", "exp2", "--out", str(tmp_path / "e.csv"))
        with open(tmp_path / "runs.jsonl", "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert run(tmp_path, "report") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --report-file: ") and message in err

    @pytest.mark.parametrize("command", [
        ["report"], ["eval-approx", "--which", "exp2"]])
    def test_report_file_that_is_a_directory_is_usage_error(self, tmp_path, capsys, command):
        # refused before the command writes anything
        (tmp_path / "runs.jsonl").mkdir()
        out = ["--out", str(tmp_path / "e.csv")] if command[0] != "report" else []
        assert run(tmp_path, *command, *out) == 2
        assert "usage error: --report-file: " in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
