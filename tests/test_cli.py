import csv
import hashlib
import json
import os
import pathlib
import re

import pytest
from click.testing import CliRunner

from mirrorbench import sim
from mirrorbench.circuits import ContractError
from mirrorbench.cli import main

BRICK_CONFIG = {
    "benchmark_type": "low_level",
    "inputs": {"family": {"kind": "brickwork", "n": 3, "depth": 6, "seed": 0}},
    "sampling": {"m1": 4, "m2": 4, "m3": 4},
    "shots": 400,
    "seed": 7,
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def run_err(runner, args, code):
    """A failing stage: its exit code, one line on stderr, no traceback."""
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "Traceback" not in result.output
    return result


# name -> (config changes for generate, or None for an empty directory;
# experiment file deleted after generate; stage; exit code)
ERROR_CASES = {
    "simulate-empty-dir": (None, None, "simulate", 3),
    "analyze-empty-dir": (None, None, "analyze", 3),
    "simulate-without-circuits": ({}, "circuits.jsonl", "simulate", 3),
    "analyze-without-shots": ({}, None, "analyze", 3),
    "report-without-results": ({}, None, "report", 3),
    "oracle-without-results": ({}, None, "oracle", 3),
    "missing-qasm-file": ({"inputs": {"qasm_paths": ["no/such/dir/c.qasm"]}},
                          None, "generate", 2),
    "non-integer-sampling": ({"sampling": {"m1": "x"}}, None, "generate", 2),
    "coupling-without-edges": ({"benchmark_type": "full_stack",
                                "transpile": {"coupling": {"n": 3}}},
                               None, "generate", 2),
    "bad-noise": ({"noise": {"lam_1q": 3}}, None, "generate", 2),
}


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


class TestGenerate:
    def test_creates_artifacts(self, runner, tmp_path):
        cfg = write_config(tmp_path, BRICK_CONFIG)
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", cfg, "--out", out])
        for name in ("manifest.json", "circuits.jsonl", "config.json"):
            assert os.path.exists(os.path.join(out, name))
        n_lines = len(pathlib.Path(out, "circuits.jsonl").read_text().splitlines())
        assert n_lines == 1 + 12

    def test_byte_identical_regeneration(self, runner, tmp_path):
        cfg = write_config(tmp_path, BRICK_CONFIG)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            run_ok(runner, ["generate", "--config", cfg, "--out", out])
            outs.append(pathlib.Path(out, "circuits.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_seed_exits_2(self, runner, tmp_path):
        bad = {k: v for k, v in BRICK_CONFIG.items() if k != "seed"}
        cfg = write_config(tmp_path, bad)
        result = runner.invoke(main, ["generate", "--config", cfg,
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_bad_benchmark_type_exits_2(self, runner, tmp_path):
        bad = dict(BRICK_CONFIG, benchmark_type="bogus")
        cfg = write_config(tmp_path, bad)
        result = runner.invoke(main, ["generate", "--config", cfg,
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestPipeline:
    def _generate(self, runner, tmp_path, cfg=BRICK_CONFIG):
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", path, "--out", out])
        return out

    def test_noiseless_estimates_near_one(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "50"])
        rows = read_csv(os.path.join(out, "results.csv"))
        assert len(rows) == 1
        assert abs(float(rows[0]["F_hat"]) - 1.0) < 0.05

    @pytest.mark.parametrize("args", [
        ["simulate", "--shots", "0"], ["simulate", "--shots", "-5"],
        ["simulate", "--jobs", "0"], ["analyze", "--bootstrap", "0"],
        ["analyze", "--bootstrap", "1"], ["oracle", "--max-n", "0"]])
    def test_simulate_non_positive_count_exits_2(self, runner, tmp_path, args):
        # Covers the count options of every stage; the earlier stages run
        # first, so only the option can make the stage fail.
        stages = {"simulate": "shots.jsonl", "analyze": "results.csv",
                  "oracle": "oracle.csv"}
        stage, *opts = args
        out = self._generate(runner, tmp_path)
        for earlier in list(stages)[:list(stages).index(stage)]:
            run_ok(runner, [earlier, "--out", out])
        run_err(runner, [stage, "--out", out, *opts], 2)
        assert not os.path.exists(os.path.join(out, stages[stage]))

    def test_analyze_without_shots_exits_3(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_err(runner, ["analyze", "--out", out], 3)

    @pytest.mark.parametrize("edit, message", [
        # Each edits the counts of the first proxy's record.
        (lambda counts: {"0x" + k[2:]: v for k, v in counts.items()}, "0 and 1"),
        (lambda counts: {k: v + 0.7 for k, v in counts.items()}, "positive integers"),
        (lambda counts: {k: True for k in counts}, "positive integers"),
        (lambda counts: {}, "counts is empty and width is missing"),
    ], ids=["non-binary-key", "float-count", "bool-count", "empty-without-width"])
    def test_malformed_shots_exit_2(self, runner, tmp_path, edit, message):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        path = pathlib.Path(out, "shots.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["counts"] = edit(records[0]["counts"])
        if not records[0]["counts"]:
            del records[0]["width"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        result = run_err(runner, ["analyze", "--out", out], 2)
        assert result.stderr.startswith("config error: $[0]") and message in result.stderr
        assert not os.path.exists(os.path.join(out, "results.csv"))

    def test_repeated_proxy_in_shots_exits_2(self, runner, tmp_path):
        # A second record for a proxy would silently replace the first.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        path = pathlib.Path(out, "shots.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        first["counts"]["111"] = 999
        with open(path, "a") as fp:
            fp.write(json.dumps(first) + "\n")
        result = run_err(runner, ["analyze", "--out", out], 2)
        assert "$[12].circuit_id: duplicate circuit_id" in result.stderr

    def test_golden_brickwork_outputs(self, runner, tmp_path):
        # Pins shots.jsonl and results.csv of an n = 8 brickwork suite under
        # the lowlevel_dense noise, as the dict-based shot tables wrote them.
        cfg = {"benchmark_type": "low_level",
               "inputs": {"family": {"kind": "brickwork", "n": 8, "depth": 12, "seed": 7}},
               "sampling": {"m1": 3, "m2": 3, "m3": 3}, "shots": 1000,
               "noise": {"lam_1q": 0.001, "lam_2q": 0.01, "eps_ro": 0.02, "theta_idle": 0.02},
               "seed": 7}
        out = self._generate(runner, tmp_path, cfg)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out])
        digests = {name: hashlib.sha256(pathlib.Path(out, name).read_bytes()).hexdigest()
                   for name in ("shots.jsonl", "results.csv")}
        assert digests == {
            "shots.jsonl": "90c73333390671d6ebb83135d25303224e6c48cfaf3cba51de5b6063a0816298",
            "results.csv": "267a7b34ada52570874bae10af9f5e3b583b878e9b1b9fe1e6339fcd4a8ad2b0"}

    def test_report_without_results_exits_3(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_err(runner, ["report", "--out", out], 3)

    @pytest.mark.parametrize("changes, delete, stage, code", ERROR_CASES.values(),
                             ids=ERROR_CASES.keys())
    def test_error_exits_with_documented_code(self, runner, tmp_path, changes,
                                              delete, stage, code):
        out = str(tmp_path / "exp")
        if stage == "generate":
            cfg = write_config(tmp_path, dict(BRICK_CONFIG, **changes))
            run_err(runner, ["generate", "--config", cfg, "--out", out], code)
            assert not os.path.exists(os.path.join(out, "manifest.json"))
            return
        if changes is None:
            os.makedirs(out)
        else:
            out = self._generate(runner, tmp_path)
        if delete:
            os.remove(os.path.join(out, delete))
        run_err(runner, [stage, "--out", out], code)

    @pytest.mark.parametrize("stage, written", [("report", "summary.txt"),
                                                ("oracle", "oracle.csv")])
    @pytest.mark.parametrize("column, value", [("shape_w", None), ("F_hat", None),
                                               ("F_hat", "abc"), ("width", "")])
    def test_malformed_results_exit_2(self, runner, tmp_path, stage, written,
                                      column, value):
        # value None drops the column; otherwise every row gets the value.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        path = os.path.join(out, "results.csv")
        rows = read_csv(path)
        fields = [f for f in rows[0] if not (value is None and f == column)]
        with open(path, "w", newline="") as fp:
            w = csv.DictWriter(fp, fields, extrasaction="ignore")
            w.writeheader()
            for row in rows:
                w.writerow(row if value is None else dict(row, **{column: value}))
        result = run_err(runner, [stage, "--out", out], 2)
        assert result.stderr.startswith("config error: ") and "results.csv" in result.stderr
        assert not os.path.exists(os.path.join(out, written))

    def test_regenerate_removes_stale_outputs(self, runner, tmp_path):
        # Proxy ids do not depend on the noise model, so shots left from the
        # noiseless suite would pass for shots of the noisy one.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        self._generate(runner, tmp_path, dict(BRICK_CONFIG, noise={"lam_2q": 0.3}))
        assert not os.path.exists(os.path.join(out, "shots.jsonl"))
        result = run_err(runner, ["analyze", "--out", out], 3)
        assert "run simulate" in result.stderr

    def test_failed_simulate_keeps_earlier_shots(self, runner, tmp_path, monkeypatch):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        shots_path = pathlib.Path(out, "shots.jsonl")
        before = shots_path.read_bytes()
        calls, sample_shots = [], sim.sample_shots

        def fail_second(c, *args):
            calls.append(c.id)
            if len(calls) == 2:
                raise ContractError("injected failure")
            return sample_shots(c, *args)

        monkeypatch.setattr(sim, "sample_shots", fail_second)
        run_err(runner, ["simulate", "--out", out], 2)
        assert shots_path.read_bytes() == before
        assert sorted(os.listdir(out)) == ["circuits.jsonl", "config.json", "manifest.json",
                                           "shots.jsonl"]

    def test_simulate_takes_no_parameter_overrides(self, runner):
        # Noise and seed come only from the experiment's config.json.
        result = run_ok(runner, ["simulate", "--help"])
        assert re.findall(r"^  (--[\w-]+)", result.output, re.M) == \
            ["--out", "--fake-uniform", "--shots", "--jobs", "--help"]

    def test_analyze_deterministic(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        contents = []
        for _ in range(2):
            run_ok(runner, ["analyze", "--out", out, "--bootstrap", "50"])
            contents.append(pathlib.Path(out, "results.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_fake_uniform_flags_estimate(self, runner, tmp_path):
        cfg = dict(BRICK_CONFIG)
        cfg["inputs"] = {"family": {"kind": "brickwork", "n": 8, "depth": 8,
                                    "seed": 0}}
        out = self._generate(runner, tmp_path, cfg)
        run_ok(runner, ["simulate", "--out", out, "--fake-uniform"])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "20"])
        rows = read_csv(os.path.join(out, "results.csv"))
        assert "estimate-undefined" in rows[0]["flags"]
        assert rows[0]["F_clamped"] == "0"

    def test_report_and_oracle(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "50"])
        run_ok(runner, ["report", "--out", out])
        assert os.path.exists(os.path.join(out, "report.svg"))
        assert os.path.exists(os.path.join(out, "summary.txt"))
        run_ok(runner, ["oracle", "--out", out])
        rows = read_csv(os.path.join(out, "oracle.csv"))
        assert len(rows) == 1
        assert abs(float(rows[0]["F_exact"]) - 1.0) < 1e-9
        assert float(rows[0]["abs_deviation"]) < 0.05

    def test_noisy_oracle_close(self, runner, tmp_path):
        cfg = dict(BRICK_CONFIG)
        cfg["noise"] = {"lam_1q": 0.002, "lam_2q": 0.02}
        cfg["sampling"] = {"m1": 20, "m2": 20, "m3": 20}
        out = self._generate(runner, tmp_path, cfg)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "50"])
        run_ok(runner, ["oracle", "--out", out])
        rows = read_csv(os.path.join(out, "oracle.csv"))
        assert float(rows[0]["F_exact"]) < 0.99
        assert float(rows[0]["abs_deviation"]) < 0.05

    def test_oracle_max_n_reaches_oracle(self, runner, tmp_path, monkeypatch):
        # A real n=7 oracle takes most of a minute; the stub records the
        # limit it is given, with the real oracle's default.
        cfg = dict(BRICK_CONFIG, shots=50, sampling={"m1": 1, "m2": 1, "m3": 1},
                   inputs={"family": {"kind": "brickwork", "n": 7, "depth": 2,
                                      "seed": 0}})
        out = self._generate(runner, tmp_path, cfg)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        seen = []

        def oracle_stub(c, nm, max_n=6):
            seen.append((c.n, max_n))
            return 1.0

        monkeypatch.setattr(sim, "exact_process_fidelity", oracle_stub)
        run_ok(runner, ["oracle", "--out", out, "--max-n", "7"])
        assert seen == [(7, 7)]


class TestTrotterReport:
    def test_summary_has_three_fidelities(self, runner, tmp_path):
        cfg = {
            "benchmark_type": "low_level",
            "compile_to_native": True,
            "inputs": {"family": {
                "kind": "trotter",
                "hamiltonian": {"type": "max3sat", "n": 3, "r": 2, "seed": 0},
                "orders": [1], "steps_list": [1], "time": 1.0}},
            "sampling": {"m1": 3, "m2": 3, "m3": 3},
            "shots": 200,
            "seed": 1,
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", path, "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "20"])
        run_ok(runner, ["report", "--out", out])
        summary = pathlib.Path(out, "summary.txt").read_text()
        assert "F_alg=" in summary and "F_noise=" in summary \
            and "F_full=" in summary
        assert "F_alg=1.000000" in summary  # diagonal Hamiltonian is exact


class TestSubcircuitConfig:
    def test_subcircuit_pipeline(self, runner, tmp_path):
        cfg = {
            "benchmark_type": "subcircuit",
            "inputs": {"family": {"kind": "brickwork", "n": 6, "depth": 32,
                                  "seed": 0}},
            "shapes": {"shapes": [[2, 4], [3, 8]], "samples_per_shape": 2},
            "sampling": {"m1": 2, "m2": 2, "m3": 2},
            "shots": 100,
            "seed": 2,
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", path, "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "20"])
        run_ok(runner, ["report", "--out", out])
        rows = read_csv(os.path.join(out, "results.csv"))
        assert len(rows) == 4
        assert {(r["shape_w"], r["shape_d"]) for r in rows} == \
            {("2", "4"), ("3", "8")}
        svg = pathlib.Path(out, "report.svg").read_text()
        assert svg.count('class="cell"') == 2


class TestFullStackConfig:
    def test_full_stack_pipeline_with_jobs(self, runner, tmp_path):
        cfg = {
            "benchmark_type": "full_stack",
            "inputs": {"family": {"kind": "qft", "n": 4}},
            "transpile": {"coupling": "line", "reps": 2,
                          "approximation_degree": 1.0},
            "sampling": {"m1": 2, "m2": 2, "m3": 2},
            "shots": 200,
            "seed": 3,
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", path, "--out", out])
        run_ok(runner, ["simulate", "--out", out, "--jobs", "2"])
        shots = pathlib.Path(out, "shots.jsonl")
        parallel = shots.read_bytes()
        run_ok(runner, ["simulate", "--out", out, "--jobs", "1"])
        assert shots.read_bytes() == parallel
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "20"])
        rows = read_csv(os.path.join(out, "results.csv"))
        assert len(rows) == 2
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        bench = [r for r in manifest["records"] if r["kind"] == "benchmark"]
        assert all(abs(r["intrinsic_fidelity"] - 1.0) < 1e-9 for r in bench)
