import cmath
import copy
import csv
import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench import sim
from mirrorbench.circuits import CapacityError, ContractError
from mirrorbench.cli import main
from mirrorbench.core import ORACLE_MAX_N

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
    # a misspelled key was dropped, and true read as 1.0
    "unknown-noise-key": ({"noise": {"lam_1": 0.01}}, None, "generate", 2),
    "bool-noise": ({"noise": {"lam_1q": True}}, None, "generate", 2),
    # shots must be a positive JSON integer: simulate refuses 0, and a bool
    # or a fraction is not a count.
    "zero-shots": ({"shots": 0}, None, "generate", 2),
    "bool-shots": ({"shots": True}, None, "generate", 2),
    "fractional-shots": ({"shots": 1.7}, None, "generate", 2),
}


def with_changes(base, changes):
    """``base`` with ``changes`` merged in, nested dicts key by key."""
    out = dict(base)
    for key, value in changes.items():
        out[key] = with_changes(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


FULL_STACK_CONFIG = {
    "benchmark_type": "full_stack",
    "inputs": {"family": {"kind": "qft", "n": 3}},
    "transpile": {"coupling": "line", "reps": 1},
    "sampling": {"m1": 2, "m2": 2, "m3": 2},
    "shots": 100,
    "seed": 3,
}
TROTTER_CONFIG = {
    "benchmark_type": "low_level",
    "compile_to_native": True,
    "inputs": {"family": {"kind": "trotter",
                          "hamiltonian": {"type": "max3sat", "n": 3, "r": 2, "seed": 0},
                          "orders": [1], "steps_list": [1]}},
    "sampling": {"m1": 2, "m2": 2, "m3": 2},
    "seed": 1,
}
SUBCIRCUIT_CONFIG = {
    "benchmark_type": "subcircuit",
    "inputs": {"family": {"kind": "brickwork", "n": 4, "depth": 4, "seed": 0}},
    "shapes": {"shapes": [[2, 2]], "samples_per_shape": 1},
    "sampling": {"m1": 2, "m2": 2, "m3": 2},
    "seed": 2,
}
# name -> (config whose one value int() would have truncated or coerced,
# the key the error names). "all-at-once" is a full-stack config that
# generated a width-3 suite with m1 = m2 = 1 and m3 = 2.
BAD_INTEGERS = {
    "all-at-once": (with_changes(FULL_STACK_CONFIG, {
        "inputs": {"family": {"n": 3.9}}, "transpile": {"reps": 1.5},
        "sampling": {"m1": 1.7, "m2": True, "m3": "2"}}), "'n'"),
    "transpile-reps": (with_changes(FULL_STACK_CONFIG, {"transpile": {"reps": 1.5}}), "'reps'"),
    "m1": (with_changes(FULL_STACK_CONFIG, {"sampling": {"m1": 1.7}}), "'m1'"),
    "m2": (with_changes(FULL_STACK_CONFIG, {"sampling": {"m2": True}}), "'m2'"),
    "m3": (with_changes(FULL_STACK_CONFIG, {"sampling": {"m3": "2"}}), "'m3'"),
    "seed": (with_changes(FULL_STACK_CONFIG, {"seed": 3.5}), "'seed'"),
    "depth": (with_changes(BRICK_CONFIG, {"inputs": {"family": {"depth": 6.5}}}), "'depth'"),
    "family-seed": (with_changes(BRICK_CONFIG, {"inputs": {"family": {"seed": -1}}}), "'seed'"),
    "qaoa-reps": (with_changes(BRICK_CONFIG, {"inputs": {"family": {
        "kind": "qaoa", "reps": True}}}), "'reps'"),
    "hamiltonian-r": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {
        "hamiltonian": {"r": 2.5}}}}), "'r'"),
    "orders": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {"orders": [1.0]}}}),
               "'orders'"),
    "steps-list": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {"steps_list": [1, "2"]}}}),
                   "'steps_list'"),
    "shapes": (with_changes(SUBCIRCUIT_CONFIG, {"shapes": {"shapes": [[2, 1.5]]}}), "'shapes'"),
    "samples-per-shape": (with_changes(SUBCIRCUIT_CONFIG, {"shapes": {
        "samples_per_shape": 0}}), "'samples_per_shape'"),
}
FILE_TROTTER_CONFIG = dict(TROTTER_CONFIG, inputs={"family": dict(
    TROTTER_CONFIG["inputs"]["family"], hamiltonian={"type": "file", "path": "ham.json"})})
# name -> (config whose one value was coerced or ignored, the key the error
# names, the Hamiltonian written to ham.json or None): a list or 0 noise ran
# noiseless, float() read "2" and true, any truthy compile_to_native compiled,
# a string of paths was read one character at a time, and the Hamiltonian
# file's n = 3.0 ended report in a TypeError.
BAD_VALUES = {
    "list-noise": (dict(BRICK_CONFIG, noise=[]), "noise", None),
    "zero-noise": (dict(BRICK_CONFIG, noise=0), "noise", None),
    "string-time": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {"time": "2"}}}),
                    "'time'", None),
    "bool-time": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {"time": True}}}),
                  "'time'", None),
    "string-approximation-degree": (with_changes(FULL_STACK_CONFIG, {"transpile": {
        "approximation_degree": "0.99"}}), "'approximation_degree'", None),
    "bool-approximation-degree": (with_changes(FULL_STACK_CONFIG, {"transpile": {
        "approximation_degree": True}}), "'approximation_degree'", None),
    "string-compile-to-native": (dict(TROTTER_CONFIG, compile_to_native="no"),
                                 "'compile_to_native'", None),
    "string-qasm-paths": (dict(BRICK_CONFIG, inputs={"qasm_paths": "a.qasm"}),
                          "'qasm_paths'", None),
    "hamiltonian-float-n": (FILE_TROTTER_CONFIG, "'n'",
                            {"n": 3.0, "terms": [[1.0, "ZZI"]]}),
    "hamiltonian-bool-coefficient": (FILE_TROTTER_CONFIG, "'terms'",
                                     {"n": 3, "terms": [[True, "ZZI"]]}),
    "hamiltonian-string-coefficient": (FILE_TROTTER_CONFIG, "'terms'",
                                       {"n": 3, "terms": [["0.5", "IXX"]]}),
    "hamiltonian-unknown-key": (FILE_TROTTER_CONFIG, "'nn'",
                                {"n": 3, "nn": 3, "terms": [[1.0, "ZZI"]]}),
}
# name -> (config, the message part naming the key): a misspelt key was
# dropped without a word, a section of the wrong JSON type ended in a catch-all
# message naming no key, "hamiltonian": "tfim" said a 'type' was missing, and
# a section the benchmark type does not read, or a family next to qasm_paths,
# was ignored.
BAD_VALUES.update({name: (cfg, key, None) for name, (cfg, key) in {
    "misspelt-root-key": (dict(BRICK_CONFIG, shot=50), "config: unexpected key 'shot'"),
    "misspelt-family-key": (with_changes(BRICK_CONFIG, {"inputs": {"family": {"sed": 5}}}),
                            "config.inputs.family: unexpected key 'sed'"),
    "misspelt-sampling-key": (with_changes(BRICK_CONFIG, {"sampling": {"m4": 9}}),
                              "config.sampling: unexpected key 'm4'"),
    "list-sampling": (dict(BRICK_CONFIG, sampling=[1, 2]), "config: 'sampling' must be"),
    "int-family": (dict(BRICK_CONFIG, inputs={"family": 7}), "config.inputs: 'family' must be"),
    "three-item-shape": (with_changes(SUBCIRCUIT_CONFIG, {"shapes": {"shapes": [[1, 1, 1]]}}),
                         "config.shapes: 'shapes' must be"),
    "string-transpile": (dict(FULL_STACK_CONFIG, transpile="line"),
                         "config: 'transpile' must be"),
    "string-hamiltonian": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {
        "hamiltonian": "tfim"}}}), "config.inputs.family: 'hamiltonian' must be"),
    "transpile-in-low-level": (dict(BRICK_CONFIG, transpile={"coupling": "line"}),
                               "config: unexpected key 'transpile'"),
    "shapes-in-full-stack": (dict(FULL_STACK_CONFIG, shapes=SUBCIRCUIT_CONFIG["shapes"]),
                             "config: unexpected key 'shapes'"),
    "family-and-qasm-paths": (dict(BRICK_CONFIG, inputs=dict(BRICK_CONFIG["inputs"],
                                                             qasm_paths=["a.qasm"])),
                              "config.inputs: unexpected key 'family'"),
    "empty-qasm-paths": (dict(FULL_STACK_CONFIG, inputs={"qasm_paths": []}),
                         "config.inputs: 'qasm_paths' must be a non-empty list"),
    # float() of an integer past the float range raised OverflowError.
    "huge-time": (with_changes(TROTTER_CONFIG, {"inputs": {"family": {"time": 10 ** 400}}}),
                  "config.inputs.family: 'time' must be a finite number"),
    "nan-noise": (dict(BRICK_CONFIG, noise={"lam_1q": float("nan")}),
                  "config.noise: 'lam_1q' must be a finite number, got NaN"),
}.items()})
# A value out of its range named no section, and a Hamiltonian file's rule
# broken by a Pauli string named no file.
TFIM_TROTTER = {"kind": "trotter", "hamiltonian": {"type": "tfim", "n": 3}}
BAD_VALUES.update({
    "trotter-order": (dict(TROTTER_CONFIG, inputs={"family": dict(TFIM_TROTTER, order=3)}),
                      "config error: config.inputs.family: Trotter order must be 1 or 2", None),
    "tfim-ring": (dict(TROTTER_CONFIG, inputs={"family": dict(
        TFIM_TROTTER, hamiltonian={"type": "tfim", "n": 2})}),
        "config error: config.inputs.family.hamiltonian: periodic ring needs n >= 3", None),
    "qaoa-width": (dict(BRICK_CONFIG, inputs={"family": {"kind": "qaoa", "n": 1}}),
                   "config error: config.inputs.family: n must be >= 2", None),
    "approximation-degree": (
        with_changes(FULL_STACK_CONFIG, {"transpile": {"approximation_degree": 0}}),
        "config error: config.transpile: approximation degree must lie in (0, 1]", None),
    "noise-range": (dict(BRICK_CONFIG, noise={"eps_ro": 0.7}),
                    "config error: config.noise: readout flip probability", None),
    "hamiltonian-fractional-n": (FILE_TROTTER_CONFIG,
                                 "config error: ham.json: $: 'n' must be a positive integer, "
                                 "got 3.5", {"n": 3.5, "terms": [[1.0, "ZZI"]]}),
    "hamiltonian-bad-pauli": (FILE_TROTTER_CONFIG, "config error: ham.json: bad Pauli string "
                              "'XQZ'", {"n": 3, "terms": [[1.0, "XQZ"]]}),
})
# A key a file Hamiltonian does not read, left over from another type.
BAD_VALUES["file-hamiltonian-leftover-key"] = (
    with_changes(FILE_TROTTER_CONFIG, {"inputs": {"family": {"hamiltonian": {"n": 3}}}}),
    "config.inputs.family.hamiltonian: unexpected key 'n'", {"n": 3, "terms": [[1.0, "ZZI"]]})
# A coupling object's n and edges were passed on unchecked: each of these
# exited 2 with a message that named no key, or read true as 1.
for name, coupling in {"float-n": {"n": 3.0, "edges": [[0, 1], [1, 2]]},
                       "bool-n": {"n": True, "edges": [[0, 1], [1, 2]]},
                       "float-edge": {"n": 3, "edges": [[0, 1.0], [1, 2]]},
                       "string-edges": {"n": 3, "edges": "01"},
                       "edge-out-of-range": {"n": 3, "edges": [[0, 1], [1, 3]]},
                       "disconnected": {"n": 3, "edges": [[0, 1]]}}.items():
    BAD_VALUES[f"coupling-{name}"] = (dict(FULL_STACK_CONFIG, transpile={"coupling": coupling}),
                                      "config.transpile.coupling", None)


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

    def test_qasm_not_utf8_exits_2(self, runner, tmp_path):
        qasm = tmp_path / "c.qasm"
        qasm.write_bytes(b'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[0];\n// \xff\n')
        cfg = write_config(tmp_path, dict(BRICK_CONFIG, inputs={"qasm_paths": [str(qasm)]}))
        result = run_err(runner, ["generate", "--config", cfg, "--out", str(tmp_path / "x")], 2)
        assert "c.qasm: not UTF-8 text" in result.stderr

    @pytest.mark.parametrize("body, error", [
        ("qreg q[2.5];\n", "line 2, col 8: expected integer index, found '2.5'"),
        ("qreg q[3];\nccx q[0],q[1],q[2];\n", "line 3, col 1: unsupported gate 'ccx'"),
        ("qreg q[2];\nx q[5];\n", "line 3, col 1: qubit out of range for n=2"),
    ])
    def test_qasm_parse_error_names_file_and_position(self, runner, tmp_path, body, error):
        qasm = tmp_path / "b.qasm"
        qasm.write_text("OPENQASM 2.0;\n" + body)
        cfg = write_config(tmp_path, dict(BRICK_CONFIG, inputs={"qasm_paths": [str(qasm)]}))
        result = run_err(runner, ["generate", "--config", cfg, "--out", str(tmp_path / "x")], 2)
        assert result.stderr.startswith(f"config error: {qasm}: {error}"), result.stderr


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
        ["simulate", "--shots", "500"],  # shots come only from the manifest
        ["simulate", "--jobs", "0"], ["analyze", "--bootstrap", "0"],
        ["analyze", "--bootstrap", "1"], ["oracle", "--max-n", "0"],
        ["oracle", "--max-n", str(ORACLE_MAX_N + 1)]])
    def test_simulate_non_positive_count_exits_2(self, runner, tmp_path, args):
        # Covers the count options of every stage; the earlier stages run
        # first, so only the option can make the stage fail.
        stages = {"simulate": "shots.jsonl", "analyze": "results.csv",
                  "oracle": "oracle.csv"}
        stage, *opts = args
        out = self._generate(runner, tmp_path)
        for earlier in list(stages)[:list(stages).index(stage)]:
            run_ok(runner, [earlier, "--out", out])
        result = run_err(runner, [stage, "--out", out, *opts], 2)
        assert result.stderr.startswith("usage error: ")
        assert ("No such option" in result.stderr) == (opts[0] == "--shots")
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
        assert result.stderr.startswith(f"config error: {path}: $[0]"), result.stderr
        assert message in result.stderr
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
        # the lowlevel_dense noise, as the dict-based shot tables wrote them;
        # sigma_boot as the blocked bootstrap draw gives it.
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
        # results.csv without sigma_boot, the one column the bootstrap stream
        # decides: a change of that stream moves only the full digest.
        with open(pathlib.Path(out, "results.csv"), newline="") as fp:
            rows = list(csv.reader(fp))
        drop = rows[0].index("sigma_boot")
        digests["results.csv without sigma_boot"] = hashlib.sha256("\n".join(
            ",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()).hexdigest()
        assert digests == {
            "shots.jsonl": "90c73333390671d6ebb83135d25303224e6c48cfaf3cba51de5b6063a0816298",
            "results.csv": "7a406fc3d74568e3e0dad3bed218fe6ff5344c31351a2d97da872c6610736a33",
            "results.csv without sigma_boot":
                "0d6ef7069a58eff4213a884be5608c99a5c1c33737834680f60c048135be4a8f"}

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["records"].__setitem__(3, 5), "$.records[3]: must be a JSON object"),
        (lambda m: m["records"][0].update(id=["x"]), "$.records[0]: 'id' must be a string"),
        (lambda m: m.update(sampling=5), "$: 'sampling' must be a JSON object"),
        (lambda m: m["records"][1].update(target_bitstring=5),
         "$.records[1]: 'target_bitstring' must be a string"),
        (lambda m: m["records"][0].update(width="3"),
         "$.records[0]: 'width' must be a positive integer"),
    ], ids=["number-record", "list-id", "number-sampling", "number-target", "string-width"])
    def test_malformed_manifest_exits_2(self, runner, tmp_path, edit, message):
        # Each ended analyze, report and oracle in a traceback, except the
        # string width, which report read without a word.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        path = pathlib.Path(out, "manifest.json")
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        for stage in ("analyze", "report", "oracle"):
            result = run_err(runner, [stage, "--out", out], 2)
            assert result.stderr.startswith(f"config error: {path}: {message}"), \
                (stage, result.stderr)

    def test_analyze_names_benchmark_without_a_kind(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        path = pathlib.Path(out, "manifest.json")
        manifest = json.loads(path.read_text())
        manifest["records"] = [r for r in manifest["records"] if r["kind"] != "M3"]
        path.write_text(json.dumps(manifest))
        result = run_err(runner, ["analyze", "--out", out], 2)
        bench = manifest["records"][0]["id"]
        assert f"{bench}: no polarizations for kind M3" in result.stderr

    def test_analyze_names_proxy_of_other_width(self, runner, tmp_path):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        path = pathlib.Path(out, "shots.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0].update(width=2, counts={k[1:]: v for k, v in records[0]["counts"].items()})
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        result = run_err(runner, ["analyze", "--out", out], 2)
        assert f"{records[0]['circuit_id']}: target length 3 != shot width 2" in result.stderr

    @pytest.mark.parametrize("name, index, edit, message", [
        ("shots.jsonl", 0, lambda r: r.__setitem__("widht", r.pop("width")),
         "$[0]: unexpected key 'widht'"),
        ("shots.jsonl", 0, lambda r: r.update(circuit_id=["x"]),
         "$[0]: 'circuit_id' must be a string, got [\"x\"]"),
        ("circuits.jsonl", 1, lambda r: r.update(id=7), "$[1]: 'id' must be a string, got 7"),
        ("circuits.jsonl", 1, lambda r: r.__setitem__("metadata", r.pop("meta")),
         "$[1]: unexpected key 'metadata'"),
    ], ids=["misspelt-width", "list-circuit-id", "int-circuit-id", "misspelt-meta"])
    def test_malformed_record_exits_2_naming_file(self, runner, tmp_path, name, index, edit,
                                                  message):
        # The misspelt keys were skipped (analyze exited 0, the metadata was
        # dropped) and the ids were str()-ed into an exit 3.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        path = pathlib.Path(out, name)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        edit(records[index])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        stage = "analyze" if name == "shots.jsonl" else "simulate"
        result = run_err(runner, [stage, "--out", out], 2)
        assert result.stderr.startswith(f"config error: {path}: {message}"), result.stderr

    def test_oracle_with_benchmark_missing_from_circuits_exits_3(self, runner, tmp_path):
        # oracle wrote an oracle.csv without the benchmark and exited 0.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        path = pathlib.Path(out, "circuits.jsonl")
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join(rest))
        result = run_err(runner, ["oracle", "--out", out], 3)
        assert result.stderr.startswith(
            f"missing data: circuits.jsonl lacks 1 of the manifest's benchmarks: "
            f"{json.loads(first)['id']} (run generate)"), result.stderr
        assert not os.path.exists(os.path.join(out, "oracle.csv"))

    def test_missing_input_file_exits_2_naming_it(self, runner, tmp_path):
        result = run_err(runner, ["generate", "--config", str(tmp_path / "none.json"),
                                  "--out", str(tmp_path / "x")], 2)
        assert result.stderr.startswith(f"config error: {tmp_path / 'none.json'}: cannot read")

    @pytest.mark.parametrize("fake_uniform", [False, True], ids=["dense", "fake-uniform"])
    def test_shots_beyond_budget_fail_each_proxy(self, runner, tmp_path, fake_uniform):
        # Both samplers ended in a MemoryError traceback with exit 1.
        out = self._generate(runner, tmp_path, dict(BRICK_CONFIG, shots=10 ** 11))
        result = runner.invoke(main, ["simulate", "--out", out]
                               + ["--fake-uniform"] * fake_uniform)
        assert result.exit_code == 1 and "Traceback" not in result.output, result.output
        proxies = [r["id"] for r in json.loads(pathlib.Path(out, "manifest.json").read_text())[
            "records"] if r["kind"] != "benchmark"]
        assert result.stderr.splitlines() == [
            f"failed: {cid}: 100000000000 shots x {'3 bits' if fake_uniform else '8 outcomes'}"
            f" exceed the sampling budget of 2^27 elements" for cid in proxies]

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

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[0].update(width="abc"),
         "line 2: 'width' must be a positive integer, got \"abc\""),
        (lambda rows: rows[0].update(F_clamped="7"),
         "line 2: 'F_clamped' must be a number in [0, 1], got \"7\""),
        (lambda rows: rows[0].update(sigma_boot="-1"),
         "line 2: 'sigma_boot' must be a finite number >= 0 or nan, got \"-1\""),
        (lambda rows: rows.append(dict(rows[0])),
         "line 3: 'benchmark_id' \"brick3x6s0\" repeats line 2"),
        (lambda rows: rows[0].update(shape_w="3"),
         "line 2: 'shape_d' must be a positive integer, as shape_w is, got \"\""),
        (lambda rows: rows[0].update(S2="inf"), "line 2: 'S2' must be a finite number"),
    ], ids=["word-width", "F-clamped-above-1", "negative-sigma", "repeated-row",
            "half-a-shape", "infinite-S"])
    def test_results_value_names_file_line_and_column(self, runner, tmp_path, edit, message):
        # The word width ended in a message naming no column, F_clamped 7
        # gave mean_F 7.000000, the repeated row was reported twice and the
        # negative sigma_boot named no file.
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        path = os.path.join(out, "results.csv")
        rows = read_csv(path)
        edit(rows)
        with open(path, "w", newline="") as fp:
            w = csv.DictWriter(fp, list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        result = run_err(runner, ["report", "--out", out], 2)
        assert result.stderr.startswith(f"config error: {path}: {message}"), result.stderr
        assert not os.path.exists(os.path.join(out, "summary.txt"))

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
            ["--out", "--fake-uniform", "--jobs", "--help"]

    def test_simulate_with_proxy_missing_from_circuits_exits_3(self, runner, tmp_path):
        # Shots for the other proxies would only move the failure to analyze.
        out = self._generate(runner, tmp_path)
        path = pathlib.Path(out, "circuits.jsonl")
        lines = path.read_text().splitlines(keepends=True)
        dropped = [json.loads(line)["id"] for line in lines[3:5]]
        path.write_text("".join(lines[:3] + lines[5:]))
        result = run_err(runner, ["simulate", "--out", out], 3)
        assert all(cid in result.stderr for cid in dropped)
        assert result.stderr.rstrip().endswith("(run generate)")
        assert not os.path.exists(os.path.join(out, "shots.jsonl"))

    @pytest.mark.parametrize("name, stage", [
        ("shots.jsonl", "analyze"), ("manifest.json", "analyze"),
        ("circuits.jsonl", "simulate"), ("results.csv", "report")])
    def test_input_not_utf8_exits_2(self, runner, tmp_path, name, stage):
        out = self._generate(runner, tmp_path)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        with open(os.path.join(out, name), "ab") as fp:
            fp.write(b"\xff\xfe\n")
        result = run_err(runner, [stage, "--out", out], 2)
        assert f"{name}: not UTF-8 text" in result.stderr

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
        # width of each circuit it is given.
        cfg = dict(BRICK_CONFIG, shots=50, sampling={"m1": 1, "m2": 1, "m3": 1},
                   inputs={"family": {"kind": "brickwork", "n": 7, "depth": 2,
                                      "seed": 0}})
        out = self._generate(runner, tmp_path, cfg)
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        seen = []

        def oracle_stub(c, nm):
            seen.append(c.n)
            return 1.0

        monkeypatch.setattr(sim, "exact_process_fidelity", oracle_stub)
        run_ok(runner, ["oracle", "--out", out, "--max-n", "7"])
        assert seen == [7]


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

    def test_report_leaves_out_what_algos_cannot_evolve(self, runner, tmp_path, monkeypatch):
        # generate asks algos how wide an exact evolution may be, so the two
        # cannot disagree and end generate in a CapacityError.
        from mirrorbench import algos

        cfg = {"benchmark_type": "low_level", "compile_to_native": True,
               "inputs": {"family": {"kind": "trotter",
                                     "hamiltonian": {"type": "tfim", "n": 3}}},
               "sampling": {"m1": 1, "m2": 1, "m3": 1}, "shots": 20, "seed": 1}
        monkeypatch.setattr(algos, "EVOLUTION_MAX_N", 2)
        with pytest.raises(CapacityError):
            algos.algorithmic_process_fidelity(algos.tfim(3), algos.TrotterSpec())
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        run_ok(runner, ["report", "--out", out])
        summary = pathlib.Path(out, "summary.txt").read_text()
        assert "trotter fidelities" in summary and "F_alg=" not in summary
        records = json.loads(pathlib.Path(out, "manifest.json").read_text())["records"]
        assert [r["trotter"] for r in records if r["kind"] == "benchmark"] == \
            [{"order": 1, "steps": 1, "time": 1.0}]

    def test_report_reads_only_results_and_manifest(self, runner, tmp_path):
        # F_alg is recorded at generate, so report needs neither the
        # Hamiltonian file nor circuits.jsonl nor config.json.
        from mirrorbench import algos

        h = algos.tfim(3)
        ham = tmp_path / "ham.json"
        ham.write_text(json.dumps(h.to_dict()))
        cfg = {"benchmark_type": "low_level", "compile_to_native": True,
               "inputs": {"family": {"kind": "trotter", "orders": [1, 2], "steps_list": [1, 3],
                                     "time": 0.5,
                                     "hamiltonian": {"type": "file", "path": str(ham)}}},
               "sampling": {"m1": 1, "m2": 1, "m3": 1}, "shots": 20, "seed": 1}
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        run_ok(runner, ["report", "--out", out])
        summary = pathlib.Path(out, "summary.txt")
        before = summary.read_bytes()
        assert before.count(b"F_alg=") == 4
        records = json.loads(pathlib.Path(out, "manifest.json").read_text())["records"]
        for r in (r for r in records if r["kind"] == "benchmark"):
            tm = r["trotter"]
            spec = algos.TrotterSpec(tm["order"], tm["steps"], tm["time"])
            assert tm["F_alg"] == algos.algorithmic_process_fidelity(h, spec), r["id"]
        ham.rename(tmp_path / "moved.json")
        for name in ("circuits.jsonl", "config.json", "summary.txt"):
            os.remove(os.path.join(out, name))
        run_ok(runner, ["report", "--out", out])
        assert summary.read_bytes() == before

    def test_generate_evolves_once_per_config(self, runner, tmp_path, monkeypatch):
        # Every circuit of a family shares H and t, so one exp(-iHt) scores them all.
        from mirrorbench import algos

        calls = []
        evolve = algos.exact_evolution_unitary
        monkeypatch.setattr(algos, "exact_evolution_unitary",
                            lambda h, t: calls.append(t) or evolve(h, t))
        cfg = with_changes(TROTTER_CONFIG, {"inputs": {"family": {
            "orders": [1, 2], "steps_list": [1, 2], "time": 0.7}}})
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        assert calls == [0.7]
        records = json.loads(pathlib.Path(out, "manifest.json").read_text())["records"]
        assert sum("F_alg" in r.get("trotter", {}) for r in records) == 4

    def test_subcircuits_of_trotter_inputs_have_no_trotter_section(self, runner, tmp_path,
                                                                   monkeypatch):
        # A snip is not the Trotter circuit, so generate evolves nothing.
        from mirrorbench import algos

        monkeypatch.setattr(algos, "exact_evolution_unitary", None)
        cfg = with_changes(TROTTER_CONFIG, {
            "benchmark_type": "subcircuit", "shots": 20,
            "shapes": {"shapes": [[2, 2]], "samples_per_shape": 1}})
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        run_ok(runner, ["report", "--out", out])
        assert "trotter" not in pathlib.Path(out, "summary.txt").read_text()


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
    @pytest.mark.parametrize("cfg, key", BAD_INTEGERS.values(), ids=BAD_INTEGERS.keys())
    def test_non_integer_count_exits_2_naming_it(self, runner, tmp_path, cfg, key):
        out = str(tmp_path / "exp")
        result = run_err(runner, ["generate", "--config", write_config(tmp_path, cfg),
                                  "--out", out], 2)
        assert key in result.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("cfg, key, hamiltonian", BAD_VALUES.values(),
                             ids=BAD_VALUES.keys())
    def test_mistyped_value_exits_2_naming_it(self, runner, tmp_path, monkeypatch, cfg, key,
                                              hamiltonian):
        monkeypatch.chdir(tmp_path)
        if hamiltonian is not None:
            (tmp_path / "ham.json").write_text(json.dumps(hamiltonian))
        result = run_err(runner, ["generate", "--config", write_config(tmp_path, cfg),
                                  "--out", "exp"], 2)
        assert key in result.stderr
        assert not os.path.exists("exp")

    def test_full_stack_trotter_benchmarks_get_f_alg_lines(self, runner, tmp_path):
        # The circuit's trotter meta survives transpile into the record of
        # each compiled benchmark.
        from mirrorbench import algos

        cfg = {"benchmark_type": "full_stack",
               "inputs": {"family": {"kind": "trotter", "orders": [1, 2],
                                     "hamiltonian": {"type": "tfim", "n": 3}}},
               "transpile": {"coupling": "line", "reps": 1},
               "sampling": {"m1": 1, "m2": 1, "m3": 1}, "shots": 20, "seed": 4}
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        run_ok(runner, ["simulate", "--out", out])
        run_ok(runner, ["analyze", "--out", out, "--bootstrap", "5"])
        run_ok(runner, ["report", "--out", out])
        records = json.loads(pathlib.Path(out, "manifest.json").read_text())["records"]
        bench = [r for r in records if r["kind"] == "benchmark"]
        assert [r["id"] for r in bench] == ["trotter-o1m1t1.rep0.native",
                                            "trotter-o2m1t1.rep0.native"]
        summary = pathlib.Path(out, "summary.txt").read_text()
        for r in bench:
            f_alg = algos.algorithmic_process_fidelity(
                algos.tfim(3), algos.TrotterSpec(r["trotter"]["order"]))
            assert r["trotter"]["F_alg"] == f_alg
            assert f"  {r['id']}: F_alg={f_alg:.6f} F_noise=" in summary

    def benchmark_records(self, runner, tmp_path, cfg):
        out = str(tmp_path / "exp")
        run_ok(runner, ["generate", "--config", write_config(tmp_path, cfg), "--out", out])
        records = json.loads(pathlib.Path(out, "manifest.json").read_text())["records"]
        return [r for r in records if r["kind"] == "benchmark"]

    def test_coupling_wider_than_circuit(self, runner, tmp_path):
        # The idle fourth wire is part of the compiled circuit and of its
        # permutation, and the dense check of the intrinsic fidelity covers it.
        cfg = dict(FULL_STACK_CONFIG, transpile={
            "coupling": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}})
        (rec,) = self.benchmark_records(runner, tmp_path, cfg)
        assert rec["width"] == 4
        assert sorted(rec["permutation"]) == [0, 1, 2, 3]
        assert abs(rec["intrinsic_fidelity"] - 1.0) < 1e-9

    def test_coupling_too_wide_for_dense_check_records_budget(self, runner, tmp_path):
        from mirrorbench.bench import _INTRINSIC_MAX_N

        n = 13
        assert n > _INTRINSIC_MAX_N
        cfg = dict(FULL_STACK_CONFIG, transpile={
            "coupling": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
            "approximation_degree": 0.85})
        (rec,) = self.benchmark_records(runner, tmp_path, cfg)
        assert rec["width"] == n and sorted(rec["permutation"]) == list(range(n))
        # QFT(3)'s CP(pi/4), identity fidelity 0.89, is its one gate dropped at 0.85
        budget = abs(3 + cmath.exp(0.25j * cmath.pi)) ** 2 / 16
        assert rec["intrinsic_fidelity"] == pytest.approx(budget, abs=1e-12)

    def test_qasm_inputs_narrower_than_line(self, runner, tmp_path, monkeypatch):
        # "line" is as wide as the widest input, so the 2-qubit circuit
        # compiles onto three wires.
        monkeypatch.chdir(tmp_path)
        header = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
        (tmp_path / "bell.qasm").write_text(header + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        (tmp_path / "ghz.qasm").write_text(
            header + "qreg q[3];\nh q[0];\ncx q[0],q[2];\ncx q[1],q[2];\n")
        cfg = dict(FULL_STACK_CONFIG, inputs={"qasm_paths": ["bell.qasm", "ghz.qasm"]})
        recs = self.benchmark_records(runner, tmp_path, cfg)
        assert [(r["source_id"], r["width"]) for r in recs] == [("bell", 3), ("ghz", 3)]
        for r in recs:
            assert sorted(r["permutation"]) == [0, 1, 2]
            assert abs(r["intrinsic_fidelity"] - 1.0) < 1e-9

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


# One value of each JSON type; a replacement is one of another type.
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.floats(-2, 3, allow_nan=False), st.text(max_size=3),
                        st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def json_type(v):
    return type(v).__name__  # bool, int and float are told apart


def key_paths(obj, path=()):
    """The path of every key of ``obj``, at any depth of nested objects."""
    for key, value in obj.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*path, key))


class TestConfigMutations:
    @pytest.mark.parametrize("cfg", [BRICK_CONFIG, FULL_STACK_CONFIG, TROTTER_CONFIG,
                                     FILE_TROTTER_CONFIG, SUBCIRCUIT_CONFIG],
                             ids=["brickwork", "full-stack", "trotter", "file-trotter",
                                  "subcircuit"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_bad_key_exits_0_or_2_naming_it(self, cfg, data):
        # With generate's catch-all gone, no value of the wrong JSON type and
        # no misspelt key may end generate in a traceback.
        with tempfile.TemporaryDirectory() as tmp:
            ham = os.path.join(tmp, "ham.json")
            with open(ham, "w") as fp:
                json.dump({"n": 3, "terms": [[1.0, "ZZI"]]}, fp)
            cfg = copy.deepcopy(cfg)
            hamiltonian = cfg["inputs"]["family"].get("hamiltonian", {})
            if "path" in hamiltonian:
                hamiltonian["path"] = ham
            *parents, key = data.draw(st.sampled_from(list(key_paths(cfg))))
            section = cfg
            for k in parents:
                section = section[k]
            if data.draw(st.booleans()):
                value = section[key]
                key = data.draw(st.sampled_from([key[:-1], key + key[-1], key.upper()]).filter(
                    lambda k: k and k not in section))
                section[key] = value
            else:
                original = section[key]
                section[key] = data.draw(JSON_VALUES.filter(
                    lambda v: json_type(v) != json_type(original)))
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fp:
                json.dump(cfg, fp)
            result = CliRunner().invoke(main, ["generate", "--config", path,
                                               "--out", os.path.join(tmp, "exp")])
        assert result.exit_code in (0, 2), result.output
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert len(result.stderr.splitlines()) == 1, result.stderr
            assert f"'{key}'" in result.stderr or f".{key}:" in result.stderr, result.stderr


# experiment file -> the stages that read it
READERS = {"manifest.json": ("simulate", "analyze", "report", "oracle"),
           "circuits.jsonl": ("simulate", "oracle"),
           "shots.jsonl": ("analyze",)}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """A small low-level experiment directory after generate, simulate and analyze."""
    tmp = tmp_path_factory.mktemp("mutations")
    config = tmp / "config.json"
    config.write_text(json.dumps(dict(BRICK_CONFIG, shots=50,
                                      sampling={"m1": 2, "m2": 2, "m3": 2})))
    out = str(tmp / "exp")
    for args in (["generate", "--config", str(config)], ["simulate"],
                 ["analyze", "--bootstrap", "5"]):
        assert CliRunner().invoke(main, [*args, "--out", out]).exit_code == 0
    return out


def read_records(path):
    """The records of a manifest or JSONL file, and a writer of them back."""
    with open(path) as fp:
        if path.endswith(".json"):
            doc = json.load(fp)
            return doc["records"], lambda out: json.dump(doc, out)
        records = [json.loads(line) for line in fp]
    return records, lambda out: out.write("".join(json.dumps(r) + "\n" for r in records))


class TestExperimentFileMutations:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_bad_record_value_exits_0_2_or_3(self, experiment, data):
        # A record of a hand-edited or hardware file with one value of another
        # JSON type, or a misspelt key: each end is one line that names the
        # file, or missing data, never a traceback.
        name = data.draw(st.sampled_from(sorted(READERS)))
        stage = data.draw(st.sampled_from(READERS[name]))
        with tempfile.TemporaryDirectory() as tmp:
            out = shutil.copytree(experiment, os.path.join(tmp, "exp"))
            path = os.path.join(out, name)
            records, write = read_records(path)
            record = records[data.draw(st.integers(0, len(records) - 1))]
            key = data.draw(st.sampled_from(sorted(record)))
            if data.draw(st.booleans()):
                misspelt = data.draw(st.sampled_from([key[:-1], key + key[-1], key.upper()])
                                     .filter(lambda k: k and k not in record))
                record[misspelt] = record[key]
            else:
                original = record[key]
                record[key] = data.draw(JSON_VALUES.filter(
                    lambda v: json_type(v) != json_type(original)))
            with open(path, "w") as fp:
                write(fp)
            bootstrap = ["--bootstrap", "5"] if stage == "analyze" else []
            result = CliRunner().invoke(main, [stage, "--out", out, *bootstrap])
        assert result.exit_code in (0, 2, 3), (result.output, result.exception)
        assert "Traceback" not in result.output
        if result.exit_code:
            start = f"config error: {path}: " if result.exit_code == 2 else "missing data: "
            assert len(result.stderr.splitlines()) == 1, result.stderr
            assert result.stderr.startswith(start), result.stderr
