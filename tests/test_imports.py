"""What each stage process imports, and the package's lazily resolved names."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mirrorbench
from mirrorbench.cli import main

SRC = pathlib.Path(mirrorbench.__file__).resolve().parent.parent
# The real entry point, reporting which modules the stage loaded.
ENTRY = """import json, sys
from mirrorbench.cli import main
try:
    main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""
UNUSED_BY_LATER_STAGES = ("bench", "mirror", "transpile", "algos", "qasm")


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "benchmark_type": "low_level",
        "inputs": {"family": {"kind": "brickwork", "n": 3, "depth": 4, "seed": 0}},
        "sampling": {"m1": 2, "m2": 2, "m3": 2},
        "shots": 50,
        "seed": 5,
    }))
    out = str(tmp / "exp")
    runner = CliRunner()
    for args in (["generate", "--config", str(config)], ["simulate"],
                 ["analyze", "--bootstrap", "5"]):
        result = runner.invoke(main, [*args, "--out", out])
        assert result.exit_code == 0, result.output
    return out


def stage_modules(*args: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ENTRY, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code in (0, None), proc.stderr
    return set(modules)


def test_help_does_not_load_numpy():
    assert "numpy" not in stage_modules("--help")


def test_report_does_not_load_numpy(experiment):
    modules = stage_modules("report", "--out", experiment)
    assert "numpy" not in modules
    assert os.path.exists(os.path.join(experiment, "summary.txt"))


def test_trotter_report_reads_no_circuit_code(tmp_path):
    # The Trotter fidelities come from manifest.json, so report loads neither
    # numpy nor the circuit, storage or Hamiltonian code.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "benchmark_type": "low_level",
        "compile_to_native": True,
        "inputs": {"family": {"kind": "trotter", "hamiltonian": {"type": "tfim", "n": 3}}},
        "sampling": {"m1": 1, "m2": 1, "m3": 1},
        "shots": 20,
        "seed": 5,
    }))
    out = str(tmp_path / "exp")
    for args in (["generate", "--config", str(config)], ["simulate", "--fake-uniform"],
                 ["analyze", "--bootstrap", "5"]):
        result = CliRunner().invoke(main, [*args, "--out", out])
        assert result.exit_code == 0, result.output
    modules = stage_modules("report", "--out", out)
    unused = {"numpy", "mirrorbench.storage", "mirrorbench.circuits", "mirrorbench.algos"}
    assert unused & modules == set()
    assert "F_alg=" in pathlib.Path(out, "summary.txt").read_text()


@pytest.mark.parametrize("args", [["simulate"], ["analyze", "--bootstrap", "5"],
                                  ["oracle"]], ids=lambda a: a[0])
def test_later_stages_skip_generate_modules(experiment, args):
    modules = stage_modules(*args, "--out", experiment)
    loaded = [m for m in UNUSED_BY_LATER_STAGES if f"mirrorbench.{m}" in modules]
    assert loaded == []


@pytest.mark.parametrize("args", [["analyze", "--bootstrap", "5"], ["simulate", "--fake-uniform"]],
                         ids=lambda a: "-".join(a[:2]))
def test_shot_stages_skip_simulator_and_circuits(experiment, args):
    # Shot tables, their file and the manifest need neither.
    modules = stage_modules(*args, "--out", experiment)
    assert {"mirrorbench.sim", "mirrorbench.circuits", "mirrorbench.storage"} & modules == set()
    assert {"mirrorbench.shots", "numpy"} <= modules


def test_oracle_without_qualifying_benchmarks_does_not_load_numpy(experiment):
    # No benchmark of the experiment is as narrow as --max-n.
    assert "numpy" not in stage_modules("oracle", "--max-n", "2", "--out", experiment)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The real entry point, reporting the BLAS variables and the process's OS
# threads (a BLAS pool starts its threads when numpy loads) once the stage ran.
THREADS_ENTRY = """import json, os, sys
from mirrorbench.cli import main
try:
    main(sys.argv[1:])
except SystemExit as e:
    code = e.code
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([code, {v: os.environ.get(v) for v in %r}, threads]), file=sys.stderr)
""" % (BLAS_VARS,)


@pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "user-set"])
def test_simulate_runs_with_one_blas_thread_unless_user_sets_it(experiment, user):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", THREADS_ENTRY, "simulate", "--out", experiment],
                          env={**env, **user}, capture_output=True, text=True, timeout=120)
    code, seen, threads = json.loads(proc.stderr.splitlines()[-1])
    assert code in (0, None), proc.stderr
    assert seen == {v: user.get(v, "1") for v in BLAS_VARS}
    if not user:
        assert threads in (None, 1)


def test_conftest_sets_blas_threads_before_numpy_loads():
    import conftest

    assert not conftest.NUMPY_LOADED_BEFORE
    assert all(os.environ.get(v) for v in conftest.BLAS_THREAD_VARS)


def test_public_names_resolve_to_their_defining_objects():
    # A loaded submodule does not shadow the public function of its name.
    importlib.import_module("mirrorbench.transpile")
    for name in mirrorbench.__all__:
        obj = getattr(mirrorbench, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_moved_names_are_reexported_unchanged():
    from mirrorbench import algos, analysis, circuits, core, manifest, qasm, shots, sim, storage

    pairs = [(algos, "full_process_fidelity"), (circuits, "CapacityError"),
             (circuits, "ContractError"),
             (storage, "SchemaError"), (storage, "open_atomic"), (qasm, "QasmError"),
             (sim, "NoiseModel"), (analysis, "FidelityRecord"),
             (analysis, "volumetric_summary"), (analysis, "render_volumetric_svg")]
    for module, name in pairs:
        assert getattr(module, name) is getattr(core, name), (module.__name__, name)
        assert name in module.__all__
    for home, module, name in [
            (shots, sim, "ShotTable"), (shots, sim, "derive_seed"),
            (shots, sim, "fake_uniform_shots"), (shots, storage, "read_shot_tables"),
            (shots, storage, "write_shot_tables"), (manifest, storage, "Manifest"),
            (manifest, storage, "read_manifest"), (manifest, storage, "write_manifest")]:
        assert getattr(module, name) is getattr(home, name), (module.__name__, name)
        assert name in module.__all__


def test_package_dir_and_unknown_names():
    assert set(mirrorbench.__all__) <= set(dir(mirrorbench))
    with pytest.raises(AttributeError):
        mirrorbench.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mirrorbench import no_such_name  # noqa: F401


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
# The benchmark's traced mode: the five stages in-process, then its tracer,
# which looks up every module that defines a traced function.
TRACED_ENTRY = """import sys
sys.path.insert(0, sys.argv[1])
from mirrorbench.cli import main
from spans import Tracer
config, out = sys.argv[2:]
for args in (["generate", "--config", config], ["simulate", "--fake-uniform"],
             ["analyze", "--bootstrap", "5"], ["report"], ["oracle"]):
    main([*args, "--out", out], standalone_mode=False)
with Tracer().installed():
    pass
"""


def test_benchmark_tracer_installs_after_fake_uniform_pipeline(tmp_path):
    # Too wide for the oracle and with fake-uniform shots, as the benchmark's
    # widest workload: no stage after generate needs the simulator.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "benchmark_type": "low_level",
        "inputs": {"family": {"kind": "brickwork", "n": 8, "depth": 2, "seed": 0}},
        "sampling": {"m1": 1, "m2": 1, "m3": 1},
        "shots": 20,
        "seed": 5,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_ENTRY, str(PERFBENCH), str(config),
                           str(tmp_path / "exp")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
