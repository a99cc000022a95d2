"""Pipeline benchmark for mirrorbench: one workload (or all four) end to end.

    python3 perfbench/run.py --workload lowlevel_dense --seed 1 --seconds 28 --trace 0

``--trace 0`` runs each stage as its own ``mirrorbench`` process, the way a
user runs the pipeline, and reports the end-to-end metrics. ``--trace 1``
drives the same stages in-process, alternating untraced and traced rounds,
and reports the per-layer metrics from the spans of the traced rounds plus
the tracing overhead. Either way the last round's outputs are checked
against the reference computations in ``reference.py``.

Every metric is printed as ``<workload> <name> <value> <unit>``; the last
line is one JSON object with the metrics that BENCHMARK.json lists for the
chosen mode. Exit status 2 means the program could not be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
SETUP_REPEATS = 5
# One BLAS thread for every stage process and for the in-process traced run.
# With the default pool (two threads on a 2-vCPU host) the wall times of
# simulate spread by 40% between runs and it burns 2.5x the CPU time; see
# README.md.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGE_TIMEOUT_S = 150
# What the installed ``mirrorbench`` console script runs.
ENTRY = "import sys; from mirrorbench.cli import main; sys.exit(main())"


def _load_program():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (SRC / "mirrorbench" / "cli.py").is_file():
        print(f"perfbench: no mirrorbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mirrorbench

    if Path(mirrorbench.__file__).resolve().parent != SRC / "mirrorbench":
        print(f"perfbench: imported mirrorbench from {mirrorbench.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_process(args: list[str], env: dict, log) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of one CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args], cwd=ROOT, env=env,
                            stdout=log, stderr=log)
    watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def _dir_digest_and_bytes(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.work = OUT / workload.name
        self.exp = self.work / "exp"
        self.config_path = self.work / "input-config.json"
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(workload.config(seed), indent=1) + "\n")

    def stage_args(self, stage: str) -> list[str]:
        return self.w.stage_args(stage, str(self.config_path), str(self.exp))

    def rounds(self, seconds: float, one_round, min_rounds: int) -> list:
        """Whole rounds until the next one would end after ``seconds``."""
        results, took = [], []
        t0 = time.perf_counter()
        while len(results) < min_rounds or (
                time.perf_counter() - t0 + statistics.fmean(took) <= seconds):
            start = time.perf_counter()
            shutil.rmtree(self.exp, ignore_errors=True)
            results.append(one_round(len(results)))
            took.append(time.perf_counter() - start)
        return results

    def finish_round(self) -> int:
        digest, size = _dir_digest_and_bytes(self.exp)
        self.digests.append(digest)
        return size

    # --- untraced: one process per stage ------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        from workloads import STAGES

        env = _stage_env()
        log = open(self.work / "stages.log", "wb")
        with log:
            setup = []
            for _ in range(SETUP_REPEATS):
                wall, cpu, _, rc = _run_process(["--help"], env, log)
                self.attempted += 1
                self.failed += rc != 0
                setup.append((wall, cpu))

            def one_round(_):
                times, rss = {}, []
                for stage in STAGES:
                    wall, cpu, peak, rc = _run_process(self.stage_args(stage), env, log)
                    self.attempted += 1
                    if rc != 0:
                        self.failed += 1
                        return None
                    times[stage] = (wall, cpu)
                    rss.append(peak)
                return times, max(rss), self.finish_round()

            rounds = [r for r in self.rounds(seconds, one_round, MIN_ROUNDS) if r is not None]
        if not rounds:
            sys.exit(f"perfbench: every round had a failing stage; see {log.name}")
        med = statistics.median
        m = {"setup_s": (med([w for w, _ in setup]), "s"),
             "setup_cpu_s": (med([c for _, c in setup]), "s")}
        for stage in STAGES:
            m[f"{stage}_s"] = (med([t[stage][0] for t, _, _ in rounds]), "s")
            m[f"{stage}_cpu_s"] = (med([t[stage][1] for t, _, _ in rounds]), "s")
        m["pipeline_s"] = (med([sum(w for w, _ in t.values()) for t, _, _ in rounds]), "s")
        m["pipeline_cpu_s"] = (med([sum(c for _, c in t.values()) for t, _, _ in rounds]), "s")
        m["rounds"] = (len(rounds), "count")
        m["peak_rss_mb"] = (med([rss for _, rss, _ in rounds]), "MB")
        m["artifacts_mb"] = (med([size for _, _, size in rounds]) / 1e6, "MB")
        return m

    # --- traced: stages in-process with spans ------------------------------------

    def _in_process(self, stage: str) -> int:
        import click
        from mirrorbench import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(self.stage_args(stage), standalone_mode=False)
                return 0
            except SystemExit as e:
                return e.code if isinstance(e.code, int) else 1
            except click.ClickException as e:
                return e.exit_code

    def per_layer(self, seconds: float) -> dict:
        from spans import Tracer, layer_metrics
        from workloads import STAGES

        def one_round(index):
            traced = index % 2 == 1
            tracer = Tracer()
            span = tracer.span if traced else (lambda name: contextlib.nullcontext())
            total = 0.0
            with tracer.installed() if traced else contextlib.nullcontext():
                for stage in STAGES:
                    t0 = time.perf_counter()
                    with span(f"cli.{stage}"):
                        rc = self._in_process(stage)
                    total += time.perf_counter() - t0
                    self.attempted += 1
                    if rc != 0:
                        self.failed += 1
                        return traced, None, None
            self.finish_round()
            if not traced:
                return traced, total, None
            sizes = [(self.exp / f).stat().st_size for f in ("circuits.jsonl", "shots.jsonl")]
            return traced, total, layer_metrics(tracer, STAGES, *sizes)

        # Untraced and traced rounds alternate, two of each at least.
        rounds = [r for r in self.rounds(seconds, one_round, 2 * 2) if r[1] is not None]
        if not any(traced for traced, _, _ in rounds) or all(traced for traced, _, _ in rounds):
            sys.exit("perfbench: no complete traced and untraced round")
        med = statistics.median
        plain = med([t for traced, t, _ in rounds if not traced])
        with_spans = med([t for traced, t, _ in rounds if traced])
        layers = [m for traced, _, m in rounds if traced]
        # Counts repeat exactly from round to round; times take the median.
        out = {name: ((statistics.median_low if unit in ("count", "bytes") else med)(
                   [m[name][0] for m in layers]), unit)
               for name, (_, unit) in layers[0].items()}
        out["trace.untraced_pipeline_s"] = (plain, "s")
        out["trace.traced_pipeline_s"] = (with_spans, "s")
        out["trace.overhead_pct"] = ((with_spans - plain) / plain * 100.0, "%")
        out.update(apply_gate_kernels())
        return out

    def check(self):
        from checks import Checks, Experiment

        checks = Checks()
        checks.expect(len(set(self.digests)) == 1,
                      f"outputs differ between rounds of one seed ({len(set(self.digests))} variants)")
        self.w.check(Experiment(str(self.exp)), checks, self.w.oracle_max_n)
        return checks


def apply_gate_kernels(n: int = 8, shots: int = 1000, repeats: int = 9) -> dict:
    """``circuits.apply_gate`` per gate kind on the lowlevel_dense batch shape.

    Measured twice, keeping the second pass: in a fresh process the first
    few megabyte-sized results are fresh mappings whose page faults cost
    about 3 ms a call, which a long simulation no longer pays. Bytes moved
    are computed (one read and one write of the complex128 state), not
    measured.
    """
    import numpy as np
    from mirrorbench.circuits import apply_gate, gate_matrix

    gates = {"U3": (gate_matrix("U3", (0.3, 0.2, 0.1)), (3,)),
             "CZ": (gate_matrix("CZ"), (3, 4)),
             "RZ": (gate_matrix("RZ", (0.4,)), (3,))}
    for _ in range(2):
        rng = np.random.default_rng(0)
        state = (rng.standard_normal((2,) * n + (shots,))
                 + 1j * rng.standard_normal((2,) * n + (shots,)))
        m = {}
        for kind, (mat, qubits) in gates.items():
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                apply_gate(mat, state, qubits, n)
                times.append(time.perf_counter() - t0)
            m[f"circuits.apply_gate_us.{kind}"] = (statistics.median(times) * 1e6, "us")
    m["circuits.apply_gate_bytes"] = (2 * state.nbytes, "bytes")
    return m


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool, listed: dict) -> dict:
    from workloads import WORKLOADS

    run = Run(WORKLOADS[name], seed)
    metrics = run.per_layer(seconds) if trace else run.end_to_end(seconds)
    t0 = time.perf_counter()
    checks = run.check()
    checks.notes["wall_s"] = time.perf_counter() - t0
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"{name} {metric} {_fmt(value)} {unit}")
    for note, value in sorted(checks.notes.items()):
        print(f"{name} check.{note} {_fmt(value)}")
    print(f"{name} stages attempted {run.attempted} failed {run.failed}")
    print(f"{name} checks attempted {checks.attempted} failed {checks.failed}")
    for message in checks.messages:
        print(f"{name} check failed: {message}")
    chosen = {}
    for metric, unit in listed.items():
        value, got_unit = metrics[metric]
        if got_unit != unit:
            raise ValueError(f"{metric}: unit {got_unit} != {unit} in BENCHMARK.json")
        chosen[metric] = {"value": value, "unit": unit}
    return {"correct": checks.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": chosen}


def main(argv=None) -> int:
    _load_program()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    results = {n: run_workload(n, a.seed, a.seconds, bool(a.trace), listed) for n in names}
    result = results[a.workload] if a.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
