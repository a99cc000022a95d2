"""Command-line pipeline: generate -> simulate -> analyze -> report / oracle.

Each stage reads and writes files in one experiment directory:

    config.json     copy of the experiment configuration
    manifest.json   benchmark + proxy records
    circuits.jsonl  all circuits, one JSON object per line
    shots.jsonl     one shot table per proxy circuit
    results.csv     fidelity estimates per benchmark
    oracle.csv      exact process fidelities next to the estimates
    report.svg      volumetric summary plot
    summary.txt     human-readable report

Exit codes: 0 success, 1 partial simulation failure, 2 config error,
3 missing data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import time

import click
import numpy as np

from mirrorbench import algos
from mirrorbench.algos import PauliSumHamiltonian, TrotterSpec
from mirrorbench.bench import (
    BenchmarkSuite,
    ShapeSpec,
    build_full_stack,
    build_low_level,
    build_subcircuit,
)
from mirrorbench.circuits import CapacityError, Circuit, ContractError, CouplingGraph
from mirrorbench.mirror import SamplingParams
from mirrorbench.qasm import parse_qasm
from mirrorbench.sim import (
    NoiseModel,
    ShotTable,
    derive_seed,
    exact_process_fidelity,
    fake_uniform_shots,
    sample_shots,
)
from mirrorbench.storage import (
    Manifest,
    SchemaError,
    read_circuits,
    read_manifest,
    read_shot_tables,
    write_circuits,
    write_manifest,
    write_shot_tables,
)
from mirrorbench.analysis import (
    FidelityRecord,
    estimate_benchmark,
    render_volumetric_svg,
    volumetric_summary,
)
from mirrorbench.transpile import TranspileConfig

EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3


class ConfigError(Exception):
    pass


# --- configuration ------------------------------------------------------------------


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _coupling_from(obj, n_hint: int | None) -> CouplingGraph:
    if obj == "line":
        if n_hint is None:
            raise ConfigError("coupling 'line' needs circuit width context")
        return CouplingGraph.line(n_hint)
    if obj == "all_to_all":
        if n_hint is None:
            raise ConfigError("coupling 'all_to_all' needs circuit width context")
        return CouplingGraph.all_to_all(n_hint)
    if isinstance(obj, dict):
        return CouplingGraph(obj["n"], frozenset(tuple(e) for e in obj["edges"]))
    raise ConfigError(f"bad coupling spec {obj!r}")


def _hamiltonian_from(spec: dict) -> PauliSumHamiltonian:
    kind = _require(spec, "type", "hamiltonian")
    if kind == "tfim":
        return algos.tfim(int(_require(spec, "n", "hamiltonian")))
    if kind == "heisenberg":
        return algos.heisenberg(int(_require(spec, "n", "hamiltonian")))
    if kind == "max3sat":
        return algos.max3sat(int(_require(spec, "n", "hamiltonian")),
                             int(spec.get("r", 2)), int(spec.get("seed", 0)))
    if kind == "file":
        with open(_require(spec, "path", "hamiltonian"), encoding="utf-8") as fp:
            return PauliSumHamiltonian.from_dict(json.load(fp))
    raise ConfigError(f"unknown hamiltonian type {kind!r}")


def _input_circuits(cfg: dict) -> list[Circuit]:
    """Input circuits: a built-in family spec or QASM files."""
    inputs = _require(cfg, "inputs")
    out: list[Circuit] = []
    if "qasm_paths" in inputs:
        for path in inputs["qasm_paths"]:
            with open(path, encoding="utf-8") as fp:
                c = parse_qasm(fp.read())
            out.append(c.with_id(os.path.splitext(os.path.basename(path))[0]))
        return out
    family = _require(inputs, "family", "inputs")
    kind = _require(family, "kind", "inputs.family")
    if kind == "brickwork":
        return [algos.brickwork_u3_cz(int(_require(family, "n", "family")),
                                      int(_require(family, "depth", "family")),
                                      int(family.get("seed", 0)))]
    if kind == "qft":
        return [algos.qft_circuit(int(_require(family, "n", "family")))]
    if kind == "qaoa":
        return [algos.qaoa_circuit(int(_require(family, "n", "family")),
                                   int(family.get("seed", 0)),
                                   int(family.get("reps", 1)))]
    if kind == "trotter":
        h = _hamiltonian_from(_require(family, "hamiltonian", "family"))
        orders = family.get("orders", [family.get("order", 1)])
        steps = family.get("steps_list", [family.get("steps", 1)])
        t = float(family.get("time", 1.0))
        circs = []
        for order in orders:
            for m in steps:
                c = algos.trotter_circuit(h, TrotterSpec(int(order), int(m), t))
                circs.append(c)
        return circs
    raise ConfigError(f"unknown circuit family {kind!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fp:
            cfg = json.load(fp)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    bt = _require(cfg, "benchmark_type")
    if bt not in ("low_level", "full_stack", "subcircuit"):
        raise ConfigError(f"bad benchmark_type {bt!r}")
    if "seed" not in cfg:
        raise ConfigError("config: 'seed' is mandatory (reproducibility)")
    return cfg


def _sampling_from(cfg: dict) -> SamplingParams:
    s = cfg.get("sampling", {})
    return SamplingParams(int(s.get("m1", 10)), int(s.get("m2", 10)),
                          int(s.get("m3", 10)), int(cfg["seed"]))


def _noise_from(obj: dict | None) -> NoiseModel:
    if not obj:
        return NoiseModel.noiseless()
    return NoiseModel.from_dict(obj)


def _build(cfg: dict) -> BenchmarkSuite:
    circuits = _input_circuits(cfg)
    params = _sampling_from(cfg)
    shots = int(cfg.get("shots", 1000))
    bt = cfg["benchmark_type"]
    if cfg.get("compile_to_native") and bt != "full_stack":
        from mirrorbench.transpile import decompose_to_basis
        circuits = [decompose_to_basis(c) for c in circuits]
    if bt == "low_level":
        return build_low_level(circuits, params, shots)
    if bt == "full_stack":
        tc = cfg.get("transpile", {})
        n_hint = max(c.n for c in circuits)
        coupling = _coupling_from(tc.get("coupling", "all_to_all"), n_hint)
        tcfg = TranspileConfig(coupling,
                               float(tc.get("approximation_degree", 1.0)),
                               int(cfg["seed"]))
        return build_full_stack(circuits, tcfg, int(tc.get("reps", 1)),
                                params, shots)
    shapes_cfg = _require(cfg, "shapes")
    shapes = ShapeSpec(tuple(tuple(s) for s in shapes_cfg["shapes"]),
                       int(shapes_cfg.get("samples_per_shape", 30)))
    return build_subcircuit(circuits, shapes, params, shots)


# --- commands ------------------------------------------------------------------------


@click.group()
def main():
    """Scalable mirror-circuit fidelity benchmarks."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def generate(config_path: str, out_dir: str):
    """Create a benchmark suite: manifest.json + circuits.jsonl."""
    t0 = time.monotonic()
    try:
        cfg = _load_config(config_path)
        suite = _build(cfg)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "circuits.jsonl"), "w",
                  encoding="utf-8") as fp:
            count = write_circuits(fp, suite.circuits)
        write_manifest(os.path.join(out_dir, "manifest.json"), suite.manifest)
        with open(os.path.join(out_dir, "config.json"), "w",
                  encoding="utf-8") as fp:
            json.dump(cfg, fp, indent=1)
            fp.write("\n")
    except (ConfigError, SchemaError, ContractError) as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(EXIT_CONFIG)
    proxies = sum(1 for r in suite.manifest.records if r["kind"] in ("M1", "M2", "M3"))
    click.echo(f"generated {count} circuits ({proxies} proxies) "
               f"in {time.monotonic() - t0:.2f}s -> {out_dir}")


def _simulate_one(payload):
    from mirrorbench.storage import circuit_from_json
    line, nm_dict, shots, seed, fake = payload
    c = circuit_from_json(line)
    if fake:
        return fake_uniform_shots(c.n, shots, seed, c.id), None
    try:
        return sample_shots(c, NoiseModel.from_dict(nm_dict), shots, seed), None
    except CapacityError as e:
        return None, f"{c.id}: {e}"


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--noise", "noise_path", type=click.Path(exists=True))
@click.option("--fake-uniform", is_flag=True,
              help="Emit uniform random shot tables instead of simulating.")
@click.option("--shots", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1)
def simulate(out_dir, noise_path, fake_uniform, shots, seed, jobs):
    """Produce shots.jsonl for every proxy circuit in the suite."""
    t0 = time.monotonic()
    manifest = read_manifest(os.path.join(out_dir, "manifest.json"))
    with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fp:
        cfg = json.load(fp)
    if noise_path:
        with open(noise_path, encoding="utf-8") as fp:
            nm = _noise_from(json.load(fp))
    else:
        nm = _noise_from(cfg.get("noise"))
    if shots is None:
        shots = int(manifest.sampling.get("shots", 1000))
    master = seed if seed is not None else int(cfg["seed"])
    mirror_ids = {r["id"] for r in manifest.mirror_records()}

    payloads = []
    with open(os.path.join(out_dir, "circuits.jsonl"), encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            cid = json.loads(line)["id"]
            if cid not in mirror_ids:
                continue
            s = int(derive_seed(master, cid, "shots").integers(0, 2 ** 31))
            payloads.append((line, nm.to_dict(), shots, s, fake_uniform))

    failures = []
    with contextlib.ExitStack() as stack:
        fp = stack.enter_context(
            open(os.path.join(out_dir, "shots.jsonl"), "w", encoding="utf-8"))
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            ex = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = ex.map(_simulate_one, payloads, chunksize=8)
        else:
            results = map(_simulate_one, payloads)
        for table, err in results:
            if err:
                failures.append(err)
            else:
                write_shot_tables(fp, [table])
    click.echo(f"simulated {len(payloads) - len(failures)}/{len(payloads)} "
               f"proxies in {time.monotonic() - t0:.2f}s")
    if failures:
        for f in failures:
            click.echo(f"failed: {f}", err=True)
        sys.exit(EXIT_PARTIAL)


RESULT_COLUMNS = ["benchmark_id", "kind", "width", "depth", "shape_w", "shape_d",
                  "F_hat", "F_clamped", "sigma_boot", "S1", "S2", "S3", "flags"]


def _analyze_records(out_dir: str, bootstrap: int = 200) -> list[FidelityRecord]:
    manifest = read_manifest(os.path.join(out_dir, "manifest.json"))
    with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fp:
        cfg = json.load(fp)
    shots_path = os.path.join(out_dir, "shots.jsonl")
    if not os.path.exists(shots_path):
        click.echo("missing data: shots.jsonl not found (run simulate)", err=True)
        sys.exit(EXIT_MISSING)
    with open(shots_path, encoding="utf-8") as fp:
        tables = {t.circuit_id: t for t in read_shot_tables(fp)}
    benchmarks = [r for r in manifest.records if r["kind"] == "benchmark"]
    mirrors = manifest.mirror_records()
    missing = [r["id"] for r in mirrors if r["id"] not in tables]
    if missing:
        click.echo("missing data: no shots for " + ", ".join(missing[:20]) +
                   (" ..." if len(missing) > 20 else ""), err=True)
        sys.exit(EXIT_MISSING)
    records = []
    for b in benchmarks:
        by_kind: dict[str, list[tuple[ShotTable, str]]] = {"M1": [], "M2": [], "M3": []}
        for r in mirrors:
            if r["parent_id"] == b["id"]:
                by_kind[r["kind"]].append((tables[r["id"]], r["target_bitstring"]))
        shape = tuple(b["shape"]) if "shape" in b else None
        rec = estimate_benchmark(b["id"], b["width"], b["depth"], by_kind,
                                 bootstrap=bootstrap, seed=int(cfg["seed"]),
                                 shape=shape)
        records.append(rec)
    return records


def _write_results(out_dir: str, records: list[FidelityRecord]):
    with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8",
              newline="") as fp:
        w = csv.writer(fp)
        w.writerow(RESULT_COLUMNS)
        for r in records:
            sw, sd = r.shape if r.shape else ("", "")
            w.writerow([r.benchmark_id, r.kind, r.width, r.depth, sw, sd,
                        f"{r.F_hat:.10g}", f"{r.F_clamped:.10g}",
                        f"{r.sigma_boot:.10g}", f"{r.S1:.10g}",
                        f"{r.S2:.10g}", f"{r.S3:.10g}", ";".join(r.flags)])


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--bootstrap", type=int, default=200)
def analyze(out_dir, bootstrap):
    """Estimate fidelities for every benchmark; write results.csv."""
    t0 = time.monotonic()
    records = _analyze_records(out_dir, bootstrap)
    _write_results(out_dir, records)
    click.echo(f"analyzed {len(records)} benchmarks in {time.monotonic() - t0:.2f}s")


def _read_results(out_dir: str) -> list[dict]:
    path = os.path.join(out_dir, "results.csv")
    if not os.path.exists(path):
        click.echo("missing data: results.csv not found (run analyze)", err=True)
        sys.exit(EXIT_MISSING)
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
def report(out_dir):
    """Render report.svg and summary.txt from results.csv."""
    rows = _read_results(out_dir)
    with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fp:
        cfg = json.load(fp)
    recs = []
    for row in rows:
        shape = ((int(row["shape_w"]), int(row["shape_d"]))
                 if row["shape_w"] else None)
        recs.append(FidelityRecord(
            row["benchmark_id"], float(row["F_hat"]), float(row["F_clamped"]),
            float(row["sigma_boot"]), float(row["S1"]), float(row["S2"]),
            float(row["S3"]), int(row["width"]), int(row["depth"]), shape,
            flags=tuple(f for f in row["flags"].split(";") if f)))
    with open(os.path.join(out_dir, "report.svg"), "w", encoding="utf-8") as fp:
        fp.write(render_volumetric_svg(recs))
    lines = ["benchmark summary", "=================", ""]
    lines.append(volumetric_summary(recs).rstrip())
    family = cfg.get("inputs", {}).get("family", {})
    if family.get("kind") == "trotter":
        h = _hamiltonian_from(family["hamiltonian"])
        lines += ["", "trotter fidelities (algorithmic / noise / full):"]
        with open(os.path.join(out_dir, "circuits.jsonl"), encoding="utf-8") as fp:
            meta_by_id = {}
            for c in read_circuits(fp):
                if "trotter" in c.meta:
                    meta_by_id[c.id] = c.meta["trotter"]
        for r in recs:
            tm = meta_by_id.get(r.benchmark_id)
            if tm is None or h.n > 10:
                continue
            spec = TrotterSpec(int(tm["order"]), int(tm["steps"]),
                               float(tm["time"]))
            f_alg = algos.algorithmic_process_fidelity(h, spec)
            f_full = algos.full_process_fidelity(f_alg, r.F_clamped)
            lines.append(f"  {r.benchmark_id}: F_alg={f_alg:.6f} "
                         f"F_noise={r.F_clamped:.6f} F_full={f_full:.6f}")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")
    click.echo(f"report written for {len(recs)} benchmarks")


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--max-n", type=int, default=6,
              help="Largest width for the exact oracle.")
def oracle(out_dir, max_n):
    """Exact process fidelities (n <= max-n) next to the estimates."""
    rows = _read_results(out_dir)
    f_hat = {row["benchmark_id"]: float(row["F_hat"]) for row in rows}
    with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fp:
        cfg = json.load(fp)
    nm = _noise_from(cfg.get("noise"))
    out_rows = []
    with open(os.path.join(out_dir, "circuits.jsonl"), encoding="utf-8") as fp:
        benchmark_ids = set(f_hat)
        for c in read_circuits(fp):
            if c.id in benchmark_ids and c.n <= max_n:
                f = exact_process_fidelity(c, nm, max_n=max_n)
                est = f_hat[c.id]
                dev = abs(est - f) if not math.isnan(est) else float("nan")
                out_rows.append((c.id, f, est, dev))
    with open(os.path.join(out_dir, "oracle.csv"), "w", encoding="utf-8",
              newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["benchmark_id", "F_exact", "F_hat", "abs_deviation"])
        for cid, f, est, dev in out_rows:
            w.writerow([cid, f"{f:.10g}", f"{est:.10g}", f"{dev:.10g}"])
    click.echo(f"oracle computed for {len(out_rows)} benchmarks (n <= {max_n})")


if __name__ == "__main__":
    main()
