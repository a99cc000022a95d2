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

Every stage reads the noise model and seed from the config.json that
generate wrote, and from nowhere else.

Exit codes: 0 success, 1 partial simulation failure, 2 usage or config error
(a bad option, config value, input file or artifact), 3 missing data (a file
an earlier stage writes). Exit codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import time
from typing import TYPE_CHECKING

import click

# Each stage runs in its own process, and its import time is a large part of
# its wall time, so this module imports only the stdlib-only ``core`` at the
# top. The numpy modules are imported inside the commands and helpers that
# call them: ``--help`` and ``report`` never load numpy, and no stage
# compiles a module it does not run.
from mirrorbench.core import (
    CapacityError,
    ContractError,
    ORACLE_MAX_N,
    FidelityRecord,
    NoiseModel,
    QasmError,
    SchemaError,
    full_process_fidelity,
    is_number,
    open_atomic,
    render_volumetric_svg,
    volumetric_summary,
)

if TYPE_CHECKING:
    from mirrorbench.algos import PauliSumHamiltonian
    from mirrorbench.bench import BenchmarkSuite
    from mirrorbench.circuits import Circuit, CouplingGraph
    from mirrorbench.manifest import Manifest
    from mirrorbench.mirror import SamplingParams
    from mirrorbench.shots import ShotTable

EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3


class ConfigError(Exception):
    """A configuration value, or an input file it names, is unusable."""


class MissingDataError(Exception):
    """An experiment file that an earlier stage writes is absent."""


_WRITTEN_BY = {"shots.jsonl": "simulate", "results.csv": "analyze"}
# What the later stages derive from a suite; a new suite makes them stale.
_DERIVED = ("shots.jsonl", "results.csv", "oracle.csv", "summary.txt", "report.svg")


def _input(out_dir: str, name: str) -> str:
    """Path of an experiment file, or a MissingDataError naming its stage."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        stage = _WRITTEN_BY.get(name, "generate")
        raise MissingDataError(f"{name} not found in {out_dir} (run {stage})")
    return path


def _some(ids: list[str]) -> str:
    """The first 20 of ``ids``, for a one-line message."""
    return ", ".join(ids[:20]) + (" ..." if len(ids) > 20 else "")


@contextlib.contextmanager
def _decoding(path: str):
    """Bytes in ``path`` that are not UTF-8, or QASM that does not parse, end
    the stage with a ConfigError naming the file."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    except QasmError as e:
        raise ConfigError(f"{path}: {e}") from None


@contextlib.contextmanager
def _open_input(out_dir: str, name: str, **kwargs):
    """An experiment file (see ``_input``), open as UTF-8 text."""
    path = _input(out_dir, name)
    with _decoding(path), open(path, encoding="utf-8", **kwargs) as fp:
        yield fp


# --- configuration ------------------------------------------------------------------


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _checked(value, name: str, least: int = 1, many: bool = False):
    """``value``, a JSON integer of at least ``least`` (1 for a count, 0 for a
    seed), or with ``many`` a list of them: ``int()`` would truncate 1.7 and
    read ``true`` and ``"2"``, and bool is an int."""
    values = value if many and isinstance(value, list) else [value]
    if many != isinstance(value, list) or any(type(v) is not int or v < least for v in values):
        what = f"{'positive' if least else 'non-negative'} integer"
        raise ConfigError(f"{name} must be {f'a list of {what}s' if many else f'a {what}'}, "
                          f"got {json.dumps(value)}")
    return value


def _integer(cfg: dict, key: str, where: str, default=None, least: int = 1,
             many: bool = False):
    """``cfg[key]``, or ``default`` if absent (required without one), checked."""
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    return _checked(value, f"{where}: {key!r}", least, many)


def _typed(cfg: dict, key: str, where: str, default, what: str, fits):
    """``cfg[key]``, or ``default`` if absent, when ``fits`` holds for it: a
    value is read as the JSON type it must be, never converted."""
    value = cfg.get(key, default)
    if not fits(value):
        raise ConfigError(f"{where}: {key!r} must be {what}, got {json.dumps(value)}")
    return value


def _coupling_from(obj, n: int) -> CouplingGraph:
    from mirrorbench.circuits import CouplingGraph

    if obj == "line":
        return CouplingGraph.line(n)
    if obj == "all_to_all":
        return CouplingGraph.all_to_all(n)
    where = "transpile: 'coupling'"
    if not isinstance(obj, dict):
        raise ConfigError(f'{where} must be "line", "all_to_all" or an object with '
                          f"'n' and 'edges', got {json.dumps(obj)}")
    width = _integer(obj, "n", where)
    edges = _typed(obj, "edges", where, None, "a list of [a, b] pairs of non-negative integers",
                   lambda v: isinstance(v, list) and all(
                       isinstance(e, list) and len(e) == 2
                       and all(type(q) is int and q >= 0 for q in e) for e in v))
    try:
        return CouplingGraph(width, frozenset(tuple(e) for e in edges))
    except ContractError as e:
        raise ConfigError(f"{where}: {e}") from None


def _hamiltonian_from(spec: dict) -> PauliSumHamiltonian:
    from mirrorbench import algos

    kind = _require(spec, "type", "hamiltonian")
    if kind == "tfim":
        return algos.tfim(_integer(spec, "n", "hamiltonian"))
    if kind == "heisenberg":
        return algos.heisenberg(_integer(spec, "n", "hamiltonian"))
    if kind == "max3sat":
        return algos.max3sat(_integer(spec, "n", "hamiltonian"),
                             _integer(spec, "r", "hamiltonian", 2),
                             _integer(spec, "seed", "hamiltonian", 0, least=0))
    if kind == "file":
        path = _require(spec, "path", "hamiltonian")
        with _decoding(path), open(path, encoding="utf-8") as fp:
            return algos.PauliSumHamiltonian.from_dict(json.load(fp))
    raise ConfigError(f"unknown hamiltonian type {kind!r}")


def _input_circuits(cfg: dict) -> list[Circuit]:
    """Input circuits: a built-in family spec or QASM files."""
    inputs = _require(cfg, "inputs")
    out: list[Circuit] = []
    if "qasm_paths" in inputs:
        from mirrorbench.qasm import parse_qasm

        for path in _typed(inputs, "qasm_paths", "inputs", None, "a list of strings",
                           lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v)):
            with _decoding(path), open(path, encoding="utf-8") as fp:
                c = parse_qasm(fp.read())
            out.append(c.with_id(os.path.splitext(os.path.basename(path))[0]))
        return out
    from mirrorbench import algos

    family = _require(inputs, "family", "inputs")
    kind = _require(family, "kind", "inputs.family")
    if kind == "brickwork":
        return [algos.brickwork_u3_cz(_integer(family, "n", "family"),
                                      _integer(family, "depth", "family"),
                                      _integer(family, "seed", "family", 0, least=0))]
    if kind == "qft":
        return [algos.qft_circuit(_integer(family, "n", "family"))]
    if kind == "qaoa":
        return [algos.qaoa_circuit(_integer(family, "n", "family"),
                                   _integer(family, "seed", "family", 0, least=0),
                                   _integer(family, "reps", "family", 1))]
    if kind == "trotter":
        h = _hamiltonian_from(_require(family, "hamiltonian", "family"))
        orders = _integer(family, "orders", "family", [_integer(family, "order", "family", 1)],
                          many=True)
        steps = _integer(family, "steps_list", "family",
                         [_integer(family, "steps", "family", 1)], many=True)
        t = float(_typed(family, "time", "family", 1.0, "a number", is_number))
        specs = [algos.TrotterSpec(order, m, t) for order in orders for m in steps]
        circuits = [algos.trotter_circuit(h, spec) for spec in specs]
        if h.n <= algos.EVOLUTION_MAX_N and cfg["benchmark_type"] != "subcircuit":
            # A fixed property of the circuit, recorded once for report (a
            # snip of the circuit is another circuit, and records none); the
            # family shares one exp(-iHt), so H is diagonalized once.
            from mirrorbench.sim import process_fidelity_unitaries, unitary_of

            u = algos.exact_evolution_unitary(h, t)
            for c in circuits:
                c.meta["trotter"]["F_alg"] = process_fidelity_unitaries(u, unitary_of(c))
        return circuits
    raise ConfigError(f"unknown circuit family {kind!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fp:
            cfg = json.load(fp)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    bt = _require(cfg, "benchmark_type")
    if bt not in ("low_level", "full_stack", "subcircuit"):
        raise ConfigError(f"bad benchmark_type {bt!r}")
    _integer(cfg, "seed", "config", least=0)  # mandatory, for reproducibility
    _noise(cfg)  # simulate and oracle read it; generate rejects it before writing
    return cfg


def _manifest(out_dir: str) -> Manifest:
    from mirrorbench.manifest import read_manifest

    path = _input(out_dir, "manifest.json")
    with _decoding(path):
        return read_manifest(path)


def _experiment(out_dir: str) -> tuple[dict, Manifest]:
    """The config and manifest that ``generate`` left in an experiment directory."""
    return _load_config(_input(out_dir, "config.json")), _manifest(out_dir)


def _sampling_from(cfg: dict) -> SamplingParams:
    from mirrorbench.mirror import SamplingParams

    s = cfg.get("sampling", {})
    return SamplingParams(*(_integer(s, m, "sampling", 10) for m in ("m1", "m2", "m3")),
                          cfg["seed"])


def _noise(cfg: dict) -> NoiseModel:
    try:
        return NoiseModel.from_dict(cfg.get("noise", {}))
    except ContractError as e:
        raise ConfigError(f"bad noise ({e})") from None


def _build(cfg: dict) -> BenchmarkSuite:
    """The suite a config describes; every bad value in it, or an input file it
    names that cannot be read, is a ConfigError."""
    from mirrorbench.bench import (
        ShapeSpec,
        build_full_stack,
        build_low_level,
        build_subcircuit,
    )
    from mirrorbench.transpile import TranspileConfig

    shots = _integer(cfg, "shots", "config", 1000)
    try:
        circuits = _input_circuits(cfg)
        params = _sampling_from(cfg)
        bt = cfg["benchmark_type"]
        if _typed(cfg, "compile_to_native", "config", False, "true or false",
                  lambda v: isinstance(v, bool)) and bt != "full_stack":
            from mirrorbench.transpile import decompose_to_basis
            circuits = [decompose_to_basis(c) for c in circuits]
        if bt == "low_level":
            return build_low_level(circuits, params, shots)
        if bt == "full_stack":
            tc = cfg.get("transpile", {})
            coupling = _coupling_from(tc.get("coupling", "all_to_all"),
                                      max(c.n for c in circuits))
            tcfg = TranspileConfig(coupling,
                                   float(_typed(tc, "approximation_degree", "transpile",
                                                1.0, "a number", is_number)),
                                   cfg["seed"])
            return build_full_stack(circuits, tcfg, _integer(tc, "reps", "transpile", 1),
                                    params, shots)
        shapes_cfg = _require(cfg, "shapes")
        shapes = ShapeSpec(tuple(tuple(_checked(p, "shapes: 'shapes' entry", many=True))
                                 for p in _require(shapes_cfg, "shapes", "shapes")),
                           _integer(shapes_cfg, "samples_per_shape", "shapes", 30))
        return build_subcircuit(circuits, shapes, params, shots)
    except KeyError as e:
        raise ConfigError(f"missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"bad value ({e})") from None
    except OSError as e:
        raise ConfigError(f"cannot read input file: {e}") from None


# --- commands ------------------------------------------------------------------------


class _ErrorBoundary(click.Group):
    """Ends every stage's expected failure with one stderr line and its exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            code, message = e.exit_code, f"usage error: {e.format_message()}"
        except (ConfigError, ContractError, SchemaError) as e:
            code, message = EXIT_CONFIG, f"config error: {e}"
        except MissingDataError as e:
            code, message = EXIT_MISSING, f"missing data: {e}"
        click.echo(" ".join(message.splitlines()), err=True)
        sys.exit(code)


@click.group(cls=_ErrorBoundary)
def main():
    """Scalable mirror-circuit fidelity benchmarks."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def generate(config_path: str, out_dir: str):
    """Create a benchmark suite: manifest.json + circuits.jsonl."""
    from mirrorbench.storage import write_circuits, write_manifest

    t0 = time.monotonic()
    cfg = _load_config(config_path)
    suite = _build(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for name in _DERIVED:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with open_atomic(os.path.join(out_dir, "circuits.jsonl")) as fp:
        count = write_circuits(fp, suite.circuits)
    write_manifest(os.path.join(out_dir, "manifest.json"), suite.manifest)
    with open_atomic(os.path.join(out_dir, "config.json")) as fp:
        json.dump(cfg, fp, indent=1)
        fp.write("\n")
    proxies = sum(1 for r in suite.manifest.records if r["kind"] in ("M1", "M2", "M3"))
    click.echo(f"generated {count} circuits ({proxies} proxies) "
               f"in {time.monotonic() - t0:.2f}s -> {out_dir}")


def _shot_seed(master: int, circuit_id: str) -> int:
    from mirrorbench.shots import derive_seed

    return int(derive_seed(master, circuit_id, "shots").integers(0, 2 ** 31))


def _simulate_one(payload):
    from mirrorbench.sim import sample_shots

    c, nm, shots, seed = payload
    try:
        return sample_shots(c, nm, shots, seed), None
    except CapacityError as e:
        return None, f"{c.id}: {e}"


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--fake-uniform", is_flag=True,
              help="Emit uniform random shot tables instead of simulating.")
@click.option("--jobs", type=click.IntRange(min=1), default=1)
def simulate(out_dir, fake_uniform, jobs):
    """Produce shots.jsonl for every proxy circuit in the suite."""
    # One BLAS thread per process, set before numpy loads: each --jobs worker
    # would start its own pool, and the pools compete for the cores. A value
    # the user set still wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from mirrorbench.shots import fake_uniform_shots, write_shot_tables

    t0 = time.monotonic()
    cfg, manifest = _experiment(out_dir)
    nm = _noise(cfg)
    shots = manifest.sampling["shots"]
    master = cfg["seed"]
    mirrors = manifest.mirror_records()

    if fake_uniform:
        # Uniform shots need only each proxy's width and id, and the manifest
        # lists the proxies in circuits.jsonl order.
        payloads = [(r["width"], _shot_seed(master, r["id"]), r["id"]) for r in mirrors]
    else:
        from mirrorbench.storage import read_circuits

        mirror_ids = {r["id"] for r in mirrors}
        with _open_input(out_dir, "circuits.jsonl") as fp:
            payloads = [(c, nm, shots, _shot_seed(master, c.id))
                        for c in read_circuits(fp) if c.id in mirror_ids]
        found = {c.id for c, *_ in payloads}
        missing = [r["id"] for r in mirrors if r["id"] not in found]
        if missing:
            raise MissingDataError(f"circuits.jsonl lacks {len(missing)} of the manifest's "
                                   f"proxies: {_some(missing)} (run generate)")

    failures = []
    with contextlib.ExitStack() as stack:
        fp = stack.enter_context(open_atomic(os.path.join(out_dir, "shots.jsonl")))
        if fake_uniform:
            results = ((fake_uniform_shots(n, shots, s, cid), None)
                       for n, s, cid in payloads)
        elif jobs > 1:
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
    from mirrorbench.analysis import estimate_benchmark
    from mirrorbench.shots import read_shot_tables

    cfg, manifest = _experiment(out_dir)
    with _open_input(out_dir, "shots.jsonl") as fp:
        tables = {t.circuit_id: t for t in read_shot_tables(fp)}
    benchmarks = [r for r in manifest.records if r["kind"] == "benchmark"]
    mirrors = manifest.mirror_records()
    missing = [r["id"] for r in mirrors if r["id"] not in tables]
    if missing:
        raise MissingDataError(f"no shots for {_some(missing)}")
    by_parent: dict[str, dict[str, list[tuple[ShotTable, str]]]] = {
        b["id"]: {"M1": [], "M2": [], "M3": []} for b in benchmarks}
    for r in mirrors:
        by_parent[r["parent_id"]][r["kind"]].append((tables[r["id"]], r["target_bitstring"]))
    records = []
    for b in benchmarks:
        shape = tuple(b["shape"]) if "shape" in b else None
        rec = estimate_benchmark(b["id"], b["width"], b["depth"], by_parent[b["id"]],
                                 bootstrap=bootstrap, seed=cfg["seed"],
                                 shape=shape)
        records.append(rec)
    return records


def _write_results(out_dir: str, records: list[FidelityRecord]):
    with open_atomic(os.path.join(out_dir, "results.csv")) as fp:
        w = csv.writer(fp)
        w.writerow(RESULT_COLUMNS)
        for r in records:
            sw, sd = r.shape if r.shape else ("", "")
            w.writerow([r.benchmark_id, "benchmark", r.width, r.depth, sw, sd,
                        f"{r.F_hat:.10g}", f"{r.F_clamped:.10g}",
                        f"{r.sigma_boot:.10g}", f"{r.S1:.10g}",
                        f"{r.S2:.10g}", f"{r.S3:.10g}", ";".join(r.flags)])


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--bootstrap", type=click.IntRange(min=2), default=200)
def analyze(out_dir, bootstrap):
    """Estimate fidelities for every benchmark; write results.csv."""
    t0 = time.monotonic()
    records = _analyze_records(out_dir, bootstrap)
    _write_results(out_dir, records)
    click.echo(f"analyzed {len(records)} benchmarks in {time.monotonic() - t0:.2f}s")


def _record_from(row: dict) -> FidelityRecord:
    shape = (int(row["shape_w"]), int(row["shape_d"])) if row["shape_w"] else None
    return FidelityRecord(
        row["benchmark_id"], float(row["F_hat"]), float(row["F_clamped"]),
        float(row["sigma_boot"]), float(row["S1"]), float(row["S2"]),
        float(row["S3"]), int(row["width"]), int(row["depth"]), shape,
        flags=tuple(f for f in row["flags"].split(";") if f))


def _read_results(out_dir: str) -> list[FidelityRecord]:
    """The records ``analyze`` wrote; a malformed results.csv is a ConfigError."""
    with _open_input(out_dir, "results.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    try:
        return [_record_from(row) for row in rows]
    except KeyError as e:
        raise ConfigError(f"{fp.name}: missing column {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"{fp.name}: bad value ({e})") from None


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
def report(out_dir):
    """Render report.svg and summary.txt from results.csv and manifest.json."""
    recs = _read_results(out_dir)
    trotter = {r["id"]: r["trotter"] for r in _manifest(out_dir).records if "trotter" in r}
    with open_atomic(os.path.join(out_dir, "report.svg")) as fp:
        fp.write(render_volumetric_svg(recs))
    lines = ["benchmark summary", "=================", ""]
    lines.append(volumetric_summary(recs).rstrip())
    if trotter:
        lines += ["", "trotter fidelities (algorithmic / noise / full):"]
        for r in recs:
            f_alg = trotter.get(r.benchmark_id, {}).get("F_alg")
            if f_alg is not None:
                f_full = full_process_fidelity(f_alg, r.F_clamped)
                lines.append(f"  {r.benchmark_id}: F_alg={f_alg:.6f} "
                             f"F_noise={r.F_clamped:.6f} F_full={f_full:.6f}")
    with open_atomic(os.path.join(out_dir, "summary.txt")) as fp:
        fp.write("\n".join(lines) + "\n")
    click.echo(f"report written for {len(recs)} benchmarks")


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path(exists=True))
@click.option("--max-n", type=click.IntRange(1, ORACLE_MAX_N), default=6,
              help=f"Largest width for the exact oracle, at most {ORACLE_MAX_N}.")
def oracle(out_dir, max_n):
    """Exact process fidelities (n <= max-n) next to the estimates."""
    f_hat = {r.benchmark_id: r.F_hat for r in _read_results(out_dir)}
    cfg, manifest = _experiment(out_dir)
    nm = _noise(cfg)
    qualifying = {r["id"] for r in manifest.records
                  if r["kind"] == "benchmark" and r["width"] <= max_n and r["id"] in f_hat}
    out_rows = []
    if qualifying:
        from mirrorbench.sim import exact_process_fidelity
        from mirrorbench.storage import read_circuits

        with _open_input(out_dir, "circuits.jsonl") as fp:
            for c in read_circuits(fp):
                if c.id not in qualifying:
                    continue
                out_rows.append((c.id, exact_process_fidelity(c, nm), f_hat[c.id]))
                if len(out_rows) == len(qualifying):
                    break
    with open_atomic(os.path.join(out_dir, "oracle.csv")) as fp:
        w = csv.writer(fp)
        w.writerow(["benchmark_id", "F_exact", "F_hat", "abs_deviation"])
        for cid, f, est in out_rows:
            w.writerow([cid, f"{f:.10g}", f"{est:.10g}", f"{abs(est - f):.10g}"])
    click.echo(f"oracle computed for {len(out_rows)} benchmarks (n <= {max_n})")


if __name__ == "__main__":
    main()
