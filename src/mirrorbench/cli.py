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
import math
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
    BENCHMARK_TYPES,
    CapacityError,
    ConfigError,
    ContractError,
    ORACLE_MAX_N,
    FidelityRecord,
    JsonObject,
    NoiseModel,
    SchemaError,
    decoding,
    full_process_fidelity,
    open_atomic,
    render_volumetric_svg,
    volumetric_summary,
)

if TYPE_CHECKING:
    from mirrorbench.circuits import Circuit
    from mirrorbench.manifest import Manifest
    from mirrorbench.shots import ShotTable

EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3


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
def _open_input(out_dir: str, name: str, **kwargs):
    """An experiment file (see ``_input``), open as UTF-8 text."""
    path = _input(out_dir, name)
    with decoding(path), open(path, encoding="utf-8", **kwargs) as fp:
        yield fp


# --- configuration ------------------------------------------------------------------


def _load_config(path: str) -> JsonObject:
    """The config at ``path``, with the keys every stage reads checked."""
    with decoding(path), open(path, encoding="utf-8") as fp:
        data = json.load(fp)
    cfg = JsonObject(data, "config")
    cfg.one_of("benchmark_type", BENCHMARK_TYPES)
    cfg.count("seed", least=0)  # mandatory, for reproducibility
    _noise(cfg)  # simulate and oracle read it; generate rejects it before writing
    return cfg


def _manifest(out_dir: str) -> Manifest:
    from mirrorbench.manifest import read_manifest

    path = _input(out_dir, "manifest.json")
    with decoding(path):
        return read_manifest(path)


def _experiment(out_dir: str) -> tuple[JsonObject, Manifest]:
    """The config and manifest that ``generate`` left in an experiment directory."""
    return _load_config(_input(out_dir, "config.json")), _manifest(out_dir)


def _noise(cfg: JsonObject) -> NoiseModel:
    return NoiseModel.from_dict(cfg.get("noise", {}), f"{cfg.path}.noise")


def _circuits(out_dir: str, ids: list[str], what: str) -> list[Circuit]:
    """The circuits ``ids`` (the manifest's ``what``) from circuits.jsonl, in
    the order of ``ids``; a MissingDataError names those the file lacks."""
    from mirrorbench.storage import read_circuits

    found, wanted = {}, set(ids)
    with _open_input(out_dir, "circuits.jsonl") as fp:
        for c in read_circuits(fp):
            if c.id in wanted:
                found[c.id] = c
                if len(found) == len(wanted):
                    break
    missing = [i for i in ids if i not in found]
    if missing:
        raise MissingDataError(f"circuits.jsonl lacks {len(missing)} of the manifest's "
                               f"{what}: {_some(missing)} (run generate)")
    return [found[i] for i in ids]


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
    from mirrorbench.bench import suite_from_config
    from mirrorbench.storage import write_circuits, write_manifest

    t0 = time.monotonic()
    cfg = _load_config(config_path)
    suite = suite_from_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for name in _DERIVED:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    with open_atomic(os.path.join(out_dir, "circuits.jsonl")) as fp:
        count = write_circuits(fp, suite.circuits)
    write_manifest(os.path.join(out_dir, "manifest.json"), suite.manifest)
    with open_atomic(os.path.join(out_dir, "config.json")) as fp:
        json.dump(cfg.data, fp, indent=1)
        fp.write("\n")
    proxies = sum(1 for r in suite.manifest.records if r["kind"] in ("M1", "M2", "M3"))
    click.echo(f"generated {count} circuits ({proxies} proxies) "
               f"in {time.monotonic() - t0:.2f}s -> {out_dir}")


def _shot_seed(master: int, circuit_id: str) -> int:
    from mirrorbench.shots import derive_seed

    return int(derive_seed(master, circuit_id, "shots").integers(0, 2 ** 31))


def _table_or_failure(circuit_id: str, sampler, *args):
    """``sampler(*args)`` and no failure, or none and why the proxy is beyond the sampler."""
    try:
        return sampler(*args), None
    except CapacityError as e:
        return None, f"{circuit_id}: {e}"


def _simulate_one(payload):
    from mirrorbench.sim import sample_shots

    c, *args = payload
    return _table_or_failure(c.id, sample_shots, c, *args)


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
    master = cfg.data["seed"]
    mirrors = manifest.mirror_records()

    if fake_uniform:
        # Uniform shots need only each proxy's width and id, and the manifest
        # lists the proxies in circuits.jsonl order.
        payloads = [(r["width"], _shot_seed(master, r["id"]), r["id"]) for r in mirrors]
    else:
        payloads = [(c, nm, shots, _shot_seed(master, c.id))
                    for c in _circuits(out_dir, [r["id"] for r in mirrors], "proxies")]

    failures = []
    with contextlib.ExitStack() as stack:
        fp = stack.enter_context(open_atomic(os.path.join(out_dir, "shots.jsonl")))
        if fake_uniform:
            results = (_table_or_failure(cid, fake_uniform_shots, n, shots, s, cid)
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
                                 bootstrap=bootstrap, seed=cfg.data["seed"],
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


def _digits(text: str) -> int | None:
    return int(text) if text.isascii() and text.isdigit() else None  # no sign, space or _


# column -> (what its text must be, how it is read, the test its value meets)
_RESULT_TYPES = {
    "width": ("a positive integer", _digits, lambda v: v >= 1),
    "depth": ("a non-negative integer", _digits, lambda v: v >= 0),
    "shape_w": ("a positive integer, as shape_d is", _digits, lambda v: v >= 1),
    "shape_d": ("a positive integer, as shape_w is", _digits, lambda v: v >= 1),
    "F_hat": ("a finite number or nan", float, lambda v: not math.isinf(v)),
    "F_clamped": ("a number in [0, 1]", float, lambda v: 0.0 <= v <= 1.0),
    "sigma_boot": ("a finite number >= 0 or nan", float,
                   lambda v: math.isnan(v) or 0.0 <= v < math.inf),
    **{s: ("a finite number", float, math.isfinite) for s in ("S1", "S2", "S3")},
}


def _cell(row: dict, column: str, line: int):
    """The value of ``column`` in a results.csv row, read as its column's type."""
    what, parse, fits = _RESULT_TYPES[column]
    text = row[column] or ""  # None in a row shorter than the header
    with contextlib.suppress(ValueError):
        value = parse(text)
        if value is not None and fits(value):
            return value
    raise SchemaError(f"{column!r} must be {what}, got {json.dumps(text)}", f"line {line}")


def _read_results(out_dir: str) -> list[FidelityRecord]:
    """The records ``analyze`` wrote. A missing column, a value not of its
    column's type, or a repeated benchmark_id is a ConfigError naming the
    file, the line and the column."""
    records, lines = [], {}
    with _open_input(out_dir, "results.csv", newline="") as fp:
        rows = csv.DictReader(fp)
        for column in RESULT_COLUMNS:
            if column not in (rows.fieldnames or ()):
                raise SchemaError(f"missing column {column!r}", "line 1")
        for row in rows:
            line, bid = rows.line_num, row["benchmark_id"]
            if bid in lines:
                raise SchemaError(f"'benchmark_id' {json.dumps(bid)} repeats line "
                                  f"{lines[bid]}", f"line {line}")
            lines[bid] = line
            shape = (tuple(_cell(row, c, line) for c in ("shape_w", "shape_d"))
                     if row["shape_w"] or row["shape_d"] else None)
            records.append(FidelityRecord(
                bid, *(_cell(row, c, line) for c in (
                    "F_hat", "F_clamped", "sigma_boot", "S1", "S2", "S3", "width", "depth")),
                shape, flags=tuple(f for f in (row["flags"] or "").split(";") if f)))
    return records


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
    qualifying = [r["id"] for r in manifest.records
                  if r["kind"] == "benchmark" and r["width"] <= max_n and r["id"] in f_hat]
    out_rows = []
    if qualifying:
        from mirrorbench.sim import exact_process_fidelity

        out_rows = [(c.id, exact_process_fidelity(c, nm), f_hat[c.id])
                    for c in _circuits(out_dir, qualifying, "benchmarks")]
    with open_atomic(os.path.join(out_dir, "oracle.csv")) as fp:
        w = csv.writer(fp)
        w.writerow(["benchmark_id", "F_exact", "F_hat", "abs_deviation"])
        for cid, f, est in out_rows:
            w.writerow([cid, f"{f:.10g}", f"{est:.10g}", f"{abs(est - f):.10g}"])
    click.echo(f"oracle computed for {len(out_rows)} benchmarks (n <= {max_n})")


if __name__ == "__main__":
    main()
