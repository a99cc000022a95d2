"""The four benchmark workloads: a config made from the seed, the CLI
arguments of each stage, and the checks the outputs must pass.

Sizes are set so that one round of five stage processes takes three to four
seconds on a 2-vCPU host, so that a run holds enough rounds for a steady
median.
See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

STAGES = ("generate", "simulate", "analyze", "report", "oracle")

NOISE = {"lam_1q": 0.001, "lam_2q": 0.01, "eps_ro": 0.02, "theta_idle": 0.02}
# The compiled QFT(4) is 64 layers deep; weaker noise keeps its process
# fidelity near 0.93, where the estimator's spread is small enough to check.
FULLSTACK_NOISE = {"lam_1q": 0.0002, "lam_2q": 0.002, "eps_ro": 0.02, "theta_idle": 0.005,
                   "theta_over": {"X": 0.01, "SX": 0.01}}


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    check: Callable[[checks.Experiment, checks.Checks, int], None]
    simulate_args: tuple[str, ...] = ()
    oracle_max_n: int = 6

    def stage_args(self, stage: str, config_path: str, out_dir: str) -> list[str]:
        """Arguments after ``mirrorbench`` for one stage of this workload."""
        if stage == "generate":
            return ["generate", "--config", config_path, "--out", out_dir]
        if stage == "simulate":
            return ["simulate", "--out", out_dir, "--jobs", "1", *self.simulate_args]
        if stage == "oracle":
            return ["oracle", "--out", out_dir, "--max-n", str(self.oracle_max_n)]
        return [stage, "--out", out_dir]


def _brickwork(benchmark_type: str, n: int, depth: int, seed: int, m: int,
               shots: int, **extra) -> dict:
    return {"benchmark_type": benchmark_type,
            "inputs": {"family": {"kind": "brickwork", "n": n, "depth": depth, "seed": seed}},
            "sampling": {"m1": m, "m2": m, "m3": m}, "shots": shots,
            "noise": dict(NOISE), "seed": seed, **extra}


WORKLOADS = {w.name: w for w in (
    Workload(
        "lowlevel_dense",
        lambda seed: _brickwork("low_level", 8, 12, seed, 3, 1000),
        checks.check_lowlevel_dense),
    Workload(
        "subcircuit_many",
        lambda seed: _brickwork("subcircuit", 200, 64, seed, 5, 500,
                                shapes={"shapes": [[2, 4], [4, 8], [6, 16]],
                                        "samples_per_shape": 2}),
        checks.check_subcircuit_many,
        oracle_max_n=4),
    Workload(
        "lowlevel_wide",
        lambda seed: _brickwork("low_level", 1000, 4, seed, 3, 1000),
        checks.check_lowlevel_wide,
        simulate_args=("--fake-uniform",)),
    Workload(
        "fullstack_oracle",
        lambda seed: {"benchmark_type": "full_stack",
                      "inputs": {"family": {"kind": "qft", "n": 4}},
                      "transpile": {"coupling": "all_to_all", "approximation_degree": 1.0,
                                    "reps": 1},
                      "sampling": {"m1": 8, "m2": 8, "m3": 8}, "shots": 500,
                      "noise": FULLSTACK_NOISE, "seed": seed},
        checks.check_fullstack_oracle),
)}
