"""Estimation: polarizations, the mirror-ratio fidelity estimator, bootstrap
uncertainties, classical fidelities, effective error rates, and volumetric
summaries.

The estimator pipeline is: per-proxy effective polarization S from the
Hamming-distance profile of its shots, kind averages S1/S2/S3, the ratio
gamma = S1 / sqrt(S2 * S3), and F = gamma + (1 - gamma) / 4^n. Uncertainty
comes from a non-parametric bootstrap that resamples circuits within each
kind and shots within each circuit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from mirrorbench.core import (
    ContractError,
    FidelityRecord,
    render_volumetric_svg,
    volumetric_summary,
)
from mirrorbench.shots import ShotTable, derive_seed

__all__ = [
    "PolarizationEstimate",
    "FidelityRecord",
    "EffectiveErrorRate",
    "IllConditionedError",
    "effective_polarization",
    "mcfe_estimate",
    "bootstrap_sigma",
    "classical_fidelity",
    "normalized_classical_fidelity",
    "effective_error_rate",
    "predict_full_fidelity",
    "volumetric_summary",
    "render_volumetric_svg",
]

RATIO_FLOOR = 1e-4
NCF_FLOOR = 1e-6
F_CLAMP_FLOOR = 1e-6


class IllConditionedError(ContractError):
    """Raised when a normalization denominator is too close to zero."""


@dataclass(frozen=True)
class PolarizationEstimate:
    """Effective polarization of one proxy circuit's shot table."""

    circuit_id: str
    S: float
    shots: int


@dataclass(frozen=True)
class EffectiveErrorRate:
    """Per-shape effective error rate from K subcircuit fidelities."""

    shape: tuple[int, int]
    epsilon: float
    K: int

    def __post_init__(self):
        if self.epsilon > 1:
            raise ContractError("epsilon must be <= 1")


# --- polarization and the ratio estimator -------------------------------------------


def effective_polarization(t: ShotTable, target: str) -> PolarizationEstimate:
    """S = (4^n sum_k (-1/2)^k h_k - 1) / (4^n - 1), overflow-safe for any n."""
    if not len(t.tally):
        raise ContractError("empty shot table")
    n = len(target)
    if t.width != n:
        raise ContractError(f"target length {n} != shot width {t.width}")
    h = t.hamming_profile(target)
    a = float(h @ (-0.5) ** np.arange(n + 1))
    # S = (4^n a - 1)/(4^n - 1) computed as (a - 4^-n)/(1 - 4^-n); the
    # 4.0**-n factor underflows to 0 for huge n instead of overflowing.
    q = 4.0 ** -n
    s = (a - q) / (1.0 - q)
    return PolarizationEstimate(t.circuit_id, s, t.shots)


def mcfe_estimate(s1: float, s2: float, s3: float, n: int,
                  floor: float = RATIO_FLOOR) -> tuple[float, float, tuple[str, ...]]:
    """(F_hat, F_clamped, flags) from the kind-averaged polarizations.

    gamma = s1 / sqrt(s2 * s3); F = gamma + (1 - gamma) / 4^n. When
    s2 * s3 <= floor the estimate is undefined: F_hat is NaN and the
    'estimate-undefined' flag is set (F_clamped falls back to 0).
    """
    if s2 * s3 <= floor:
        return float("nan"), 0.0, ("estimate-undefined",)
    gamma = s1 / math.sqrt(s2 * s3)
    q = 4.0 ** -n
    f = gamma + (1.0 - gamma) * q
    flags = ()
    clamped = min(1.0, max(0.0, f))
    if clamped != f:
        flags = ("clamped",)
    return f, clamped, flags


def _kind_means(pols: dict[str, list[float]]) -> tuple[float, float, float]:
    for kind in ("M1", "M2", "M3"):
        if not pols.get(kind):
            raise ContractError(f"no polarizations for kind {kind}")
    return (float(np.mean(pols["M1"])), float(np.mean(pols["M2"])),
            float(np.mean(pols["M3"])))


def estimate_benchmark(benchmark_id: str, n: int, depth: int,
                       tables: dict[str, list[tuple[ShotTable, str]]],
                       *, bootstrap: int = 200, seed: int = 0,
                       shape: tuple[int, int] | None = None) -> FidelityRecord:
    """Full estimate for one benchmark: F_hat, clamped value, bootstrap sigma.

    ``tables`` maps kind (M1/M2/M3) to (shot table, target) pairs.
    """
    pols = {k: [effective_polarization(t, tgt).S for t, tgt in v]
            for k, v in tables.items()}
    s1, s2, s3 = _kind_means(pols)
    f, fc, flags = mcfe_estimate(s1, s2, s3, n)
    sigma = bootstrap_sigma(tables, n, B=bootstrap, seed=seed)
    if math.isnan(sigma):
        flags += ("sigma-undefined",)
    return FidelityRecord(benchmark_id, f, fc, sigma, s1, s2, s3,
                          n, depth, shape, flags=flags)


def bootstrap_sigma(tables: dict[str, list[tuple[ShotTable, str]]], n: int,
                    B: int = 200, seed: int = 0) -> float:
    """Non-parametric bootstrap standard deviation of F_hat.

    Each replica resamples circuits with replacement within each kind, then
    resamples every chosen circuit's shots multinomially. Deterministic for a
    given seed. NaN when fewer than two replicas give a defined estimate.
    """
    rng = derive_seed(seed, "bootstrap")
    # A multinomial over a proxy's Hamming profile is equivalent to one over
    # its raw shots. Each table computes its profile once, for S and here.
    prof = {kind: (np.array([t.hamming_profile(tgt) for t, tgt in pairs]),
                   np.array([t.shots for t, _ in pairs]))
            for kind, pairs in tables.items()}
    q = 4.0 ** -n
    weights = (-0.5) ** np.arange(n + 1)
    fs = []
    for _ in range(B):
        means = {}
        for kind, (h, shots) in prof.items():
            idx = rng.integers(0, len(shots), size=len(shots))
            # One call draws the chosen proxies in order, the same numbers
            # as one call per proxy.
            hb = rng.multinomial(shots[idx], h[idx]) / shots[idx, None]
            # One dot product per row: a matrix-vector product sums in
            # another order and changes the last bits.
            a = np.array([row @ weights for row in hb])
            means[kind] = float(np.mean((a - q) / (1.0 - q)))
        f, _, flags = mcfe_estimate(means["M1"], means["M2"], means["M3"], n)
        if "estimate-undefined" not in flags:
            fs.append(f)
    if len(fs) < 2:
        return float("nan")
    return float(np.std(fs))


# --- classical fidelities -----------------------------------------------------------


def _as_probs(p) -> np.ndarray:
    p = getattr(p, "probs", p)  # an OutcomeDistribution
    if isinstance(p, dict):
        n = len(next(iter(p)))
        arr = np.zeros(1 << n)
        for bs, v in p.items():
            arr[int(bs, 2)] = v
        p = arr
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or abs(arr.sum() - 1.0) > 1e-6 or (arr < -1e-12).any():
        raise ContractError("not a probability distribution")
    return np.clip(arr, 0.0, None)


def classical_fidelity(p, p_tilde) -> float:
    """F_c = (sum_x sqrt(p(x) p~(x)))^2 (the Bhattacharyya overlap squared)."""
    a, b = _as_probs(p), _as_probs(p_tilde)
    if a.shape != b.shape:
        raise ContractError("distribution sizes differ")
    return float(np.sum(np.sqrt(a * b)) ** 2)


def normalized_classical_fidelity(p, p_tilde, n: int,
                                  floor: float = NCF_FLOOR) -> float:
    """F_c rescaled so a uniform p~ scores 0:
    (F_c - u) / (1 - u) with u = F_c(uniform, p) = 2^{-n} (sum_x sqrt(p(x)))^2.

    Ill-conditioned (raises) when p is too close to uniform, where the
    denominator 1 - u vanishes.
    """
    a, b = _as_probs(p), _as_probs(p_tilde)
    if a.size != 1 << n:
        raise ContractError("distribution size != 2^n")
    u = float(np.sum(np.sqrt(a))) ** 2 / 2 ** n
    denom = 1.0 - u
    if denom <= floor:
        raise IllConditionedError(
            f"normalized classical fidelity is ill-conditioned: 1 - "
            f"2^-n sum sqrt(p) = {denom:.3g} <= {floor}")
    return (classical_fidelity(a, b) - u) / denom


# --- effective error rates -----------------------------------------------------------


def effective_error_rate(f_list, w: int, d: int) -> EffectiveErrorRate:
    """epsilon = 1 - (prod F_i)^(1/(w*d*K)) over K subcircuit fidelities.

    Nonpositive fidelities are clamped to 1e-6 with a warning.
    """
    fs = list(f_list)
    if not fs:
        raise ContractError("empty fidelity list")
    if w < 1 or d < 1:
        raise ContractError("shape must be positive")
    clean = []
    for f in fs:
        if f <= 0 or math.isnan(f):
            warnings.warn(f"nonpositive fidelity {f} clamped to {F_CLAMP_FLOOR}")
            f = F_CLAMP_FLOOR
        clean.append(min(f, 1.0))
    k = len(clean)
    log_mean = float(np.mean(np.log(clean)))
    eps = 1.0 - math.exp(log_mean / (w * d))
    return EffectiveErrorRate((w, d), eps, k)


def predict_full_fidelity(eer: EffectiveErrorRate, w_c: int, d_c: int) -> float:
    """Predicted full-circuit fidelity (1 - epsilon)^(w_c * d_c)."""
    if w_c < 1 or d_c < 1:
        raise ContractError("full-circuit shape must be positive")
    return (1.0 - eer.epsilon) ** (w_c * d_c)
