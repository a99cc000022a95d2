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
# The bootstrap draws this many replicas per call, so that its memory does not
# grow with B; the default B = 200 is one block.
_BOOTSTRAP_BLOCK = 256


class IllConditionedError(ContractError):
    """Raised when a normalization denominator is too close to zero."""


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


def effective_polarization(t: ShotTable, target: str) -> float:
    """S = (4^n sum_k (-1/2)^k h_k - 1) / (4^n - 1), overflow-safe for any n."""
    if not len(t.tally):
        raise ContractError(f"{t.circuit_id}: empty shot table")
    n = len(target)
    if t.width != n:
        raise ContractError(f"{t.circuit_id}: target length {n} != shot width {t.width}")
    weights, polarization = _polarization_map(n)
    return polarization(float(t.hamming_profile(target) @ weights))


def _polarization_map(n: int):
    """The weights (-1/2)^k of Hamming bins k = 0..n, and the map, elementwise,
    from a = sum_k (-1/2)^k h_k to S = (4^n a - 1)/(4^n - 1) = (a - 4^-n)/(1 - 4^-n):
    4.0**-n underflows to 0 for huge n instead of overflowing."""
    q = 4.0 ** -n
    return (-0.5) ** np.arange(n + 1), lambda a: (a - q) / (1.0 - q)


def _fidelity(s1, s2, s3, n: int):
    """F = gamma + (1 - gamma) / 4^n with gamma = s1 / sqrt(s2 * s3), element by
    element over arrays of kind means; NaN where s2 * s3 <= RATIO_FLOOR, where
    the estimate is undefined."""
    den = s2 * s3
    defined = den > RATIO_FLOOR
    gamma = s1 / np.sqrt(np.where(defined, den, 1.0))
    q = 4.0 ** -n
    return np.where(defined, gamma + (1.0 - gamma) * q, np.nan)


def mcfe_estimate(s1: float, s2: float, s3: float,
                  n: int) -> tuple[float, float, tuple[str, ...]]:
    """(F_hat, F_clamped, flags) from the kind-averaged polarizations.

    gamma = s1 / sqrt(s2 * s3); F = gamma + (1 - gamma) / 4^n. When
    s2 * s3 <= RATIO_FLOOR the estimate is undefined: F_hat is NaN and the
    'estimate-undefined' flag is set (F_clamped falls back to 0).
    """
    f = float(_fidelity(s1, s2, s3, n))
    if math.isnan(f):
        return f, 0.0, ("estimate-undefined",)
    flags = ()
    clamped = min(1.0, max(0.0, f))
    if clamped != f:
        flags = ("clamped",)
    return f, clamped, flags


def estimate_benchmark(benchmark_id: str, n: int, depth: int,
                       tables: dict[str, list[tuple[ShotTable, str]]],
                       *, bootstrap: int = 200, seed: int = 0,
                       shape: tuple[int, int] | None = None) -> FidelityRecord:
    """Full estimate for one benchmark: F_hat, clamped value, bootstrap sigma.

    ``tables`` maps kind (M1/M2/M3) to (shot table, target) pairs.
    """
    pols = {k: [effective_polarization(t, tgt) for t, tgt in v]
            for k, v in tables.items()}
    for kind in ("M1", "M2", "M3"):
        if not pols.get(kind):
            raise ContractError(f"{benchmark_id}: no polarizations for kind {kind}")
    s1, s2, s3 = (float(np.mean(pols[kind])) for kind in ("M1", "M2", "M3"))
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
    resamples every chosen circuit's shots multinomially. Replicas are drawn
    ``_BOOTSTRAP_BLOCK`` at a time, one call of each draw per kind and block.
    Deterministic for a given seed. NaN when fewer than two replicas give a
    defined estimate.
    """
    rng = derive_seed(seed, "bootstrap")
    # A multinomial over a proxy's Hamming profile is equivalent to one over
    # its raw shots. Each table computes its profile once, for S and here;
    # the bins no proxy of the kind reaches are left out of the draw.
    weights, polarization = _polarization_map(n)
    prof = {}
    for kind, pairs in tables.items():
        h = np.array([t.hamming_profile(tgt) for t, tgt in pairs])
        reached = h.any(axis=0)
        prof[kind] = (h[:, reached], np.array([t.shots for t, _ in pairs]), weights[reached])
    fs = []
    for start in range(0, B, _BOOTSTRAP_BLOCK):
        b = min(_BOOTSTRAP_BLOCK, B - start)
        means = {}
        for kind, (h, shots, w) in prof.items():
            idx = rng.integers(0, len(shots), size=(b, len(shots)))
            a = rng.multinomial(shots[idx], h[idx]) @ w / shots[idx]
            means[kind] = polarization(a).mean(axis=1)
        fs.append(_fidelity(means["M1"], means["M2"], means["M3"], n))
    fs = np.concatenate(fs)
    fs = fs[~np.isnan(fs)]
    if len(fs) < 2:
        return float("nan")
    return float(np.std(fs))


# --- classical fidelities -----------------------------------------------------------


def _as_probs(p) -> np.ndarray:
    try:
        arr = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise ContractError("not a probability distribution") from None
    if arr.ndim != 1 or not abs(arr.sum() - 1.0) <= 1e-6 or (arr < -1e-12).any():  # NaN too
        raise ContractError("not a probability distribution")
    return np.clip(arr, 0.0, None)


def classical_fidelity(p, p_tilde) -> float:
    """F_c = (sum_x sqrt(p(x) p~(x)))^2 (the Bhattacharyya overlap squared)."""
    a, b = _as_probs(p), _as_probs(p_tilde)
    if a.shape != b.shape:
        raise ContractError("distribution sizes differ")
    return float(np.sum(np.sqrt(a * b)) ** 2)


def normalized_classical_fidelity(p, p_tilde) -> float:
    """F_c rescaled so a uniform p~ scores 0:
    (F_c - u) / (1 - u) with u = F_c(uniform, p) = (sum_x sqrt(p(x)))^2 / len(p).

    Ill-conditioned (raises) when p is too close to uniform, where the
    denominator 1 - u vanishes.
    """
    a, b = _as_probs(p), _as_probs(p_tilde)
    u = float(np.sum(np.sqrt(a))) ** 2 / a.size
    denom = 1.0 - u
    if denom <= NCF_FLOOR:
        raise IllConditionedError(
            f"normalized classical fidelity is ill-conditioned: 1 - "
            f"2^-n sum sqrt(p) = {denom:.3g} <= {NCF_FLOOR}")
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
