"""The stdlib-only part of mirrorbench: what every stage process needs before
it does any numerical work.

It holds the errors that the CLI turns into exit codes, the reader of the JSON
objects users write, the noise model that every stage validates from
``config.json``, the oracle's width limit, atomic file writes, and the
fidelity records, volumetric renderers and Trotter fidelity product of
``report``. Nothing here imports numpy, so
``mirrorbench --help`` and ``mirrorbench report`` start without it. The
modules these names belong to re-export them (``sim.NoiseModel``,
``analysis.volumetric_summary``, ...), so either name gives the same object.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Iterator

__all__ = [
    "CapacityError",
    "ConfigError",
    "ContractError",
    "SchemaError",
    "QasmError",
    "decoding",
    "JsonObject",
    "BENCHMARK_TYPES",
    "NoiseModel",
    "ORACLE_MAX_N",
    "open_atomic",
    "FidelityRecord",
    "volumetric_summary",
    "render_volumetric_svg",
    "full_process_fidelity",
]


# --- errors --------------------------------------------------------------------------


class CapacityError(Exception):
    """Raised when a dense computation would exceed its configured qubit limit."""


class ContractError(Exception):
    """Raised when an operation's precondition is violated.

    ``at`` is the ``(layer, position)`` of the offending gate when the error
    is about one gate of a circuit.
    """

    def __init__(self, message: str = "", at: tuple[int, int] | None = None):
        super().__init__(message)
        self.at = at


class SchemaError(Exception):
    """Validation failure, carrying the JSON path of the offending value."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class QasmError(Exception):
    """Parse or structure error, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ConfigError(Exception):
    """A configuration value, or an input file it names, is unusable."""


@contextlib.contextmanager
def decoding(path: str) -> Iterator[None]:
    """The one handler of a failure while ``path`` is read: a file that cannot
    be opened or is not UTF-8, JSON or QASM that does not parse, or a value
    that breaks a rule (SchemaError, ContractError) ends the stage with one
    ConfigError ``<path>: <what>``. Only reading and checking belong in it."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"{path}: cannot read ({e.strerror or e})") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    except (QasmError, SchemaError, ContractError) as e:
        raise ConfigError(f"{path}: {e}") from None


def is_number(v) -> bool:
    """Whether ``v`` is a JSON number as ``json`` reads it; bool is none."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# --- JSON objects from outside the program -------------------------------------------

BENCHMARK_TYPES = ("low_level", "full_stack", "subcircuit")


def _at_least(least: int):
    """A test for JSON integers of at least ``least`` (bool is none), and their name."""
    return (lambda v: type(v) is int and v >= least,
            f"{'positive' if least else 'non-negative'} integer")


class JsonObject:
    """One JSON object from outside the program, read key by key.

    Each read takes a key as the JSON type it must be, never converted, and
    returns its value, or ``default`` when the key is absent (without one,
    ``...``, the key is required). ``done`` then rejects the first key no read
    took, so that a misspelt key stops the run instead of being left out. Each
    failure is a SchemaError naming ``path``, the object's place in its file,
    and the key.
    """

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise SchemaError(f"must be a JSON object, got {json.dumps(data)}", path)
        self.data, self.path, self._read = data, path, set()

    def get(self, key: str, default=..., what: str = "", fits=object):
        """``data[key]``, which must be ``what``: of the type ``fits``, or a
        value for which the test ``fits`` holds."""
        self._read.add(key)
        if key not in self.data:
            if default is ...:
                raise SchemaError(f"missing required key {key!r}", self.path)
            return default
        value = self.data[key]
        if not (isinstance(value, fits) if isinstance(fits, type) else fits(value)):
            raise SchemaError(f"{key!r} must be {what}, got {json.dumps(value)}", self.path)
        return value

    def count(self, key: str, default=..., least: int = 1, many: bool = False):
        """An integer of at least ``least`` (1 for a count, 0 for a seed), or
        with ``many`` a non-empty list of them."""
        fits, what = _at_least(least)
        if many:
            return self.get(key, default, f"a non-empty list of {what}s",
                            lambda v: isinstance(v, list) and v and all(map(fits, v)))
        return self.get(key, default, f"a {what}", fits)

    def pairs(self, key: str, names: str, least: int) -> list[list[int]]:
        """A list of ``[a, b]`` pairs (``names``) of integers of at least ``least``."""
        fits, what = _at_least(least)
        return self.get(key, ..., f"a list of [{names}] pairs of {what}s", lambda v: (
            isinstance(v, list) and all(isinstance(p, list) and len(p) == 2
                                        and all(map(fits, p)) for p in v)))

    def number(self, key: str, default=...) -> float:
        # float() of a JSON integer past the float range would overflow.
        return float(self.get(key, default, "a finite number",
                              lambda v: is_number(v) and abs(v) <= 1e308))

    def string(self, key: str, default=...) -> str:
        return self.get(key, default, "a string", str)

    def one_of(self, key: str, choices: tuple[str, ...]) -> str:
        return self.get(key, ..., "one of " + ", ".join(map(json.dumps, choices)),
                        choices.__contains__)

    def object(self, key: str, default=...) -> "JsonObject":
        """The object at ``key``, read in turn under the path ``path.key``."""
        return JsonObject(self.get(key, default, "a JSON object", dict), f"{self.path}.{key}")

    def done(self):
        for key in self.data:
            if key not in self._read:
                raise SchemaError(f"unexpected key {key!r}", self.path)

    @contextlib.contextmanager
    def building(self) -> Iterator["JsonObject"]:
        """A ContractError raised in the block, by what is built from this
        object's values, becomes a SchemaError naming the object's path."""
        try:
            yield self
        except ContractError as e:
            raise SchemaError(str(e), self.path) from None


# --- noise model ---------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Gate, idle, and readout error parameters for the simulated device."""

    lam_1q: float = 0.0
    lam_2q: float = 0.0
    theta_over: dict[str, float] = field(default_factory=dict)
    theta_idle: float = 0.0
    eps_ro: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam_1q <= 1.0 or not 0.0 <= self.lam_2q <= 1.0:
            raise ContractError("depolarizing parameters must lie in [0, 1]")
        if not 0.0 <= self.eps_ro <= 0.5:
            raise ContractError("readout flip probability must lie in [0, 0.5]")
        for k, v in self.theta_over.items():
            if k not in ("X", "SX"):
                raise ContractError(f"over-rotation only defined for X and SX, got {k!r}")
            if not math.isfinite(v):
                raise ContractError("over-rotation angle must be finite")
        if not math.isfinite(self.theta_idle):
            raise ContractError("idle angle must be finite")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_dict(cls, d, path: str = "noise") -> "NoiseModel":
        """The model of a config's ``noise`` object; a key it does not take, whose
        noise would be left out, or a value that is no finite number or lies
        out of its range raises SchemaError."""
        noise = JsonObject(d, path)
        over = noise.object("theta_over", {})
        theta_over = {k: over.number(k) for k in over.data if k in ("X", "SX")}
        over.done()
        rates = {k: noise.number(k, 0.0) for k in ("lam_1q", "lam_2q", "theta_idle", "eps_ro")}
        noise.done()
        with noise.building():
            return cls(theta_over=theta_over, **rates)


# Widest circuit whose exact process fidelity ``sim`` computes; each batch of
# Choi columns holds 4^n x 256 complex values, 67 MB at n = 7.
ORACLE_MAX_N = 7


# --- atomic writes -------------------------------------------------------------------


@contextlib.contextmanager
def open_atomic(path: str) -> Iterator[IO[str]]:
    """Open ``path`` for writing text that replaces it whole or not at all.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` when the block ends and is removed when the block raises.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# --- fidelity records and volumetric summaries ---------------------------------------


@dataclass(frozen=True)
class FidelityRecord:
    """Estimated process fidelity of one benchmark circuit."""

    benchmark_id: str
    F_hat: float  # NaN when the ratio denominator is floored
    F_clamped: float
    sigma_boot: float
    S1: float
    S2: float
    S3: float
    width: int
    depth: int
    shape: tuple[int, int] | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sigma_boot < 0:
            raise ContractError("sigma_boot must be >= 0")


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs)


def full_process_fidelity(f_alg: float, f_noise: float) -> float:
    """Product approximation of a Trotter circuit's full process fidelity."""
    if not (0.0 <= f_alg <= 1.0 and 0.0 <= f_noise <= 1.0):
        raise ContractError("fidelities must lie in [0, 1]")
    return f_alg * f_noise


def _cells(records: list[FidelityRecord]) -> dict[tuple[int, int], list[float]]:
    """F_clamped of the records, grouped by (width, depth) shape."""
    cells: dict[tuple[int, int], list[float]] = {}
    for r in records:
        shape = r.shape or (r.width, r.depth)
        cells.setdefault(shape, []).append(r.F_clamped)
    return cells


def volumetric_summary(records: list[FidelityRecord]) -> str:
    """CSV with one row per (width, depth) shape: count, mean, min, max F."""
    cells = _cells(records)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["shape_w", "shape_d", "count", "mean_F", "min_F", "max_F"])
    for (sw, sd) in sorted(cells):
        fs = cells[(sw, sd)]
        w.writerow([sw, sd, len(fs), f"{_mean(fs):.6f}",
                    f"{min(fs):.6f}", f"{max(fs):.6f}"])
    return buf.getvalue()


def _color(f: float) -> str:
    f = min(1.0, max(0.0, f))
    r = int(round(255 * (1.0 - f)))
    g = int(round(200 * f))
    return f"#{r:02x}{g:02x}50"


def render_volumetric_svg(records: list[FidelityRecord]) -> str:
    """Hand-rolled SVG grid: width x depth axes, cell color = mean F."""
    cells = _cells(records)
    widths = sorted({s[0] for s in cells})
    depths = sorted({s[1] for s in cells})
    cs, pad = 64, 60
    svg_w = pad + cs * max(1, len(depths)) + 20
    svg_h = pad + cs * max(1, len(widths)) + 20
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg_w}" '
           f'height="{svg_h}" font-family="sans-serif" font-size="11">']
    out.append(f'<text x="{pad}" y="16">mean estimated fidelity by shape '
               f'(columns: depth, rows: width)</text>')
    for j, d in enumerate(depths):
        out.append(f'<text x="{pad + j * cs + cs // 3}" y="{pad - 8}">d={d}</text>')
    for i, wdt in enumerate(widths):
        out.append(f'<text x="8" y="{pad + i * cs + cs // 2}">w={wdt}</text>')
    for (sw, sd), fs in sorted(cells.items()):
        i, j = widths.index(sw), depths.index(sd)
        mean = _mean(fs)
        x, y = pad + j * cs, pad + i * cs
        out.append(f'<rect x="{x}" y="{y}" width="{cs - 2}" height="{cs - 2}" '
                   f'fill="{_color(mean)}" class="cell"/>')
        out.append(f'<text x="{x + 6}" y="{y + cs // 2}" fill="#000">'
                   f'{mean:.3f}</text>')
    out.append("</svg>")
    return "\n".join(out)
