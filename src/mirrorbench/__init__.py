"""Toolkit for turning quantum circuits into scalable process-fidelity benchmarks.

The public names below are resolved on first use (PEP 562), so importing the
package, or one light module of it such as ``mirrorbench.cli``, does not
import numpy or compile the modules a caller never uses.
"""

import importlib
import sys
from types import ModuleType

# module -> the public names it defines
_EXPORTS = {
    "core": (
        "CapacityError",
        "ContractError",
        "NoiseModel",
        "FidelityRecord",
        "full_process_fidelity",
    ),
    "circuits": (
        "Circuit",
        "CouplingGraph",
        "GateOp",
        "inverse",
        "layerize",
    ),
    "sim": (
        "exact_process_fidelity",
        "ideal_distribution",
        "noisy_distribution",
        "process_fidelity_unitaries",
        "sample_shots",
        "unitary_of",
    ),
    "shots": ("ShotTable",),
    "mirror": ("MirrorCircuit", "SamplingParams", "build_suite"),
    "transpile": ("TranspileConfig", "transpile"),
    "algos": (
        "PauliSumHamiltonian",
        "TrotterSpec",
        "algorithmic_process_fidelity",
        "brickwork_u3_cz",
        "heisenberg",
        "max3sat",
        "qaoa_circuit",
        "qft_circuit",
        "tfim",
        "trotter_circuit",
    ),
    "bench": (
        "ShapeSpec",
        "build_full_stack",
        "build_low_level",
        "build_subcircuit",
        "snip",
    ),
    "analysis": (
        "EffectiveErrorRate",
        "classical_fidelity",
        "effective_error_rate",
        "effective_polarization",
        "mcfe_estimate",
        "normalized_classical_fidelity",
        "predict_full_fidelity",
    ),
    "qasm": ("parse_qasm", "serialize_qasm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package, and the submodule
        # ``transpile`` shares its name with the public function, which wins.
        if name in _MODULE_OF and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
