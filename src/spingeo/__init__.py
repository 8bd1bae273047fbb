"""Spin geometry workbench.

Exact Clifford algebra arithmetic and classification, spin groups and
spinor representations, Chern-Weil characteristic classes, Čech Z₂
obstruction theory, and spectral index-theorem checks.

The names below are loaded from their home module on first use (PEP 562),
so ``import spingeo`` imports no layer and each CLI subcommand pays only
for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {  # public name -> the module that defines it
    "AlgebraType": "classification",
    "Multivector": "clifford",
    "QI": "clifford",
    "Signature": "clifford",
    "blade_mul": "clifford",
    "classify_complex": "classification",
    "classify_real": "classification",
    "even_subalgebra_complex": "classification",
    "even_subalgebra_type": "classification",
    "format_mv": "clifford",
    "parse_mv": "clifford",
    "supercommutator": "clifford",
    "table1": "classification",
    "volume_element": "clifford",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
