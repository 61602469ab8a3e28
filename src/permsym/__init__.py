"""Permutation symmetry workbench.

What varies under relabelling identical things, and what could never
have: symmetric-group sectors on n-particle Hilbert spaces, the operator
symmetriser and its trace identities, and permutation invariance for
finite first-order models and the theories that select among them.

Importing the package loads none of its modules.  Each submodule, and
each name in ``__all__``, is imported on first use (PEP 562), so
``models`` and ``symgroup`` run without numpy, which ``hilbert``,
``sectors``, ``symmetriser`` and ``casebook`` import when first touched.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each lazy name; a submodule names itself
_LAZY = {
    **dict.fromkeys(("AssemblyConfig", "DensityOperator", "Observable", "StateVector"), "hilbert"),
    "Permutation": "symgroup",
    "SectorProjectors": "sectors",
    **{m: m for m in ("casebook", "cli", "hilbert", "models", "sectors", "symgroup", "symmetriser")},
}
__all__ = ["AssemblyConfig", "DensityOperator", "Observable", "Permutation", "SectorProjectors", "StateVector",
           "__version__", "casebook", "hilbert", "models", "sectors", "symgroup", "symmetriser"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
