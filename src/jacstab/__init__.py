"""Dual-graph stability and divisor-class calculus for compactified Jacobians.

Combinatorics of stable marked dual graphs, (q-)stability of multidegrees for
a polarization, the treelike twister reduction, and exact symbolic pullback
classes of theta divisors and the zero section on moduli of stable curves.

The package loads lazily: importing it, or ``jacstab.cli``, loads no layer.
Each name of ``__all__`` is looked up in its home module on first use
(``__getattr__``, PEP 562) and kept, so ``jacstab.DualGraph`` loads
``graphs`` only, and ``from jacstab import *`` loads every layer.

``pushforward`` names both a submodule and one of its functions, and the
package attribute is always the function.  The import system binds each
submodule it loads onto its package; the package's ``__setattr__`` refuses
that one binding, so ``jacstab.pushforward`` stays the function in every
import order.  The module itself is ``sys.modules["jacstab.pushforward"]``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# (home module, names) in the order of ``__all__``
_HOMES = (
    ("errors", ("JacstabError",)),
    ("graphs", ("DualGraph", "ClassifyResult")),
    ("stability", ("Polarization", "SEMISTABLE", "STABLE", "QSTABLE",
                   "threshold", "check_stability", "enumerate_stable",
                   "is_balanced", "base_multidegree", "locus_membership",
                   "BALANCED", "TREELIKE", "BOTH", "INDETERMINACY")),
    ("twister", ("laplacian", "twist_multidegree", "reduce_treelike",
                 "branch_coefficients", "branch_side", "boundary_multidegree")),
    ("divisors", ("DivisorClass", "canonicalize", "canonical_pair", "canonical_indices",
                  "is_valid_index", "theta_pullback", "theta_pullback_hain",
                  "theta_gm1_pullback", "mueller_class", "mueller_correction")),
    ("pushforward", ("FiberClass", "pushforward", "PUSH_RULES",
                     "c1_twisted_bundle", "theta_via_pushforward",
                     "c1_gm1_bundle", "theta_gm1_via_pushforward")),
    ("twister", ("compact_type_gm1_multidegree",)),
    ("pushforward", ("GradedAtomPoly", "exp_truncate")),
)
_HOME = {name: module for module, names in _HOMES for name in names}
__all__ = [name for _, names in _HOMES for name in names]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package's class: it keeps the function ``pushforward`` from being
    replaced by the submodule of that name."""

    def __setattr__(self, name: str, value) -> None:
        if not (name == "pushforward" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
