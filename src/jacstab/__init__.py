"""Dual-graph stability and divisor-class calculus for compactified Jacobians.

Combinatorics of stable marked dual graphs, (q-)stability of multidegrees for
a polarization, the treelike twister reduction, and exact symbolic pullback
classes of theta divisors and the zero section on moduli of stable curves.
"""

from .errors import JacstabError
from .graphs import DualGraph, ClassifyResult
from .stability import (Polarization, SEMISTABLE, STABLE, QSTABLE,
                        threshold, check_stability, enumerate_stable,
                        is_balanced, base_multidegree, locus_membership,
                        BALANCED, TREELIKE, BOTH, INDETERMINACY)
from .twister import (laplacian, twist_multidegree, reduce_treelike, branch_coefficients,
                      branch_side, boundary_multidegree, compact_type_gm1_multidegree)
from .divisors import (DivisorClass, canonicalize, canonical_pair, canonical_indices,
                       is_valid_index, theta_pullback, theta_pullback_hain,
                       theta_gm1_pullback, mueller_class, mueller_correction)
from .pushforward import (FiberClass, pushforward, PUSH_RULES, c1_twisted_bundle,
                          theta_via_pushforward, c1_gm1_bundle, theta_gm1_via_pushforward,
                          GradedAtomPoly, exp_truncate)

__version__ = "0.1.0"

__all__ = [
    "JacstabError", "DualGraph", "ClassifyResult",
    "Polarization", "SEMISTABLE", "STABLE", "QSTABLE",
    "threshold", "check_stability", "enumerate_stable",
    "is_balanced", "base_multidegree", "locus_membership",
    "BALANCED", "TREELIKE", "BOTH", "INDETERMINACY",
    "laplacian", "twist_multidegree", "reduce_treelike",
    "branch_coefficients", "branch_side", "boundary_multidegree",
    "DivisorClass", "canonicalize", "canonical_pair", "canonical_indices",
    "is_valid_index", "theta_pullback", "theta_pullback_hain",
    "theta_gm1_pullback", "mueller_class", "mueller_correction",
    "FiberClass", "pushforward", "PUSH_RULES",
    "c1_twisted_bundle", "theta_via_pushforward",
    "c1_gm1_bundle", "theta_gm1_via_pushforward",
    "compact_type_gm1_multidegree", "GradedAtomPoly", "exp_truncate",
]
