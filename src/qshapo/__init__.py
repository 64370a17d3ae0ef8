"""qshapo: exact Shapovalov-element computations for quantized sl(N+1).

The package builds the negative part of the quantized enveloping algebra of
sl(N+1) over the exact field Q(q), decides equality there with a rewriting
system that completes itself through the degree each word needs, runs
Verma modules over symbolic or numeric highest weights, and constructs
Shapovalov elements three independent ways (closed sum, ordered
noncommutative determinant, and the rank induction by conjugation),
cross-checking that each produces highest weight vectors exactly.
"""

from .freealg import NCPoly, RewriteSystem, complete, get_rewrite_system, serre_relations
from .scalars import RatQ, WeightScalar, qbinom, qbinom_formal, qint
from .shapovalov import (
    ShapoElement,
    compare_doot,
    theta_det,
    theta_inductive,
    theta_power,
    theta_sum,
    theta_vector,
    verify_hwv,
)
from .verma import HighestWeight, VermaVector, act_e, act_f, act_k, is_hwv

__all__ = [
    "RatQ",
    "WeightScalar",
    "qint",
    "qbinom",
    "qbinom_formal",
    "NCPoly",
    "RewriteSystem",
    "serre_relations",
    "complete",
    "get_rewrite_system",
    "HighestWeight",
    "VermaVector",
    "act_f",
    "act_k",
    "act_e",
    "is_hwv",
    "ShapoElement",
    "theta_sum",
    "theta_det",
    "theta_inductive",
    "theta_power",
    "theta_vector",
    "verify_hwv",
    "compare_doot",
]

__version__ = "0.1.0"
