"""Exact topological T-duality data for compact semisimple Lie groups.

The package decides and computes, by integer/rational arithmetic only:
low-degree integral cohomology of a group and its flag manifold, twist
classification, dual-bundle Chern data, torsor shifts of reductions,
commutator maps of lattice central extensions with the fibrewise
trivializability criterion, and the Langlands-dual T-duality verification.
A small module checks the curvature constants (a float quadrature and exact
su(n) structure constants); it never feeds back into the exact code.
"""

from .errors import TdualError
from .rootdata import RootDatum, build, langlands_dual, named_group
from .tduality import dual_chern, langlands_twist, verify_langlands_tdual

__version__ = "0.1.0"

__all__ = [
    "TdualError",
    "RootDatum",
    "build",
    "dual_chern",
    "langlands_dual",
    "langlands_twist",
    "named_group",
    "verify_langlands_tdual",
    "__version__",
]
