"""Depth statistics on Coxeter group elements.

The depth of a group element is the cheapest way to write it as a product
of reflections when a reflection of length ell costs (ell + 1) / 2.  For a
permutation this equals the total displacement of the excedances,
sum of w(i) - i over positions with w(i) > i.

The package computes depth three independent ways and checks them against
each other: the excedance formula (stats), a greedy factorization that
attains the minimum and certifies it (decomp), and weighted shortest paths
on the reflection Cayley graph (groups, oracle).  On top of that sit the
bijections transporting (drop, des) to (dep, exc) and the pattern
classifications of the permutations where depth collapses onto length or
reflection length (bijections, patterns, enumeration).
"""

from .perm_core import ParseError, compose, identity, inverse, parse
from .perm_core import format as format_window
from .stats import (
    depth,
    depth_after_transposition,
    descents,
    drop,
    excedances,
    length,
    max_depth_bound,
    max_depth_count,
    reflection_length,
)
from .decomp import (
    selection_factorization,
    selection_sort_trace,
    shallow_decomp,
    shallow_trace,
    sorting_index,
    verify_factorization,
)
from .groups import (
    build_backend,
    dihedral_depth_formula,
    dihedral_gf,
    joint_length_depth,
    reflection_depth,
)
from .oracle import depth_oracle, factorization_counts, reflection_length_oracle
from .bijections import (
    dyck_of_perm,
    lr_maxima,
    minimal_fiber_rep,
    steingrimsson_phi,
    steingrimsson_phi_inverse,
)
from .patterns import (
    avoids,
    contains_pattern,
    cycles_are_intervals,
    is_boolean,
    is_fc,
    is_free,
    support,
)
from .enumeration import count_class, depth_distribution, export_table, joint_distribution

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "avoids",
    "build_backend",
    "compose",
    "contains_pattern",
    "count_class",
    "cycles_are_intervals",
    "depth",
    "depth_after_transposition",
    "depth_distribution",
    "depth_oracle",
    "descents",
    "dihedral_depth_formula",
    "dihedral_gf",
    "drop",
    "dyck_of_perm",
    "excedances",
    "export_table",
    "factorization_counts",
    "format_window",
    "identity",
    "inverse",
    "is_boolean",
    "is_fc",
    "is_free",
    "joint_distribution",
    "joint_length_depth",
    "length",
    "lr_maxima",
    "max_depth_bound",
    "max_depth_count",
    "minimal_fiber_rep",
    "parse",
    "reflection_depth",
    "reflection_length",
    "reflection_length_oracle",
    "selection_factorization",
    "selection_sort_trace",
    "shallow_decomp",
    "shallow_trace",
    "sorting_index",
    "steingrimsson_phi",
    "steingrimsson_phi_inverse",
    "support",
    "verify_factorization",
]
