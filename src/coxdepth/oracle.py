"""Ground truth from the Cayley graph.

The depth of a group element is the least total cost of a product of
reflections reaching it, where a reflection of Coxeter length l costs
(l + 1) / 2. Reflection length is the same problem with unit costs.
Both are single-source shortest paths on the Cayley graph under right
multiplication by reflections, and both run on the backend's one
engine, GroupBackend.distances, an integer bucket queue over ranks that
reads the backend's per-reflection Cayley tables.

factorization_counts counts the cheapest factorizations themselves. A
cheapest factorization of w is a path from the identity along edges
x -> x g whose cost equals the drop in distance, so one pass over the
ranks in order of distance counts the paths into every element. With
unit-cost simples it counts reduced words, with unit-cost reflections
minimal reflection factorizations, and with depth costs the
factorizations that attain the depth. It reads only the Cayley tables.

group_columns(kind, size) is the one cached record per group: the
backend, built once, and the oracle's depth of each element. The
checks and the B and I2 depth tables read it; the searches themselves
stay uncached and return fresh objects.
"""

from collections import namedtuple
from functools import lru_cache

from .groups import build_backend, reflection_depth

# The depth of each element as bytes indexed by rank; the lengths are
# backend.lengths.
GroupColumns = namedtuple("GroupColumns", "backend depth")


def depth_oracle(backend):
    """Depths of all elements, as a list indexed by backend rank."""
    return backend.distances([(t, reflection_depth(backend, t)) for t in backend.reflections])


def reflection_length_oracle(backend):
    """Reflection lengths of all elements, indexed by backend rank."""
    return backend.distances([(t, 1) for t in backend.reflections])


@lru_cache(maxsize=None)
def group_columns(kind, size):
    """The GroupColumns of build_backend(kind, size), computed once per group."""
    backend = build_backend(kind, size)
    return GroupColumns(backend, bytes(depth_oracle(backend)))


def factorization_counts(backend, steps):
    """Cheapest factorizations of every element, as a list indexed by rank.

    steps lists (generator, cost) pairs as for GroupBackend.distances,
    and every generator is an involution, as simples and reflections
    are. The count of w is the number of generator sequences g_1..g_k
    with product w whose costs sum to the distance of w. Each rank r
    sums the counts of r g over the steps (g, c) with r g one cost c
    closer to the identity, so a rank is done once every rank nearer
    the identity is; ranks the steps never reach count 0.
    O(|W| log |W| + |W| · len(steps)).
    """
    edges = [(backend.table(g), cost) for g, cost in steps]
    dist = backend.distances(steps)
    counts = [0] * len(dist)
    counts[0] = 1  # the empty product is the identity
    for d, r in sorted((d, r) for r, d in enumerate(dist) if d):
        counts[r] = sum(counts[table[r]] for table, cost in edges if dist[table[r]] == d - cost)
    return counts
