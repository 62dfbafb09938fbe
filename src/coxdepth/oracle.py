"""Ground truth from the Cayley graph.

The depth of a group element is the least total cost of a product of
reflections reaching it, where a reflection of Coxeter length l costs
(l + 1) / 2. Reflection length is the same problem with unit costs.
Both are single-source shortest paths on the Cayley graph under right
multiplication by reflections, and both run on the backend's one
engine, GroupBackend.distances, an integer bucket queue over ranks that
reads the backend's per-reflection Cayley tables. The backend caches
the reflection-length table.

enumerate_min_factorizations walks every reflection product of a given
length hitting a target, pruned by the reflection-length table, and is
deliberately capped small: its job is exhaustive verification, not
scale. It tracks the rank of the inverse of the residue: since
(t x)^-1 = x^-1 t for a reflection t, each step is one lookup in the
Cayley table of t, and x and x^-1 have the same reflection length.
"""

from .groups import reflection_depth


def depth_oracle(backend):
    """Depths of all elements, as a list indexed by backend rank."""
    return backend.distances([(t, reflection_depth(backend, t)) for t in backend.reflections])


def reflection_length_oracle(backend):
    """Reflection lengths of all elements, indexed by backend rank."""
    return list(backend._reflection_lengths)


def enumerate_min_factorizations(backend, w, budget=None):
    """Every product of exactly `budget` reflections equal to w.

    Factor sequences come out as tuples of indices into
    backend.reflections, in lexicographic order. The default budget is
    the reflection length of w, so by default the result lists all
    minimum-length reflection factorizations. Branches die early when
    the residue's reflection length exceeds, or differs in parity from,
    the remaining budget. Hard caps keep the search honest: budget at
    most 6, and kind A windows of size at most 6.
    """
    if backend.kind == "A" and backend.size > 6:
        raise ValueError("factorization search caps kind A at n=6, got n=%d" % backend.size)
    rl = backend._reflection_lengths
    r = backend.rank(w)
    if budget is None:
        budget = rl[r]
    if budget > 6:
        raise ValueError("factorization budget caps at 6, got %d" % budget)
    tables = [backend.table(t) for t in backend.reflections]
    out = []
    seq = []

    def extend(r_inv, left):
        # r_inv is the rank of the residue's inverse
        need = rl[r_inv]
        if need > left or (left - need) % 2:
            return
        if left == 0:
            out.append(tuple(seq))
            return
        for idx, table in enumerate(tables):
            seq.append(idx)
            extend(table[r_inv], left - 1)
            seq.pop()

    extend(backend.rank(backend.inverse(w)), budget)
    return out
