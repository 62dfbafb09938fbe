"""Ground truth from the Cayley graph.

The depth of a group element is the least total cost of a product of
reflections reaching it, where a reflection of Coxeter length l costs
(l + 1) / 2. Reflection length is the same problem with unit costs.
Both are single-source shortest paths on the Cayley graph under right
multiplication by reflections, and both run on the backend's one
engine, GroupBackend.distances, an integer bucket queue. The backend
caches the reflection-length table.

enumerate_min_factorizations walks every reflection product of a given
length hitting a target, pruned by the reflection-length table, and is
deliberately capped small: its job is exhaustive verification, not
scale.
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
    if budget is None:
        budget = rl[backend.rank(w)]
    if budget > 6:
        raise ValueError("factorization budget caps at 6, got %d" % budget)
    refl = backend.reflections
    multiply = backend.multiply
    rank = backend.rank
    out = []
    seq = []

    def extend(residue, left):
        need = rl[rank(residue)]
        if need > left or (left - need) % 2:
            return
        if left == 0:
            out.append(tuple(seq))
            return
        for idx, t in enumerate(refl):
            seq.append(idx)
            extend(multiply(t, residue), left - 1)
            seq.pop()

    extend(w, budget)
    return out
