"""Concrete finite Coxeter group backends.

Three families are enumerated explicitly:

- kind "A", size n: the symmetric group on {1..n} (rank n - 1),
  elements stored as windows;
- kind "B", size n: signed permutations of {1..n}, stored as signed
  windows where a negative entry means the value comes out negated;
- kind "I2", size m: the dihedral group of order 2m, stored as pairs
  (r, f) meaning rotation by r followed by a flip when f = 1.

A family supplies its elements in a fixed order, its simples and its
multiply, and nothing else: no group inverse is needed, because every
generator the backend walks is an involution. The rank of an element is
its position in that order, looked up in a dict built once, and
anything not in the group is refused with ValueError. The reflections
are the closure of the simples under conjugation, and the closure
records for each new reflection g one pair (s, u) with s simple and
g = s u s.

The backend owns one Cayley table per generator g: an array with
table[r] = rank(elements[r] * g), of typecode 'H' while the group order
fits in 16 bits (two bytes an entry, which covers every capped group)
and 'I' above. The simples' tables are built from multiply and the
index; every other reflection's table is composed from two earlier
tables, table[g][r] = ts[tu[ts[r]]], without multiplying or hashing.
Tables are built on first use and kept.

Its one shortest-path engine, distances, walks those tables to give
least total costs from the identity under right multiplication by
weighted generators: unit-cost simples give the Coxeter length,
unit-cost reflections the reflection length, and reflections costed by
reflection_depth the depth. A reflection of length l costs (l + 1) / 2,
which in the symmetric group gives t_ij the cost j - i.
"""

from array import array
from itertools import permutations

from .perm_core import apply_transposition_right, compose, identity

_CAPS = {"A": (1, 8), "B": (1, 5), "I2": (2, 12)}


class GroupBackend:
    """One concretely enumerated group.

    Attributes: kind ("A", "B" or "I2"), size (n, or m for "I2"),
    elements (rank order), identity, simples, reflections (canonical
    display order), lengths (list indexed by rank). multiply is
    supplied by the family.
    """

    def __init__(self, kind, size, elements, simples, multiply, reflection_key):
        self.kind = kind
        self.size = size
        self.elements = elements
        self.simples = simples
        self.multiply = multiply
        self.identity = elements[0]  # every family enumerates in rank order
        self._index = {x: r for r, x in enumerate(elements)}
        self._typecode = "H" if len(elements) <= 1 << 16 else "I"
        self._tables = {}
        self._conjugates = _conjugation_closure(simples, multiply)
        self.lengths = self.distances([(s, 1) for s in simples])
        self.reflections = tuple(sorted(simples + tuple(self._conjugates), key=reflection_key))
        self._reflection_ranks = frozenset(self.rank(t) for t in self.reflections)

    def rank(self, x):
        """Position of x in elements; ValueError if x is not in the group."""
        try:
            return self._index[x]
        except (KeyError, TypeError):
            name = "I2(%d)" % self.size if self.kind == "I2" else "%s%d" % (self.kind, self.size)
            raise ValueError("not an element of %s: %r" % (name, x)) from None

    def table(self, g):
        """The Cayley table of g: an array with table[r] = rank(elements[r] * g).

        Built on first use and kept. A reflection found by conjugation,
        g = s u s, is composed from the tables of s and u; any other
        generator is multiplied out once per element.
        """
        table = self._tables.get(g)
        if table is None:
            pair = self._conjugates.get(g)
            if pair is None:
                self.rank(g)  # refuse a non-element by name
                index, multiply = self._index, self.multiply
                table = array(self._typecode, [index[multiply(x, g)] for x in self.elements])
            else:
                ts, tu = self.table(pair[0]), self.table(pair[1])
                table = array(self._typecode, [ts[tu[r]] for r in ts])
            self._tables[g] = table
        return table

    def distances(self, steps):
        """Least total costs from the identity, as a list indexed by rank.

        steps lists (generator, cost) pairs with positive integer costs;
        a path multiplies by generators on the right. The integer bucket
        queue holds ranks and each edge is one lookup in the generator's
        Cayley table, so the search never multiplies or hashes an
        element. Elements the steps never reach get None.
        """
        edges = [(self.table(g), cost) for g, cost in steps]
        dist = [None] * len(self.elements)
        dist[0] = 0  # the identity comes first in rank order
        buckets = [[0]]
        d = 0
        while d < len(buckets):
            for r in buckets[d]:
                if dist[r] != d:
                    continue  # superseded entry
                for table, cost in edges:
                    ry = table[r]
                    nd = d + cost
                    old = dist[ry]
                    if old is None or nd < old:
                        dist[ry] = nd
                        while len(buckets) <= nd:
                            buckets.append([])
                        buckets[nd].append(ry)
            d += 1
        return dist

    def length(self, x):
        return self.lengths[self.rank(x)]

    def is_reflection(self, x):
        return self.rank(x) in self._reflection_ranks


def check_size(kind, size, what):
    """Raise ValueError unless size lies within the cap of group kind.

    The caps bound every exhaustive sweep; what names the caller in the
    message, e.g. "verify supports sizes 1..8, got 9".
    """
    if kind not in _CAPS:
        raise ValueError("unknown group kind %r (expected A, B or I2)" % (kind,))
    lo, hi = _CAPS[kind]
    if not lo <= size <= hi:
        raise ValueError("%s supports sizes %d..%d, got %d" % (what, lo, hi, size))


def build_backend(kind, size):
    """Construct a backend; size means n for kinds A and B, m for I2."""
    check_size(kind, size, "kind %s" % kind)
    if kind == "A":
        return _build_a(size)
    if kind == "B":
        return _build_b(size)
    return _build_i2(size)


# ---------------------------------------------------------------- kind A

def _moved_pair(t):
    moved = [i for i, x in enumerate(t, start=1) if x != i]
    return (moved[0], moved[-1])


def _build_a(n):
    elements = list(permutations(range(1, n + 1)))
    e = identity(n)
    simples = tuple(apply_transposition_right(e, i, i + 1) for i in range(1, n))
    return GroupBackend("A", n, elements, simples, compose, _moved_pair)


# ---------------------------------------------------------------- kind B

def compose_signed(a, b):
    """(a * b)(i) = a(b(i)), extended by a(-k) = -a(k)."""
    if len(a) != len(b):
        raise ValueError("size mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(a[x - 1] if x > 0 else -a[-x - 1] for x in b)


def _signed_reflection_key(t):
    moved = [i for i, x in enumerate(t, start=1) if x != i]
    i = moved[0]
    if len(moved) == 1:
        return (0, i, i)  # negation of one value
    j = moved[-1]
    return (1, i, j) if t[i - 1] > 0 else (2, i, j)  # plain swap, then signed swap


def _build_b(n):
    elements = []
    for p in permutations(range(1, n + 1)):
        for bits in range(1 << n):
            elements.append(tuple(-x if (bits >> (n - i)) & 1 else x for i, x in enumerate(p, start=1)))
    e = identity(n)
    simples = ((-1,) + e[1:],) + tuple(apply_transposition_right(e, i, i + 1) for i in range(1, n))
    return GroupBackend("B", n, elements, simples, compose_signed, _signed_reflection_key)


# --------------------------------------------------------------- kind I2

def _make_dihedral_ops(m):
    def multiply(a, b):
        r1, f1 = a
        r2, f2 = b
        return ((r1 - r2) % m if f1 else (r1 + r2) % m, f1 ^ f2)

    return multiply


def _dihedral_reflection_key(t):
    return t[0]  # every reflection is a flip (r, 1)


def _build_i2(m):
    elements = [(r, f) for f in (0, 1) for r in range(m)]
    simples = ((0, 1), (1, 1))
    return GroupBackend("I2", m, elements, simples, _make_dihedral_ops(m), _dihedral_reflection_key)


# ------------------------------------------------------------- shared

def _conjugation_closure(simples, multiply):
    # {g: (s, u)} for every reflection g outside simples, with s simple,
    # u found earlier and g = s u s^-1 = s u s, simples being involutions
    found = {}
    frontier = list(simples)
    while frontier:
        nxt = []
        for u in frontier:
            for s in simples:
                g = multiply(multiply(s, u), s)
                if g not in found and g not in simples:
                    found[g] = (s, u)
                    nxt.append(g)
        frontier = nxt
    return found


def reflection_depth(backend, t):
    """The depth (l + 1) / 2 of a reflection of length l."""
    if not backend.is_reflection(t):
        raise ValueError("not a reflection: %r" % (t,))
    return (backend.length(t) + 1) // 2


def dihedral_depth_formula(backend, x):
    """Depth of a dihedral element from its length alone.

    Zero for the identity, (l + 1) / 2 for odd length l, l / 2 + 1 for
    even positive length.
    """
    if backend.kind != "I2":
        raise ValueError("dihedral formula needs an I2 backend, got kind %r" % backend.kind)
    l = backend.length(x)
    if l == 0:
        return 0
    if l % 2:
        return (l + 1) // 2
    return l // 2 + 1


def dihedral_gf(m):
    """Closed-form joint polynomial of the dihedral group of order 2m.

    Returns {(length, depth): count} for the polynomial
    sum over the group of q^length * t^depth. For even m that is
    1 + 2qt + q^m t^(m/2+1) + 2(1+q) t * sum_{i=1}^{m/2-1} q^(2i) t^i,
    and for odd m
    1 + 2qt + (2+q) q^(m-1) t^((m+1)/2)
      + 2(1+q) t * sum_{i=1}^{(m-3)/2} q^(2i) t^i.
    """
    check_size("I2", m, "kind I2")
    gf = {(0, 0): 1, (1, 1): 2}
    if m % 2 == 0:
        gf[(m, m // 2 + 1)] = 1
    else:
        gf[(m - 1, (m + 1) // 2)] = 2
        gf[(m, (m + 1) // 2)] = 1
    # the sum runs over i = 1..m // 2 - 1 for both parities; no key repeats
    for i in range(1, m // 2):
        gf[(2 * i, i + 1)] = 2
        gf[(2 * i + 1, i + 1)] = 2
    return gf


def joint_length_depth(backend, depths):
    """Fold {(length, depth): count} over all elements of a backend.

    depths is a list indexed by rank, e.g. from the depth oracle.
    """
    gf = {}
    for key in zip(backend.lengths, depths):
        gf[key] = gf.get(key, 0) + 1
    return gf
