"""Layer tracing for the traced benchmark run, installed from outside the package.

install() wraps every public function of every coxdepth.* module, and every
public method and property of the classes those modules define, in place:
each module attribute bound to such a function, the package's re-exports
included, is rebound to one shared wrapper. A call counts as a boundary
crossing when the caller's layer differs from the layer of the module that
defines the callee. A call within one layer runs straight through, so
private helpers and intra-layer calls are charged to their caller's layer.

Boundary calls are folded per call path into a tree of (count, total time,
time in nested boundary calls), which keeps memory flat across the millions of
crossings of a full verify run. Calls the benchmark makes directly also
keep an individual span (name, start, end, parent op).
"""

import importlib
import inspect
import pkgutil
import time

ROOT_LAYER = "bench"


class Node:
    """One call path: boundary calls of `name`, reached through the parent's path."""

    __slots__ = ("layer", "name", "count", "total", "inner", "children")

    def __init__(self, layer, name):
        self.layer = layer
        self.name = name
        self.count = 0
        self.total = 0.0
        self.inner = 0.0  # time spent in boundary calls made from this path
        self.children = {}


def _count_elements(counts, args, result):
    counts["groups.elements"] += len(result.elements)


def _count_oracle(counts, args, result):
    backend = args[0]
    counts["oracle.elements"] += len(result)
    # computed, not counted: every element is expanded along every reflection
    counts["oracle.edges"] += len(backend.elements) * len(backend.reflections)


def _count_factorizations(counts, args, result):
    counts["oracle.factorizations"] += len(result)


# Work counters, keyed by "layer.function". They fire on every call,
# boundary or not, since the oracle calls itself for its reflection-length table.
COUNTERS = {
    "groups.build_backend": _count_elements,
    "oracle.depth_oracle": _count_oracle,
    "oracle.reflection_length_oracle": _count_oracle,
    "oracle.enumerate_min_factorizations": _count_factorizations,
}
COUNT_NAMES = ("groups.elements", "oracle.elements", "oracle.edges", "oracle.factorizations")


class Tracer:
    """Call-path tree, direct spans and work counters of one traced run."""

    def __init__(self):
        self.root = Node(ROOT_LAYER, ROOT_LAYER)
        self.node = self.root
        self.spans = []  # (name, start, end, parent op index) of direct calls
        self.op = None  # index of the benchmark op running now
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def install(self, package):
        """Wrap the public callables of every submodule of `package`."""
        modules = [package] + [
            importlib.import_module(package.__name__ + "." + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        wrappers = {}
        for mod in modules:
            for value in list(vars(mod).values()):
                if inspect.isfunction(value) and value.__module__.startswith(prefix):
                    if not value.__name__.startswith("_") and id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value, value.__module__[len(prefix):])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, mod.__name__[len(prefix):])
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, name, wrappers[id(value)])

    def _wrap_class(self, cls, layer):
        for name, value in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(value):
                setattr(cls, name, self._wrap(value, layer))
            elif isinstance(value, property) and value.fget is not None:
                setattr(cls, name, property(self._wrap(value.fget, layer), value.fset, value.fdel, value.__doc__))

    def _wrap(self, fn, layer):
        tracer = self
        root = self.root
        name = "%s.%s" % (layer, fn.__qualname__)
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = tracer.node
            if parent.layer == layer:
                result = fn(*args, **kwargs)
            else:
                node = parent.children.get(name)
                if node is None:
                    node = parent.children[name] = Node(layer, name)
                tracer.node = node
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    tracer.node = parent
                    node.count += 1
                    node.total += t1 - t0
                    parent.inner += t1 - t0
                    if parent is root:
                        tracer.spans.append((name, t0, t1, tracer.op))
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def paths(self):
        """Every folded call path as (path, layer, count, total_s, self_s), depth first."""
        out = []

        def walk(node, prefix):
            for child in node.children.values():
                path = prefix + (child.name,)
                out.append((path, child.layer, child.count, child.total, child.total - child.inner))
                walk(child, path)

        walk(self.root, ())
        return out

    def layer_totals(self):
        """{layer: (boundary calls into it, self seconds)} for every layer called."""
        totals = {}
        for _, layer, count, _, self_s in self.paths():
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += count
            entry[1] += self_s
        return {layer: tuple(v) for layer, v in totals.items()}
