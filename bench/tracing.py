"""Per-layer tracing of qshapo, installed from outside the library.

``Tracer.install()`` replaces public qshapo functions and methods by thin
wrappers.  A function is replaced under every module attribute that is bound
to it (``to_pbw``, for example, is imported by name into ``uqsl``,
``shapovalov`` and ``suites``); a method is replaced under every class
attribute bound to it, so aliases such as ``RatQ.__rmul__ = __mul__`` are
covered.  Spans (name, start, end, parent) and counters are kept in memory
and written out by ``write_spans`` when the run ends.  Nothing is installed
in an untraced run.
"""

from __future__ import annotations

import time
from pathlib import Path

# (module, function, span name); every call records one span
SPANNED_FUNCTIONS = [
    ("freealg", "complete", "freealg.complete"),
    ("freealg", "audit_confluence", "freealg.audit"),
    ("verma", "act_e", "verma.act_e"),
    ("verma", "vector_from_ncpoly", "verma.vector_from_ncpoly"),
    ("uqsl", "to_pbw", "uqsl.to_pbw"),
    ("uqsl", "solve_linear", "uqsl.solve_linear"),
    ("uqsl", "divide_right_F", "uqsl.divide_right_F"),
    ("uqsl", "psi", "uqsl.psi"),
    ("uqsl", "expand_pbw", "uqsl.expand_pbw"),
    ("shapovalov", "theta_sum", "shapovalov.theta_sum"),
    ("shapovalov", "theta_power", "shapovalov.theta_power"),
    ("shapovalov", "theta_inductive", "shapovalov.theta_inductive"),
    ("shapovalov", "theta_vector", "shapovalov.theta_vector"),
    ("shapovalov", "verify_hwv", "shapovalov.verify_hwv"),
    ("suites", "suite_powers", "suites.suite_powers"),
    ("roots", "kostant_partitions", "roots.kostant_partitions"),
    # renamed to cli.cache_build / cli.cache_load once the status is known
    ("cli", "load_or_build", "cli.load_or_build"),
]

# (module, class, method, span name)
SPANNED_METHODS = [
    ("freealg", "RewriteSystem", "normal_form", "freealg.normal_form"),
    ("freealg", "RewriteSystem", "normal_words", "freealg.normal_words"),
]

# (module, class, method, counter); aliases of the method are counted too
COUNTED_METHODS = [
    ("scalars", "RatQ", "__init__", "scalars.ratq_new"),
    ("scalars", "RatQ", "__mul__", "scalars.ratq_mul"),
    ("scalars", "RatQ", "__add__", "scalars.ratq_add"),
    ("scalars", "RatQ", "__sub__", "scalars.ratq_add"),
    ("scalars", "RatQ", "__rsub__", "scalars.ratq_add"),
    ("scalars", "WeightScalar", "__mul__", "scalars.ws_mul"),
    ("freealg", "RewriteSystem", "_nf_word", "freealg.nf_word_calls"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.systems: dict[int, object] = {}

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- hooks that read a call's arguments or result ------------------------

    def _after_complete(self, idx, args, rs):
        self._add("freealg.rules", len(rs.rules))

    def _after_vector(self, idx, args, vec):
        self._add("verma.vector_terms", len(vec.terms))

    def _after_solve(self, idx, args, result):
        cols, rhs = args[0], args[1]
        rows = set(rhs)
        for col in cols:
            rows.update(col)
        self._add("uqsl.solve_linear_cells", len(rows) * len(cols))

    def _after_load_or_build(self, idx, args, result):
        from qshapo import cli

        n, cap, cache_dir = args[0], args[1], args[2]
        self.names[idx] = "cli.cache_load" if result[1] == "loaded" else "cli.cache_build"
        self._add("cli.cache_bytes", cli.cache_path(Path(cache_dir), n, cap).stat().st_size)

    def _register_system(self, fn):
        systems = self.systems

        def wrapper(self_, *args, **kwargs):
            systems[id(self_)] = self_
            return fn(self_, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        import qshapo
        from qshapo import cli, freealg, roots, scalars, shapovalov, suites, uqsl, verma

        mods = {
            "cli": cli,
            "freealg": freealg,
            "roots": roots,
            "scalars": scalars,
            "shapovalov": shapovalov,
            "suites": suites,
            "uqsl": uqsl,
            "verma": verma,
        }
        importers = [qshapo, *mods.values()]
        hooks = {
            "freealg.complete": self._after_complete,
            "verma.vector_from_ncpoly": self._after_vector,
            "uqsl.solve_linear": self._after_solve,
            "cli.load_or_build": self._after_load_or_build,
        }
        for mod, attr, name in SPANNED_FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapper = self._span(name, original, hooks.get(name))
            for importer in importers:
                for key, value in list(vars(importer).items()):
                    if value is original:
                        setattr(importer, key, wrapper)
        for mod, cls_name, attr, name in SPANNED_METHODS:
            _patch_method(getattr(mods[mod], cls_name), attr, lambda fn, name=name: self._span(name, fn))
        for mod, cls_name, attr, key in COUNTED_METHODS:
            _patch_method(getattr(mods[mod], cls_name), attr, lambda fn, key=key: self._counter(key, fn))
        _patch_method(freealg.RewriteSystem, "__init__", self._register_system)

    # -- results -------------------------------------------------------------

    def finish_counts(self) -> dict[str, int]:
        """Counters plus call counts per span name and the final size of
        every rewriting system's single-word normal-form cache."""
        out = dict(self.counts)
        for name in self.names:
            key = name + "_calls"
            out[key] = out.get(key, 0) + 1
        out["freealg.nf_cache_words"] = sum(len(rs._nf_cache) for rs in self.systems.values())
        return out

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s\t%r\t%r\t%d\n" % row)


def _patch_method(cls, attr, make_wrapper):
    original = cls.__dict__[attr]
    wrapper = make_wrapper(original)
    for key, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, key, wrapper)


def self_times(path: Path) -> dict[str, float]:
    """Sum, per span name, of each span's duration minus the time covered by
    its direct children."""
    names, durations, parents = [], [], []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            names.append(name)
            durations.append(float(end) - float(start))
            parents.append(int(parent))
    child = [0.0] * len(names)
    for p, d in zip(parents, durations):
        if p >= 0:
            child[p] += d
    out: dict[str, float] = {}
    for name, d, c in zip(names, durations, child):
        out[name] = out.get(name, 0.0) + d - c
    return out

