"""Per-layer spans and counters, recorded from outside foxcalc.

Tracing wraps public functions of foxcalc's modules.  A name bound with
``from .x import f`` is looked up in the importing module, so each wrapper
replaces the original function object under every name that refers to it in
every loaded foxcalc module.  A span's self time is its duration minus the
time covered by the spans it encloses; counters are plain integers.  With
tracing off nothing is wrapped and foxcalc runs untouched.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

REGIMES = ("finite", "field_univariate", "z_univariate", "other")

# (name, unit), in report order.  Names ending in _s are self times.
PER_LAYER = (
    [
        ("presentations.free_reduce_calls", "count"),
        ("fox.fox_derive_s", "s"),
        ("fox.fox_derive_calls", "count"),
        ("fox.derivative_terms", "count"),
        ("invariants.alexander_matrix_s", "s"),
        ("invariants.twisted_matrix_s", "s"),
        ("invariants.handlebody_invariant_s", "s"),
        ("invariants.elementary_ideal_s", "s"),
        ("invariants.surfacelink_invariant_s", "s"),
        ("rings.minors_s", "s"),
        ("rings.minors_count", "count"),
        ("rings.det_s", "s"),
        ("rings.reduce_matrix_s", "s"),
        ("rings.reduce_cols_in", "count"),
        ("rings.reduce_cols_out", "count"),
        ("rings.poly_gcd_s", "s"),
    ]
    + [(f"ideals.ideal_normalize_s.{r}", "s") for r in REGIMES]
    + [(f"ideals.ideal_normalize_calls.{r}", "count") for r in REGIMES]
    + [
        ("ideals.minimal_generating_set_s", "s"),
        ("ideals.render_ideal_s", "s"),
        ("ideals.ideal_equals_s", "s"),
        ("maps.enumerate_homs_s", "s"),
        ("maps.homs", "count"),
        ("maps.conjugacy_classes_s", "s"),
        ("maps.classes", "count"),
        ("maps.mat_mul_calls", "count"),
        ("maps.mat_inv_calls", "count"),
        ("maps.enumerate_epis_s", "s"),
        ("maps.word_image_s", "s"),
        ("catalog.load_s", "s"),
    ]
)

# Recorded while the inputs are built, not per round.
SETUP_METRICS = ("catalog.load_s",)


def regime(spec):
    """The ideal regime of a ring spec, classified here from its modulus and
    variable orders: finite ring, univariate over a prime field, univariate
    (or constant) over Z, or anything else."""
    orders = [k for _, k in spec.variables]
    if spec.modulus > 0 and all(k > 0 for k in orders):
        return "finite"
    if spec.modulus > 0 and orders == [0]:
        return "field_univariate"
    if spec.modulus == 0 and len(orders) <= 1:
        return "z_univariate"
    return "other"


class Tracer:
    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: time covered by its child spans

    def reset(self):
        self.times.clear()
        self.counts.clear()

    def snapshot(self):
        return {**self.times, **self.counts}

    def span(self, fn, name, after=None):
        """Wrap fn in a span; name is a string or a function of the arguments.
        after(args, result) may add counts."""
        times, stack = self.times, self._stack

        def wrapper(*args, **kwargs):
            key = name if isinstance(name, str) else name(args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                times[key] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layers of an imported foxcalc."""
        from foxcalc import catalog, fox, ideals, invariants, maps, presentations, rings

        counts = self.counts

        def count_len(name):
            def after(args, result):
                counts[name] += len(result)

            return after

        def after_fox(args, result):
            counts["fox.fox_derive_calls"] += 1
            counts["fox.derivative_terms"] += len(result.terms)

        def after_reduce(args, result):
            counts["rings.reduce_cols_in"] += args[0].declared_cols
            counts["rings.reduce_cols_out"] += result.declared_cols

        def after_normalize(args, result):
            counts[f"ideals.ideal_normalize_calls.{regime(args[0].spec)}"] += 1

        def normalize_name(args):
            return f"ideals.ideal_normalize_s.{regime(args[0].spec)}"

        spans = [  # (module, function, span name, after)
            (fox, "fox_derive", "fox.fox_derive_s", after_fox),
            (invariants, "alexander_matrix", "invariants.alexander_matrix_s", None),
            (invariants, "twisted_matrix", "invariants.twisted_matrix_s", None),
            (invariants, "handlebody_invariant", "invariants.handlebody_invariant_s", None),
            (invariants, "elementary_ideal", "invariants.elementary_ideal_s", None),
            (invariants, "surfacelink_invariant", "invariants.surfacelink_invariant_s", None),
            (rings, "minors", "rings.minors_s", count_len("rings.minors_count")),
            (rings, "det", "rings.det_s", None),
            (rings, "reduce_matrix", "rings.reduce_matrix_s", after_reduce),
            (rings, "poly_gcd", "rings.poly_gcd_s", None),
            (ideals, "ideal_normalize", normalize_name, after_normalize),
            (ideals, "minimal_generating_set", "ideals.minimal_generating_set_s", None),
            (ideals, "render_ideal", "ideals.render_ideal_s", None),
            (ideals, "ideal_equals", "ideals.ideal_equals_s", None),
            (maps, "enumerate_homs", "maps.enumerate_homs_s", count_len("maps.homs")),
            (maps, "conjugacy_classes", "maps.conjugacy_classes_s", count_len("maps.classes")),
            (maps, "enumerate_epis", "maps.enumerate_epis_s", None),
            (catalog, "catalog_lookup", "catalog.load_s", None),
            (catalog, "load_presentation", "catalog.load_s", None),
        ]
        counters = [  # (module, function, counter name)
            (presentations, "free_reduce", "presentations.free_reduce_calls"),
            (maps, "mat_mul", "maps.mat_mul_calls"),
            (maps, "mat_inv", "maps.mat_inv_calls"),
        ]
        wrappers = [
            (getattr(module, attr), self.span(getattr(module, attr), name, after))
            for module, attr, name, after in spans
        ] + [
            (getattr(module, attr), self.counter(getattr(module, attr), name))
            for module, attr, name in counters
        ]
        modules = [
            m for key, m in sys.modules.items() if key == "foxcalc" or key.startswith("foxcalc.")
        ]
        for original, wrapper in wrappers:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        maps.MatrixRep.word_image = self.span(maps.MatrixRep.word_image, "maps.word_image_s")
