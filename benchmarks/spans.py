"""Per-layer spans around the public functions of ``lenslinks``, installed from outside.

The program has no tracing of its own, so :class:`Tracer` replaces each
traced function in every ``lenslinks`` module namespace that binds it (the
defining module, the modules that import it by name, the package), and
patches the ``LaurentPoly`` / ``LaurentMatrix`` operators on their classes.
Internal calls such as ``alexander_of_closure`` -> ``burau_reduced`` are
therefore caught.  Only the traced run installs it; the timed runs wrap
nothing.

Stage names follow the runtime ``--stats`` stages planned in ROADMAP item 5
(parse, lift, burau, det, divide, normalize), as ``<module>.<stage>``.
Each span adds its inclusive time, its self time (inclusive minus the
inclusive time of its direct child spans) and a call count to a running
total; hooks add sizes such as letters or term pairs.  Totals stay in
memory and are read with :meth:`Tracer.snapshot`.

A hook reads only documented attributes (``terms``, ``letters``, ``size``,
``rows``, ``word``); if a later version lacks one, that statistic stays 0
instead of failing the run.  A traced name that no longer exists is
skipped the same way.
"""

from __future__ import annotations

import functools
import sys
import time

from oracle import cycles


def _bits(tracer, poly):
    top = max((abs(c).bit_length() for _, c in poly.terms), default=0)
    tracer.raise_max("laurent.coef.max_bits", top)


def _after_mul(tracer, args, result):
    a, b = len(args[0].terms), len(args[1].terms)
    tracer.add("laurent.mul.term_pairs", a * b)
    tracer.raise_max("laurent.mul.max_terms", max(a, b, len(result.terms)))


def _after_det(tracer, args, result):
    tracer.raise_max("laurent.det.max_dim", args[0].size)
    _bits(tracer, result)


def _after_divide(tracer, args, result):
    _bits(tracer, result)


def _after_burau(tracer, args, result):
    tracer.add("invariants.burau.letters", len(args[0].letters))
    for row in result.rows:
        for entry in row:
            _bits(tracer, entry)


def _after_power(tracer, args, result):
    tracer.add("braid.power.letters", len(result.letters))


def _after_lift(tracer, args, result):
    tracer.add("lens.lift.letters", len(result.letters))


def _after_orientation(tracer, args, result):
    word = args[0].word
    tracer.raise_max("lens.orientation.components", len(cycles(word.strands, list(word.letters))))


# (span name, module, function, hook)
FUNCTIONS = (
    ("laurent.divide", "laurent", "divide_exact", _after_divide),
    ("invariants.burau", "invariants", "burau_reduced", _after_burau),
    ("invariants.alexander", "invariants", "alexander_of_closure", None),
    ("braid.permutation", "braid", "permutation", None),
    ("braid.power", "braid", "power", _after_power),
    ("lens.parse", "lens", "parse_band_diagram", None),
    ("lens.lift", "lens", "lift", _after_lift),
    ("lens.homology", "lens", "homology_classes", None),
    ("lens.component_count", "lens", "lifted_component_count", None),
    ("lens.orientation", "lens", "nullhomologous_orientation", _after_orientation),
    ("curves.parse_poly", "curves", "parse_poly", None),
    ("curves.invariance", "curves", "invariance_class", None),
    ("curves.puiseux", "curves", "puiseux_pairs", None),
    ("genus.bennequin", "genus", "bennequin_fiber", None),
    ("genus.quotient", "genus", "quotient_genus", None),
    ("genus.quotient", "genus", "torus_quotient_genus", None),
    ("cli.run", "cli", "run", None),
)

# (span name, module, class, attribute, hook)
METHODS = (
    ("laurent.mul", "laurent", "LaurentPoly", "__mul__", _after_mul),
    ("laurent.add", "laurent", "LaurentPoly", "__add__", None),
    ("laurent.matmul", "laurent", "LaurentMatrix", "__matmul__", None),
    ("laurent.det", "laurent", "LaurentMatrix", "det", _after_det),
    ("invariants.normalize", "invariants", "AlexanderPoly", "from_laurent", None),
)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [inclusive ns, self ns, calls]
        self.stats: dict[str, int] = {}  # summed sizes
        self.maxima: dict[str, int] = {}
        self.constructions = 0  # LaurentPoly objects built
        self._stack = [[0]]  # per open span: inclusive ns of its children
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: int) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def raise_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def snapshot(self) -> dict[str, int]:
        """Flat copy of every running total, for per-call differences."""
        flat = {"laurent.poly_new.calls": self.constructions, **self.stats}
        for name, (total, own, calls) in self.spans.items():
            flat[f"{name}.ns"] = total
            flat[f"{name}.self_ns"] = own
            flat[f"{name}.calls"] = calls
        return flat

    def _span(self, name, fn, hook):
        record = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                record[0] += elapsed
                record[1] += elapsed - frame[0]
                record[2] += 1
            if hook is not None:
                # The hook's cost is tracing overhead: keep it out of the
                # caller's self time by booking it as child time.
                hook_start = clock()
                try:
                    hook(tracer, args, result)
                except (AttributeError, TypeError):
                    pass
                stack[-1][0] += clock() - hook_start
            return result

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.constructions += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced name in the already imported ``lenslinks`` modules."""
        package = [m for n, m in list(sys.modules.items()) if n == "lenslinks" or n.startswith("lenslinks.")]
        for name, module, attr, hook in FUNCTIONS:
            fn = getattr(sys.modules.get(f"lenslinks.{module}"), attr, None)
            if fn is None:
                continue
            wrapper = self._span(name, fn, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for name, module, cls_name, attr, hook in METHODS:
            cls = getattr(sys.modules.get(f"lenslinks.{module}"), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(name, raw.__func__, hook)))
            else:
                self._patch(cls, attr, self._span(name, raw, hook))
        poly = getattr(sys.modules.get("lenslinks.laurent"), "LaurentPoly", None)
        post_init = vars(poly).get("__post_init__") if poly is not None else None
        if post_init is not None:
            self._patch(poly, "__post_init__", self._counter(post_init))

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
