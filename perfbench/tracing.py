"""Span tracing for the traced benchmark run, from outside ``src/``.

``Tracer.install`` wraps every public function of every ``permotzkin``
module, the methods and helpers the per-layer metrics name, and each entry
of ``verify.CHECKS``.  Each wrapper replaces the original wherever callers
look it up: in every module namespace that binds the same object (functions
imported by name, such as ``image_stats`` in ``jfraction``), or on the class
(``MultiPoly.__mul__`` and its alias ``__rmul__``).  ``uninstall`` puts the
originals back.

Spans are aggregated in memory per name: calls, items yielded (for
generators, whose span covers only the work inside ``next()``, not the
consumer's loop body), inclusive time, and self time (inclusive time minus
the time of child spans).  The run writes the table out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from typing import Callable

clock = time.perf_counter


class SpanStats:
    __slots__ = ("calls", "items", "total_s", "self_s", "first_call_s")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total_s = 0.0
        self.self_s = 0.0
        # inclusive time of the first call per distinct first argument
        self.first_call_s: dict[object, float] = {}

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "items": self.items,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "distinct_first_args": len(self.first_call_s),
        }


class Tracer:
    """Wraps permotzkin's functions in spans; one instance per process."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        # child time of each open span; entry 0 collects the root spans
        self._open = [0.0]
        self._undo: list[Callable[[], None]] = []
        self.term_pairs = 0
        self.peak_terms = 0

    @property
    def root_s(self) -> float:
        """Time spent inside any span, summed over the outermost spans."""
        return self._open[0]

    # -- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn: Callable, by_first_arg: bool = False) -> Callable:
        """``fn`` inside a span called ``name``.

        With ``by_first_arg`` the span also keeps the inclusive time of the
        first call for each distinct first argument.
        """
        span = self.spans.setdefault(name, SpanStats())
        open_ = self._open

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span.calls += 1
                generator = fn(*args, **kwargs)
                while True:
                    open_.append(0.0)
                    start = clock()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        child = open_.pop()
                        open_[-1] += elapsed
                        span.total_s += elapsed
                        span.self_s += elapsed - child
                    span.items += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_.pop()
                open_[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child
                if by_first_arg:
                    span.first_call_s.setdefault(args[0], elapsed)

        return traced

    def _wrap_mul(self, fn: Callable, poly_type: type) -> Callable:
        """``MultiPoly.__mul__`` in a span, counting term pairs and peak terms."""
        traced = self.wrap("algebra.MultiPoly.mul", fn)

        @functools.wraps(fn)
        def mul(left, right):
            result = traced(left, right)
            if result is not NotImplemented:
                right_terms = len(right._terms) if isinstance(right, poly_type) else 1
                self.term_pairs += len(left._terms) * right_terms
                self.peak_terms = max(self.peak_terms, len(result._terms))
            return result

        return mul

    # -- patching -------------------------------------------------------

    def _set(self, owner: object, attribute: str, value: object) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _replace_everywhere(self, namespaces: list, original: object, wrapped: object) -> None:
        for namespace in namespaces:
            for attribute, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, attribute, wrapped)

    def install(self) -> None:
        """Wrap permotzkin's functions; the package must be importable."""
        package = importlib.import_module("permotzkin")
        modules = {
            info.name: importlib.import_module(f"permotzkin.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        namespaces = [package, *modules.values()]
        for short, module in sorted(modules.items()):
            for attribute, value in list(vars(module).items()):
                if (
                    not attribute.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped = self.wrap(
                        f"{short}.{attribute}",
                        value,
                        by_first_arg=(short, attribute) == ("identities", "derangement_signed_gf"),
                    )
                    self._replace_everywhere(namespaces, value, wrapped)

        involution = modules["involution"]
        self._set(
            involution, "_pairing", self.wrap("involution._pairing", involution._pairing, True)
        )

        for cls, method in (
            (modules["permutations"].Permutation, "from_text"),
            (modules["motzkin"].WeightedMotzkinPath, "from_text"),
        ):
            function = cls.__dict__[method].__func__
            name = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.{method}"
            self._set(cls, method, classmethod(self.wrap(name, function)))

        poly = modules["algebra"].MultiPoly
        for method, wrapped in (
            ("__mul__", self._wrap_mul(poly.__mul__, poly)),
            ("__add__", self.wrap("algebra.MultiPoly.add", poly.__add__)),
            ("__str__", self.wrap("algebra.MultiPoly.str", poly.__str__)),
        ):
            self._replace_everywhere([poly], poly.__dict__[method], wrapped)

        checks = modules["verify"].CHECKS
        for check, function in list(checks.items()):
            checks[check] = self.wrap(f"verify.check.{check}", function)
            self._undo.append(functools.partial(checks.__setitem__, check, function))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        return {name: span.as_dict() for name, span in sorted(self.spans.items())}

    def metrics(self, op_s: float) -> dict[str, float]:
        """Every per-layer figure this tracer can give, by metric name.

        ``op_s`` is the traced operation's wall time; the part of it that no
        span covers is ``unattributed_s``.
        """
        spans = self.spans
        values: dict[str, float] = {}
        for name, span in spans.items():
            values[f"{name}.calls"] = span.calls
            values[f"{name}.items"] = span.items
            values[f"{name}.self_s"] = span.self_s
            values[f"{name}.wall_s"] = span.total_s
        values["algebra.MultiPoly.mul.term_pairs"] = self.term_pairs
        values["algebra.MultiPoly.mul.peak_terms"] = self.peak_terms

        paths = (
            spans["bijection.encode"].calls
            + spans["motzkin.enumerate_weighted"].items
            + spans["motzkin.WeightedMotzkinPath.from_text"].calls
        )
        values["motzkin.validate.per_path"] = (
            spans["motzkin.validate"].calls / paths if paths else 0.0
        )
        derangements = spans["identities.derangement_signed_gf"]
        values["identities.derangement_signed_gf.calls_per_n"] = (
            derangements.calls / len(derangements.first_call_s)
            if derangements.first_call_s
            else 0.0
        )
        values["involution.table_build_s"] = sum(
            spans["involution._pairing"].first_call_s.values()
        )
        values["unattributed_s"] = op_s - self.root_s
        return values
