"""Per-layer tracing of diffield, installed from outside the package.

The tracer wraps the public functions of each layer in a fresh interpreter,
after ``diffield`` is imported and before the timed section starts.  Because
the package binds names with ``from .x import y``, one function object can be
reachable under many names (``poly.poly_gcd``, ``ratfunc.poly_gcd``,
``freebase.poly_gcd`` ...); the tracer replaces every module global and class
attribute in the package that *is* the original object, so each caller looks
up the wrapper.  ``completeness_mismatches`` proves that no call slipped past
a wrapper by comparing the wrapper counts with cProfile's counts.

Two kinds of wrapper:

* ``COUNT``: a plain call counter, for hot substrate calls (millions per run).
* ``SPAN``: a span with start, end, parent span and trace id.  Self time is
  the span minus the time its child spans cover; inclusive time is kept for
  the outermost activation only, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
import time

COUNT = "count"
SPAN = "span"

# (module, attribute path, metric prefix, kind)
TARGETS = (
    ("poly", "MPoly.__mul__", "poly.MPoly.mul", COUNT),
    ("poly", "poly_gcd", "poly.poly_gcd", COUNT),
    ("poly", "poly_lcm", "poly.poly_lcm", COUNT),
    ("ratfunc", "RatFunc.__init__", "ratfunc.RatFunc.new", COUNT),
    ("ratfunc", "linear_relations", "ratfunc.linear_relations", SPAN),
    ("ratfunc", "SpanTracker.add", "ratfunc.SpanTracker.add", SPAN),
    ("linalg", "integer_kernel", "linalg.integer_kernel", SPAN),
    ("linalg", "solve_affine", "linalg.solve_affine", COUNT),
    ("field", "sigma_value", "field.sigma_value", SPAN),
    ("field", "Element.is_fixed", "field.Element.is_fixed", COUNT),
    ("params", "ParamContext.add_zero", "params.ParamContext.add_zero", SPAN),
    ("params", "ParamContext.solve", "params.ParamContext.solve", SPAN),
    ("freebase", "twisted_family", "freebase.twisted_family", SPAN),
    ("freebase", "decide_free_base", "freebase.decide_free_base", SPAN),
    ("freebase", "multiplicative_kernel", "freebase.multiplicative_kernel", COUNT),
    ("tower", "fixed_space", "tower.fixed_space", SPAN),
    ("tower", "solve_twisted_bounded", "tower.solve_twisted_bounded", SPAN),
    ("tower", "iter_twisted_branches", "tower.iter_twisted_branches", COUNT),
    ("certify", "certify_unsolvable", "certify.certify_unsolvable", SPAN),
    ("certify", "replay_certificate", "certify.replay_certificate", COUNT),
    ("systems", "ff_decompose_bounded", "systems.ff_decompose_bounded", SPAN),
    ("characters", "extend_character", "characters.extend_character", SPAN),
    ("characters", "value_of", "characters.value_of", SPAN),
    ("counterexample", "refute_ff_decomposition", "counterexample.refute_ff_decomposition", SPAN),
    ("counterexample", "verify_no_torsor_over_twisted", "counterexample.verify_no_torsor_over_twisted", SPAN),
    ("parser", "parse_document", "parser.parse_document", SPAN),
    ("cli", "main", "cli.main", SPAN),
)


class Record:
    __slots__ = ("calls", "self_ns", "incl_ns", "depth", "raised", "accepted")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.depth = 0
        self.raised: dict[str, int] = {}
        self.accepted = 0


class Tracer:
    """Counters and spans for one sample; spans stay in memory until dumped."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock  # nanoseconds; spans are timed with it
        self.records: dict[str, Record] = {name: Record() for _, _, name, _ in TARGETS}
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.fixed_space_calls: list[tuple] = []  # (presentation, bounds, members, polynomial members)
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_span = 1
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target in the package by its wrapper."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "diffield" or n.startswith("diffield.")]
        for modname, path, name, kind in TARGETS:
            owner = importlib.import_module(f"diffield.{modname}")
            for part in path.split("."):
                owner = inspect.getattr_static(owner, part)
            original = owner
            wrapper = self._make_wrapper(name, kind, original)
            self._originals[name] = original
            self._wrappers[name] = wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, attr, original, wrapper)
                    elif isinstance(value, type) and value.__module__.startswith("diffield"):
                        for cattr, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                self._bind(value, cattr, original, wrapper)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore the original bindings, so later work is not counted."""
        for owner, attr, original in self._patched:
            setattr(owner, attr, original)
        self._patched = []

    def _make_wrapper(self, name: str, kind: str, fn):
        rec = self.records[name]
        if inspect.isgeneratorfunction(fn):
            # Delegating generator: cProfile then sees one wrapper resumption
            # per resumption of the original, which the completeness check
            # compares (cProfile counts every resumption as a call).
            def wrapper(*args, **kwargs):
                rec.calls += 1
                return (yield from fn(*args, **kwargs))
        elif kind == COUNT:
            def wrapper(*args, **kwargs):
                rec.calls += 1
                return fn(*args, **kwargs)
        else:
            wrapper = self._span_wrapper(name, rec, fn)
        # a distinct code name keeps each wrapper apart in cProfile's table
        wrapper.__code__ = wrapper.__code__.replace(co_name=f"traced:{name}")
        return wrapper

    def _span_wrapper(self, name: str, rec: Record, fn):
        stack = self._stack
        spans = self.spans
        clock = self.clock
        observe = {
            "ratfunc.SpanTracker.add": self._observe_span_add,
            "tower.fixed_space": self._observe_fixed_space,
        }.get(name)

        def wrapper(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            rec.depth += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                key = type(exc).__name__
                rec.raised[key] = rec.raised.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                rec.depth -= 1
                dur = end - start
                rec.calls += 1
                rec.self_ns += dur - frame[1]
                if rec.depth == 0:
                    rec.incl_ns += dur
                if stack:
                    stack[-1][1] += dur
                spans.append((self.trace_id, span_id, parent, name, start, end))
                if observe is not None and result is not None:
                    observe(args, result)

        return wrapper

    def _observe_span_add(self, args, grew) -> None:
        if grew:
            self.records["ratfunc.SpanTracker.add"].accepted += 1

    def _observe_fixed_space(self, args, members) -> None:
        pres = args[0]
        bounds = args[1] if len(args) > 1 else None
        polys = sum(1 for m in members if m.value.is_polynomial())
        self.fixed_space_calls.append((pres, bounds, len(members), polys))

    # -- results ----------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Deterministic per-layer call and outcome counts."""
        out = {}
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec.calls
            for exc, n in sorted(rec.raised.items()):
                out[f"{name}.raised.{exc}"] = n
        out["ratfunc.SpanTracker.add.accepted"] = self.records["ratfunc.SpanTracker.add"].accepted
        return out

    def layer_metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced sample, as (value, unit)."""
        recs = self.records
        out: dict[str, tuple[float, str]] = {}
        for _, _, name, kind in TARGETS:
            out[f"{name}.calls"] = (recs[name].calls, "count")
            if kind == SPAN:
                out[f"{name}.self_s"] = (recs[name].self_ns / 1e9, "s")
        add = recs["ratfunc.SpanTracker.add"]
        out["ratfunc.SpanTracker.accept_ratio"] = (_ratio(add.accepted, add.calls), "ratio")
        zero = recs["params.ParamContext.add_zero"]
        out["params.infeasible_ratio"] = (_ratio(zero.raised.get("Infeasible", 0), zero.calls), "ratio")
        fam = recs["freebase.twisted_family"]
        out["freebase.twisted_family.infeasible_ratio"] = (
            _ratio(fam.raised.get("Infeasible", 0), fam.calls),
            "ratio",
        )
        members = sum(c[2] for c in self.fixed_space_calls)
        polys = sum(c[3] for c in self.fixed_space_calls)
        out["tower.fixed_space.members"] = (members, "count")
        out["tower.fixed_space.poly_share"] = (_ratio(polys, members), "ratio")
        out["tower.fixed_space.repeat_share"] = (
            _ratio(_repeats(self.fixed_space_calls), len(self.fixed_space_calls)),
            "ratio",
        )
        out["tower.fixed_space.run_share"] = (
            _ratio(recs["tower.fixed_space"].incl_ns / 1e9, run_s),
            "ratio",
        )
        return out

    def completeness_mismatches(self, profile_stats: dict) -> list[str]:
        """Targets whose wrapper count differs from cProfile's count.

        ``profile_stats`` is ``pstats.Stats(profile).stats``.  For a plain
        function the wrapper must have seen every call cProfile saw; for a
        generator function cProfile counts resumptions, so the original's
        resumptions must equal the delegating wrapper's.
        """

        def ncalls(code) -> int:
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            entry = profile_stats.get(key)
            return 0 if entry is None else entry[1]

        bad = []
        for _, _, name, _ in TARGETS:
            original = self._originals[name]
            seen = ncalls(original.__code__)
            if inspect.isgeneratorfunction(original):
                expected = ncalls(self._wrappers[name].__code__)
            else:
                expected = self.records[name].calls
            if seen != expected:
                bad.append(f"{name}: wrapper saw {expected}, cProfile saw {seen}")
        return bad


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _repeats(calls: list[tuple]) -> int:
    """Calls whose presentation and bounds equal an earlier call's up to renaming."""
    seen: set[tuple] = set()
    repeats = 0
    for pres, bounds, _, _ in calls:
        key = (_canonical_presentation(pres), repr(bounds))
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats


_NAME = re.compile(r"[A-Za-z_]\w*")


def _canonical_presentation(pres) -> str:
    """The presentation with generators renamed by position.

    Renaming by position keeps the variable order, so two presentations that
    differ only in generator names print identically.
    """
    rename = {g.name: f"x{i}" for i, g in enumerate(pres.gens)}

    def sub(text: str) -> str:
        return _NAME.sub(lambda m: rename.get(m.group(0), m.group(0)), text)

    parts = []
    for g in pres.gens:
        if g.is_free:
            parts.append("free")
        else:
            parts.append(f"affine({sub(repr(g.kind.linear))}, {sub(repr(g.kind.constant))})")
    return "; ".join(parts)
