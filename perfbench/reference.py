"""A fixed pure-Python computation that gauges the host's current speed.

The benchmark was built on a shared virtual machine whose speed swings by
1.4-2x in spells of seconds to minutes; CPU time tracks wall time through
them, so the slowdown is not time stolen from the process but every
instruction running slower.  Each sample times this computation every
0.15 s (``sample.Probe``), takes its speed as the mean over those probes of
``NOMINAL_S / probe time``, and multiplies its times by it: a time then reads
as it would at a fixed nominal speed, and a spell that slows the ops and the
reference alike cancels.

The computation mixes what the package spends its time on: dict updates keyed
by small ints and tuples, sparse polynomial products over ``Fraction`` with
sorted tuple monomials, calls on small slotted objects, and the CLI's JSON
rendering and text scanning.  It never touches the package, so a change to
the program under test cannot move it.  Over ten-second windows of nearly
three minutes on that host, batches of
``character`` and ``solve-sas`` CLI jobs varied by 2.1x raw (coefficient of
variation 0.27-0.29) and by 1.15-1.23x when scaled this way (0.04-0.05).
"""

from __future__ import annotations

import gc
import json
import re
import time
from fractions import Fraction

# Seconds one ``reference()`` takes at the reference host's nominal speed
# (2-vCPU x86_64 virtual machine, Python 3.11).  A fixed unit: changing it
# rescales every recorded time.
NOMINAL_S = 0.010
REPEATS = 2


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def mul(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return _Poly(out)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


_BASE = _Poly({
    (("x", 1),): Fraction(1, 2),
    (("y", 1),): Fraction(-3),
    (): Fraction(5, 7),
    (("x", 1), ("z", 2)): Fraction(2, 3),
})


def _report() -> None:
    """Render a JSON report and scan a job document, as the CLI does."""
    json.dumps(_REPORT, indent=2)
    fields = [m.group(1) + ":" + m.group(2).split("/")[0] for m in _ASSIGN.finditer(_DOCUMENT)]
    "|".join(fields).split("|")


_REPORT = {"queries": [{"k": i, "value": str(i * 7), "free": [i, i + 1, {"z": "x" * 5}]} for i in range(40)]}
_ASSIGN = re.compile(r"(\w+)\s*=\s*([^;]+);")
_DOCUMENT = "".join(f"assign u{i} = {i}/{i + 3}; query g[{i}] free;\n" for i in range(40))


def reference() -> None:
    for _ in range(REPEATS):
        counts: dict = {}
        for i in range(12000):
            k = (i * 7) % 1000
            counts[k] = counts.get(k, 0) + i * i
        p = _BASE
        for _ in range(4):
            p = p.mul(_BASE)
        for _ in range(3):
            _report()


def time_reference() -> float:
    """One timed ``reference()``, with the cyclic garbage collector paused.

    A collection that starts inside the reference would walk the sample's
    whole heap and charge it to the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
