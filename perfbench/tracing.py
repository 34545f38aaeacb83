"""Spans around the calls into each superjac layer, from outside ``src/``.

``install(tracer)`` replaces a fixed list of superjac functions and methods
with wrappers that time each call as a span and record the span that
caused it.  Spans sit only at layer boundaries: never on per-element calls
such as ``FieldCtx.add``/``mul`` or ``gf.peval``, which run millions of
times.  Spans are folded into per-name totals as they close, so memory
stays flat however many there are:

- ``calls``: spans of that name;
- ``total_s``: time inside the outermost span of that name (a recursive
  call is not counted twice);
- ``self_s``: span time minus the time of its child spans;
- ``parents``: how many spans of that name each parent span caused.

Run as a script, this module is a traced stand-in for ``python -m
superjac``: it installs the spans, runs the CLI with the given arguments,
writes the tracer's totals to the file named by ``PERFBENCH_TRACE_OUT``
and exits with the CLI's code (an uncaught exception still ends in a
traceback and exit code 1).
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []     # open spans: [name, child seconds]
        self.depth: dict[str, int] = {}
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.question_elems = 0         # elements enumerated this question

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        depth = self.depth
        depth[name] = depth.get(name, 0) + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            depth[name] -= 1
            if parent is not None:
                parent[1] += dt
            st = self.spans.get(name)
            if st is None:
                st = self.spans[name] = {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "parents": {}}
            st["calls"] += 1
            st["self_s"] += dt - frame[1]
            if depth[name] == 0:
                st["total_s"] += dt
            pname = parent[0] if parent is not None else "-"
            st["parents"][pname] = st["parents"].get(pname, 0) + 1

    def span(self, name: str, fn, hook=None):
        """A wrapper of fn that records a span; hook(result, *args) counts."""
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result
        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def merge(into: dict, part: dict) -> None:
    """Add one tracer's totals (as from to_dict) into another's."""
    for name, st in part["spans"].items():
        dst = into["spans"].setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})
        for k in ("calls", "total_s", "self_s"):
            dst[k] += st[k]
        for pn, c in st["parents"].items():
            dst["parents"][pn] = dst["parents"].get(pn, 0) + c
    for name, c in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + c


def _replace(orig, wrapper) -> None:
    """Point every superjac module global that names orig at wrapper."""
    for modname, mod in list(sys.modules.items()):
        if modname == "superjac" or modname.startswith("superjac."):
            for k, v in list(vars(mod).items()):
                if v is orig:
                    setattr(mod, k, wrapper)


def _replace_method(cls, name: str, wrapper) -> None:
    orig = cls.__dict__[name]
    for k, v in list(cls.__dict__.items()):
        if v is orig:               # aliases such as __rmul__ = __mul__
            setattr(cls, k, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap superjac's layer entry points in spans of tracer."""
    from superjac import (cache, characters, curves, cyclo, delta, gf, picard,
                          rank, zeta)

    # gf: only a field whose context is not memoized yet builds tables
    field = gf.field

    def traced_field(p, n=1):
        if (p, n) in gf._CTX_CACHE:
            return field(p, n)
        ctx = tracer.call("gf.table_build", field, (p, n), {})
        tracer.count("gf.tables_built")
        tracer.count("gf.table_elems", ctx.order)
        return ctx
    _replace(field, traced_field)

    def on_count(_res, curve, n=1, budget=None):
        elems = curve.base.order ** n
        tracer.count("zeta.elems_enumerated", elems)
        tracer.question_elems += elems

    def on_principal(res, *_a, **_k):
        tracer.count("picard.principal_true", bool(res))

    def on_divisors(res, *_a, **_k):
        tracer.count("picard.effective_divisors", len(res))

    functions = [
        (zeta.count_points, "zeta.count_points", on_count),
        (zeta.zeta_numerator_charsum, "zeta.charsum_numerator", None),
        (characters.modified_gauss_sum, "characters.gauss_sum", None),
        (picard.picard_group, "picard.picard_group", None),
        (picard.function_space, "picard.function_space", None),
        (picard.is_principal, "picard.is_principal", on_principal),
        (picard.enumerate_places, "picard.enumerate_places", None),
        (picard.effective_divisors, "picard.effective_divisors",
         on_divisors),
        (curves.local_expansion, "curves.local_expansion", None),
        (curves.valuation, "curves.valuation", None),
        (curves.places_above, "curves.places_above", None),
        (delta.replay_proof, "delta.replay_proof", None),
        (rank.certify_rank, "rank.certify_rank", None),
    ]
    for fn, name, hook in functions:
        _replace(fn, tracer.span(name, fn, hook))

    for meth in ("__mul__", "__pow__", "galois"):
        orig = cyclo.CycloInt.__dict__[meth]
        _replace_method(cyclo.CycloInt, meth,
                        tracer.span("cyclo.mul", orig))

    # cache: a lookup is a hit when it never calls its compute callback
    get_or_compute = cache.ResultCache.get_or_compute

    def traced_get_or_compute(self, op, params, compute):
        computed = []

        def traced_compute():
            computed.append(True)
            return tracer.call("cache.compute", compute, (), {})
        tracer.count("cache.lookups")
        try:
            return tracer.call("cache.get_or_compute", get_or_compute,
                               (self, op, params, traced_compute), {})
        finally:
            tracer.count("cache.hits", not computed)
    cache.ResultCache.get_or_compute = traced_get_or_compute


def main(argv: list[str]) -> int:
    import superjac.cli

    tracer = Tracer()
    install(tracer)
    try:
        return superjac.cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
