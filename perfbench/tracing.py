"""Spans around the calls into each layer of the package, recorded from the
benchmark's side by wrapping public functions, and the per-layer metrics
computed from them.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``item`` the id of the workload
item that caused it.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, attribute) of the function it times.  Every module
# attribute bound to the same function object is wrapped as well, so calls
# through a by-name import (``monad`` imports ``ideal_membership``,
# ``checks`` imports ``macmahon``, ``euler_factor``, ``substitute`` and
# ``compare``, ``characters`` imports ``binomial_factor``) are timed too.
LAYERS = {
    "ncalg.ideal_membership": [("ncalg", "ideal_membership")],
    "ncalg.relations_from_potential": [("ncalg", "relations_from_potential")],
    "monad.assemble": [("monad", "assemble")],
    "monad.compose_stage": [("monad", "compose_stage")],
    "monad.certify_d_squared": [("monad", "certify_d_squared")],
    "qseries.mul": [("qseries", "QSeries.__mul__")],
    "qseries.inverse": [("qseries", "QSeries.inverse")],
    "qseries.binomial_factor": [("qseries", "binomial_factor")],
    "qseries.macmahon": [("qseries", "macmahon")],
    "qseries.euler_factor": [("qseries", "euler_factor")],
    "qseries.substitute": [("qseries", "substitute")],
    "qseries.compare": [("qseries", "compare")],
    "characters.character": [("characters", "character")],
    "characters.figure_series": [("characters", "figure_series")],
    "characters.limit_series": [("characters", "limit_series")],
    "characters.generator_weights": [("characters", "generator_weights")],
    "partitions.plane_partition_series": [("partitions", "plane_partition_series")],
    "partitions.pyramid_series": [("partitions", "pyramid_series")],
    "partitions.nested_series": [("partitions", "nested_series")],
    "partitions.partition_series": [("partitions", "partition_series")],
    "partitions.blowup_series": [("partitions", "blowup_series")],
    "catalog.lookup": [
        ("catalog", "get_entry"),
        ("catalog", "get_quiver_with_potential"),
        ("catalog", "get_framed_example"),
        ("catalog", "get_monad_template"),
    ],
    "framing.framed_relations": [("framing", "framed_relations"), ("framing", "specialize")],
    "checks.run_check": [("checks", "run_check")],
    "cli.run": [("cli", "run")],
}

PARTITION_LAYERS = tuple(n for n in LAYERS if n.startswith("partitions."))
# layers whose call results feed Tracer.counts
COUNTED_LAYERS = frozenset(
    ("ncalg.ideal_membership", "monad.certify_d_squared", "qseries.compare") + PARTITION_LAYERS
)


class Tracer:
    """Wraps the functions named in :data:`LAYERS` and records a span per
    call.  Results of the calls whose work is counted (membership, monad
    certification, enumeration, comparison) are kept for :meth:`counts`,
    which runs after the pass so that counting is never timed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = ""
        self._stack: list[int] = []
        self._observed: list[tuple[str, str, tuple, object]] = []  # name, item, args, result
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, observed = self.spans, self._stack, self._observed
        keep = name in COUNTED_LAYERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                observed.append((name, span[4], args, result))
            return result

        return traced

    def install(self) -> None:
        for mod_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"quiverdt.{mod_name}")
        modules = {
            n.removeprefix("quiverdt."): m for n, m in sys.modules.items() if n.startswith("quiverdt.")
        }
        for name, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = modules[mod_name]
                if "." in attr:  # a method: patch the class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                fn = getattr(owner, attr)
                wrapped = self._wrap(name, fn)
                self._patch(owner, attr, fn, wrapped)
                if owner is modules[mod_name]:
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is fn:
                                self._patch(other, key, fn, wrapped)

    def _patch(self, owner, attr: str, old, new) -> None:
        if getattr(owner, attr) is new:
            return
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- counts -----------------------------------------------------------

    def counts(self) -> tuple[dict[str, float], list[tuple[str, str]]]:
        """Work counts from the kept call results, and the (item, problem)
        pairs found: every membership certificate returned is re-expanded
        against its query here."""
        out = {
            "ncalg.ideal_membership.members": 0,
            "ncalg.ideal_membership.nonmembers": 0,
            "ncalg.ideal_membership.cert_parts": 0,
            "ncalg.ideal_membership.residual_terms": 0,
            "monad.components": 0,
            "partitions.objects": 0,
            "qseries.compare.coeffs": 0,
        }
        problems = []
        seen_keys: set = set()
        rel_keys: dict[int, tuple] = {}  # the kept args hold each set alive, so ids stay unique
        calls = repeats = 0
        for name, item, args, result in self._observed:
            if name == "ncalg.ideal_membership":
                q, poly, relations, bound = args[:4]
                calls += 1
                if id(relations) not in rel_keys:
                    rel_keys[id(relations)] = relation_key(relations)
                ends = frozenset((p.source(q), p.target(q)) for p in poly.terms)
                key = (rel_keys[id(relations)], bound, ends)
                repeats += key in seen_keys
                seen_keys.add(key)
                if result.success:
                    out["ncalg.ideal_membership.members"] += 1
                    out["ncalg.ideal_membership.cert_parts"] += len(result.certificate.parts)
                    if result.certificate.expand(q, relations) != poly:
                        problems.append((item, "certificate does not expand to its query"))
                else:
                    out["ncalg.ideal_membership.nonmembers"] += 1
                    out["ncalg.ideal_membership.residual_terms"] += len(result.residual.terms)
            elif name == "monad.certify_d_squared":
                out["monad.components"] += len(result.entries)
            elif name == "qseries.compare":
                a, b = args[:2]
                order = min(a.order, b.order) if len(args) < 3 or args[2] is None else args[2]
                out["qseries.compare.coeffs"] += sum(
                    1 for e in set(a.coeffs) | set(b.coeffs) if a.grade(e) <= order
                )
            elif name in PARTITION_LAYERS:
                out["partitions.objects"] += sum(result.coeffs.values())
        out["ncalg.ideal_membership.repeat_share"] = repeats / calls if calls else 0.0
        return out, problems


def relation_key(relations) -> tuple:
    """Content key of a relation set, so that equal sets built by separate
    calls count as the same system."""
    return tuple(
        (r.src, r.tgt, r.arrow, tuple(sorted((p.arrows, p.base or "", c) for p, c in r.poly.terms.items())))
        for r in relations
    )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, item in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, item) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every layer."""
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += self_s
    return out
