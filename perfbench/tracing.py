"""Span tracing from the benchmark's side of each layer boundary.

The tracer replaces a library function where the calling module binds it
(for example ``transforms.integrate_oscillatory``), records one span per
call in memory and restores every original on ``uninstall``.  The wrapped
functions receive the same arguments and return the same objects, so a
traced run computes bit-identical results.

A span is (name, start, end, parent index, operation id).  A span's self
time is its duration minus the part of it covered by its child spans.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from twistlab import (coefficients, evaluate, gammafn, oscillatory, summatory,
                      transforms)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    op: Optional[str]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def covered_time(spans: Sequence[Span]) -> float:
    """Wall time inside at least one top-level span."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted((s.start, s.end) for s in spans if s.parent < 0):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        # per provider object: [provider, largest N, sum of N]; the object is
        # held so that its id is not reused while the pass runs
        self.bulk_requests: Dict[int, list] = {}

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.bulk_requests.clear()
        self._stack.clear()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """A function that calls fn inside a span called name; count, if
        given, is called as count(args, kwargs, result) after the span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            tracer.counts[name + ".calls"] += 1
            if count is not None:
                count(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.finished_spans():
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.op]))
                fh.write("\n")

    # -- the library's layer boundaries -------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        counts = self.counts

        def add(key, value):
            counts[key] += value

        def bulk_count(args, kwargs, result):
            provider, N = args[0], len(result)
            add("coefficients.bulk.terms", N)
            entry = self.bulk_requests.setdefault(id(provider), [provider, 0, 0])
            entry[1] = max(entry[1], N)
            entry[2] += N

        for cls in vars(coefficients).values():
            if (isinstance(cls, type) and issubclass(cls, coefficients.CoefficientProvider)
                    and "bulk" in cls.__dict__):
                self.patch(cls, "bulk", self.wrap("coefficients.bulk",
                                                  cls.__dict__["bulk"], bulk_count))

        self.patch(coefficients, "tau_integers", self.wrap(
            "coefficients.tau_integers", coefficients.tau_integers,
            lambda a, k, r: add("coefficients.tau_integers.terms", len(r) - 1)))
        self.patch(coefficients, "conv_exact", self.wrap(
            "exactconv.conv_exact", coefficients.conv_exact,
            lambda a, k, r: add("exactconv.conv_exact.terms", len(r))))

        line_cls = transforms.SmoothedLineEvaluator

        def line_count(args, kwargs, ev):
            terms = ev.terms
            add("evaluate.line_init.terms", terms)

            def values_count(a, k, r):
                add("evaluate.line_values.nodes", r.size)
                add("evaluate.line_values.node_terms", r.size * terms)

            ev.values = self.wrap("evaluate.line_values", ev.values, values_count)

        self.patch(transforms, "SmoothedLineEvaluator",
                   self.wrap("evaluate.line_init", line_cls, line_count))

        self.patch(evaluate, "smoothed_value", self.wrap(
            "evaluate.smoothed_value", evaluate.smoothed_value,
            lambda a, k, r: add("evaluate.smoothed_value.terms", r.terms_used)))
        self.patch(evaluate, "fe_cross_check", self.wrap(
            "evaluate.fe_cross_check", evaluate.fe_cross_check))
        self.patch(evaluate, "reference_zeta", self.wrap(
            "evaluate.reference_zeta", evaluate.reference_zeta))

        self.patch(evaluate, "log_gamma", self.wrap(
            "gammafn.log_gamma", evaluate.log_gamma))
        self.patch(evaluate, "gamma_ratio_exact_grid", self.wrap(
            "gammafn.ratio_grid", evaluate.gamma_ratio_exact_grid,
            lambda a, k, r: add("gammafn.ratio_grid.points", np.size(r))))
        self.patch(gammafn, "gamma_ratio_compare", self.wrap(
            "gammafn.ratio_compare", gammafn.gamma_ratio_compare))

        for module in (transforms, oscillatory):
            self.patch(module, "integrate_oscillatory",
                       self._wrap_integrate(module.integrate_oscillatory))

        for fn in ("H_direct", "H_sum_side", "H_fe_side"):
            self.patch(transforms, fn, self.wrap("transforms." + fn,
                                                 getattr(transforms, fn)))

        def twist_count(args, kwargs, result):
            T = args[2] if len(args) > 2 else kwargs["T"]
            if T >= 1.0:  # the twist sums over T < n < 4T
                add("summatory.additive_twist.terms",
                    max(0, math.ceil(4.0 * T) - 1 - math.floor(T)))

        self.patch(summatory, "additive_twist", self.wrap(
            "summatory.additive_twist", summatory.additive_twist, twist_count))
        self.patch(summatory, "abs_partial_sum", self.wrap(
            "summatory.abs_partial_sum", summatory.abs_partial_sum))
        self.patch(summatory, "omega_certificate", self.wrap(
            "summatory.omega_certificate", summatory.omega_certificate))

        for module in (transforms, summatory, evaluate):
            self.patch(module, "compensated_sum", self.wrap(
                "summation.compensated_sum", module.compensated_sum,
                lambda a, k, r: add("summation.compensated_sum.terms",
                                    np.size(a[0] if a else k["values"]))))

    def _wrap_integrate(self, fn: Callable) -> Callable:
        """integrate_oscillatory, counting final panels and the nodes the
        integrand is evaluated at (the phase callback's nodes; the amplitude
        callback, when given, sees the same ones)."""
        counts = self.counts

        def integrate(phase, K, tol, dphase=None, amplitude=None):
            def counted_phase(t):
                counts["oscillatory.integrate.nodes"] += np.size(t)
                return phase(t)

            res = inner(counted_phase, K, tol, dphase=dphase, amplitude=amplitude)
            counts["oscillatory.integrate.panels"] += res.panels
            return res

        inner = self.wrap("oscillatory.integrate", fn)
        return functools.wraps(fn)(integrate)

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Self times and counts of one traced pass, by metric name."""
        spans = self.finished_spans()
        selfs = self_times(spans)
        self_s: Dict[str, float] = defaultdict(float)
        for sp, st in zip(spans, selfs):
            self_s[sp.name] += st
        c = self.counts

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        requested = sum(e[2] for e in self.bulk_requests.values())
        largest = sum(e[1] for e in self.bulk_requests.values())
        out = {
            "coefficients.bulk.self_s": self_s["coefficients.bulk"],
            "coefficients.bulk.calls": c["coefficients.bulk.calls"],
            "coefficients.bulk.terms": c["coefficients.bulk.terms"],
            "coefficients.bulk.useful_ratio": ratio(largest, requested),
            "coefficients.tau_integers.self_s": self_s["coefficients.tau_integers"],
            "coefficients.tau_integers.terms": c["coefficients.tau_integers.terms"],
            "exactconv.conv_exact.self_s": self_s["exactconv.conv_exact"],
            "exactconv.conv_exact.calls": c["exactconv.conv_exact.calls"],
            "exactconv.conv_exact.terms": c["exactconv.conv_exact.terms"],
            "evaluate.line_init.self_s": self_s["evaluate.line_init"],
            "evaluate.line_init.terms": c["evaluate.line_init.terms"],
            "evaluate.line_values.self_s": self_s["evaluate.line_values"],
            "evaluate.line_values.nodes": c["evaluate.line_values.nodes"],
            "evaluate.line_values.node_terms": c["evaluate.line_values.node_terms"],
            "evaluate.line_values.rate": ratio(c["evaluate.line_values.node_terms"],
                                               self_s["evaluate.line_values"]),
            "evaluate.smoothed_value.self_s": self_s["evaluate.smoothed_value"],
            "evaluate.smoothed_value.calls": c["evaluate.smoothed_value.calls"],
            "evaluate.smoothed_value.terms": c["evaluate.smoothed_value.terms"],
            "evaluate.fe_cross_check.self_s": self_s["evaluate.fe_cross_check"],
            "evaluate.reference_zeta.self_s": self_s["evaluate.reference_zeta"],
            "gammafn.log_gamma.self_s": self_s["gammafn.log_gamma"],
            "gammafn.log_gamma.calls": c["gammafn.log_gamma.calls"],
            "gammafn.ratio_grid.self_s": self_s["gammafn.ratio_grid"],
            "gammafn.ratio_grid.points": c["gammafn.ratio_grid.points"],
            "gammafn.ratio_compare.self_s": self_s["gammafn.ratio_compare"],
            "oscillatory.integrate.self_s": self_s["oscillatory.integrate"],
            "oscillatory.integrate.calls": c["oscillatory.integrate.calls"],
            "oscillatory.integrate.panels": c["oscillatory.integrate.panels"],
            "oscillatory.integrate.useful_node_ratio": ratio(
                10.0 * c["oscillatory.integrate.panels"],
                c["oscillatory.integrate.nodes"]),
            "transforms.H_direct.self_s": self_s["transforms.H_direct"],
            "transforms.H_sum_side.self_s": self_s["transforms.H_sum_side"],
            "transforms.H_fe_side.self_s": self_s["transforms.H_fe_side"],
            "summatory.additive_twist.self_s": self_s["summatory.additive_twist"],
            "summatory.additive_twist.calls": c["summatory.additive_twist.calls"],
            "summatory.additive_twist.terms": c["summatory.additive_twist.terms"],
            "summatory.abs_partial_sum.self_s": self_s["summatory.abs_partial_sum"],
            "summatory.omega_certificate.self_s": self_s["summatory.omega_certificate"],
            "summation.compensated_sum.self_s": self_s["summation.compensated_sum"],
            "summation.compensated_sum.terms": c["summation.compensated_sum.terms"],
        }
        return out

    def covered(self) -> float:
        return covered_time(self.finished_spans())
