"""The benchmark's workloads: fixed lists of operations on twistlab's public
API, each with a correctness check.

Every operation is a closure with no arguments; it is timed alone and its
result is checked afterwards, outside the timed region.  The seed sets the
draws in ``pointwise`` and the order of operations in every workload.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from twistlab import (coefficients, evaluate, gammafn, oscillatory, summatory,
                      transforms)
from twistlab.model import SmoothingParams
from twistlab.presets import get_preset

import checks

WORKLOADS = ("transform", "sums", "pointwise")

TRANSFORM_LIST = (("zeta", (20.0, 30.0, 40.0, 50.0, 60.0)),
                  ("zeta-doubled", (30.0, 50.0)),
                  ("dirichlet-chi4", (20.0, 40.0, 60.0)),
                  ("zeta-sq", (5.0, 10.0)),
                  ("delta", (5.0, 10.0)))

TWIST_GRID = tuple(2.0 ** j for j in range(10, 15))        # AC-5
CERTIFICATE_GRID = tuple(2.0 ** j for j in range(5, 15))   # AC-6
GROWTH_GRID = tuple(2.0 ** j for j in range(7, 14))        # AC-7
SUM_ROUTE_T = (50.0, 100.0, 150.0)

# AC-3 parameters: T and the n ranges inside, below and above the window
I_N_CASES = {1.0: (5000.0, {"inside": (10600, 14400), "below": (400, 4800),
                            "above": (20500, 29500)}),
             2.0: (4100.0, {"inside": (101_000_000, 140_000_000),
                            "below": (1_000_000, 16_000_000),
                            "above": (272_000_000, 400_000_000)})}


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def fresh_coefficients(name: str) -> coefficients.CoefficientProvider:
    """A new provider tree for the preset, as a new process builds it.

    get_preset caches instances and delta shares one tau provider, so
    reused presets would keep tables from earlier operations.
    """
    C = coefficients
    if name == "zeta":
        return C.OnesProvider()
    if name == "zeta-sq":
        return C.DirichletConvolutionProvider(C.OnesProvider(), C.OnesProvider())
    if name == "zeta-shift-pair":
        return C.DirichletConvolutionProvider(
            C.VerticalShiftProvider(C.OnesProvider(), 0.5),
            C.VerticalShiftProvider(C.OnesProvider(), -0.5))
    if name == "zeta-scaled":
        return C.ArgumentScaleProvider(C.OnesProvider(), 2, 0.5)
    if name == "delta":
        return C.RamanujanTauProvider()
    raise KeyError(name)


def fresh_preset(name: str):
    return dataclasses.replace(get_preset(name), coefficients=fresh_coefficients(name))


def verify_fresh_coefficients(names) -> None:
    """Setup guard: each fresh provider tree matches its preset exactly."""
    for name in names:
        got = fresh_coefficients(name).bulk(64).values
        want = get_preset(name).coefficients.bulk(64).values
        if not (got == want).all():
            raise RuntimeError(f"fresh provider for {name!r} differs from the preset")


def transform_ops() -> List[Op]:
    sp = SmoothingParams()
    ops = []
    for name, Ts in TRANSFORM_LIST:
        L = get_preset(name)
        for T in Ts:
            label = f"transform {name} T={T:g}"
            ops.append(Op(label, "run_transform",
                          lambda L=L, T=T: transforms.run_transform(L, 1, T, sp),
                          lambda r, L=L, T=T, label=label:
                              checks.check_transform(label, L, T, r)))
    return ops


def warm_transform() -> None:
    """Fill lazily built coefficient caches (delta's shared tau table) by
    building each operation's line evaluator once."""
    sp = SmoothingParams()
    for name, Ts in TRANSFORM_LIST:
        L = get_preset(name)
        for T in Ts:
            X = T ** (L.invariants().d + sp.rho)
            evaluate.SmoothedLineEvaluator(L, sp.with_X(X))


def sums_ops() -> List[Op]:
    twist_sp = SmoothingParams(rho=summatory.TWIST_RHO)
    ops = []

    def twist():
        L = fresh_preset("delta")
        return summatory.run_twist_scan(L, L.resonance_alpha(1), TWIST_GRID, twist_sp)

    ops.append(Op("sums twist delta", "run_twist_scan", twist,
                  lambda r: checks.check_twist_scan("sums twist delta", r)))

    for name in ("zeta", "zeta-sq", "zeta-shift-pair"):
        def certificate(name=name):
            L = fresh_preset(name)
            alpha = L.resonance_alpha(1)
            kap = transforms.kappa(L, alpha, 1, "oracle-calibrated")
            return summatory.omega_certificate(L, alpha, 1, kap, CERTIFICATE_GRID,
                                               twist_sp)

        label = f"sums certificate {name}"
        ops.append(Op(label, "omega_certificate", certificate,
                      lambda r, name=name, label=label:
                          checks.check_certificate(label, name, r)))

    for name in ("zeta-shift-pair", "zeta-scaled"):
        label = f"sums growth {name}"
        ops.append(Op(label, "run_growth_scan",
                      lambda name=name: summatory.run_growth_scan(fresh_preset(name),
                                                                  GROWTH_GRID),
                      lambda r, name=name, label=label:
                          checks.check_growth(label, name, r)))

    sp = SmoothingParams()
    for T in SUM_ROUTE_T:
        label = f"sums transform zeta-shift-pair T={T:g}"
        ops.append(Op(label, "run_transform",
                      lambda T=T: transforms.run_transform(
                          fresh_preset("zeta-shift-pair"), 1, T, sp,
                          routes=("sum", "fe")),
                      lambda r, label=label: checks.against_reference(
                          label, "run_transform", r)))
    return ops


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> List[float]:
    """One uniform draw in each of k equal bins of [lo, hi]."""
    w = (hi - lo) / k
    return [lo + (i + rng.random()) * w for i in range(k)]


def pointwise_ops(rng: random.Random) -> List[Op]:
    """The single-point calls whose points are drawn once per run."""
    ops = []
    # smoothed_value: zeta-scaled runs at X = 1e4 only; with the default X
    # its error against zeta(2s - 1/2) exceeds the AC-2 limit for t > ~25
    for name in ("zeta", "zeta-doubled", "dirichlet-chi4", "zeta-scaled"):
        L = get_preset(name)
        for sigma in (0.5, 0.6):
            for X in ((1e4, None) if name != "zeta-scaled" else (1e4,)):
                sp = SmoothingParams(X=X)
                for t in _stratified(rng, 10.0, 50.0, 8):
                    label = f"smoothed_value {name} s={sigma}+{t!r}i X={X}"
                    s = complex(sigma, t)
                    ops.append(Op(
                        label, "smoothed_value",
                        lambda L=L, sigma=sigma, t=t, sp=sp:
                            evaluate.smoothed_value(L, sigma, t, sp),
                        lambda r, name=name, s=s, label=label:
                            checks.check_smoothed(label, name, s, r)))

    for name in ("zeta", "dirichlet-chi4"):
        L = get_preset(name)
        for X in (1e4, None):
            sp = SmoothingParams(X=X)
            for t in _stratified(rng, 10.0, 50.0, 8):
                label = f"fe_cross_check {name} t={t!r} X={X}"
                ops.append(Op(label, "fe_cross_check",
                              lambda L=L, t=t, sp=sp: evaluate.fe_cross_check(L, t, sp),
                              lambda r, label=label: checks.check_fe_defect(label, r)))

    for sigma in (0.5, 0.6):
        for t in _stratified(rng, 10.0, 100.0, 16):
            s = complex(sigma, t)
            label = f"reference_zeta s={sigma}+{t!r}i"
            ops.append(Op(label, "reference_zeta",
                          lambda s=s: evaluate.reference_zeta(s),
                          lambda r, s=s, label=label:
                              checks.check_reference_zeta(label, s, r)))

    for name in ("zeta", "delta", "zeta-shift-pair"):
        spec = get_preset(name).fe.gamma
        for x in (0.5, 0.6):
            for t in _stratified(rng, 50.0, 800.0, 16):
                label = f"gamma_ratio_compare {name} x={x} t={t!r}"
                ops.append(Op(label, "gamma_ratio_compare",
                              lambda spec=spec, x=x, t=t:
                                  gammafn.gamma_ratio_compare(spec, x, t),
                              lambda r, name=name, x=x, t=t, label=label:
                                  checks.check_gamma(label, name, x, t, r)))
    return ops


def i_n_ops(rng: random.Random) -> List[Op]:
    """I_n_quadrature at AC-3 parameters: four stratified n per range."""
    ops = []
    for d, (T, ranges) in I_N_CASES.items():
        for where, (lo, hi) in ranges.items():
            for n in _stratified(rng, lo, hi, 4):
                pf = oscillatory.PhaseFamily(alpha=2.0 * math.pi, n=int(n), d=d)
                label = f"I_n d={d:g} {where} n={pf.n}"
                ops.append(Op(label, "I_n_quadrature",
                              lambda pf=pf, T=T: oscillatory.I_n_quadrature(pf, T, 1e-3),
                              lambda r, pf=pf, T=T, label=label:
                                  checks.check_I_n(label, pf, T, r)))
    return ops


class Workload:
    """The operations of each pass, in an order the seed sets.

    In pointwise the I_n points are drawn afresh for every pass: the cost
    of I_n_quadrature varies fivefold across an AC-3 range of n, so a
    single draw per run would make the pass time depend on the seed.  The
    other points are drawn once per run; their cost hardly depends on them.
    """

    def __init__(self, fixed: List[Op], rng: random.Random,
                 redraw: Optional[Callable[[random.Random], List[Op]]] = None):
        self.fixed = fixed
        self.rng = rng
        self.redraw = redraw

    def next_pass(self) -> List[Op]:
        ops = self.fixed + (self.redraw(self.rng) if self.redraw else [])
        self.rng.shuffle(ops)
        return ops


def build(workload: str, seed: int) -> Workload:
    """The workload, after its presets are built and its warm-up has run."""
    rng = random.Random(seed)
    if workload == "transform":
        ops = transform_ops()
        warm_transform()
        return Workload(ops, rng)
    if workload == "sums":
        ops = sums_ops()
        verify_fresh_coefficients(("zeta", "zeta-sq", "zeta-shift-pair",
                                   "zeta-scaled", "delta"))
        return Workload(ops, rng)
    if workload == "pointwise":
        return Workload(pointwise_ops(rng), rng, i_n_ops)
    raise KeyError(workload)
