"""Preset catalog of concrete L-series instances, and the JSON config loader
for custom instances.

Each preset ships one canonical gamma-factor spec; "zeta-doubled" is a
second, duplication-equivalent spec for zeta kept as the degree-invariance
fixture.
"""
from __future__ import annotations

import json
import math
from typing import Dict

from .coefficients import (ArgumentScaleProvider, CoefficientProvider,
                           DirichletConvolutionProvider, OnesProvider,
                           PeriodicProvider, RamanujanTauProvider,
                           TableProvider, VerticalShiftProvider)
from .model import (FunctionalEquationData, GammaFactorSpec, LSeriesInstance,
                    PoleData)

EULER_GAMMA = 0.5772156649015328606
ZETA2 = math.pi ** 2 / 6.0

_tau_provider = RamanujanTauProvider()  # shared: the exact table is expensive


def _zeta() -> LSeriesInstance:
    fe = FunctionalEquationData(
        Q=math.pi ** -0.5,
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((0.5, 0.0),)),
        poles=(PoleData(1.0, 1, (1.0,)),),
    )
    return LSeriesInstance("zeta", OnesProvider(), fe, sigma_a=1.0)


def _zeta_doubled() -> LSeriesInstance:
    # Gamma(s/2) = Gamma(s/4) Gamma(s/4 + 1/2) 2^{s/2 - 1} / sqrt(pi):
    # same series, equivalent spec with Q = sqrt(2/pi).
    fe = FunctionalEquationData(
        Q=math.sqrt(2.0 / math.pi),
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((0.25, 0.0), (0.25, 0.5))),
        poles=(PoleData(1.0, 1, (1.0,)),),
    )
    return LSeriesInstance("zeta-doubled", OnesProvider(), fe, sigma_a=1.0)


def _chi4() -> LSeriesInstance:
    fe = FunctionalEquationData(
        Q=2.0 / math.sqrt(math.pi),
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((0.5, 0.5),)),
        poles=(),
    )
    return LSeriesInstance("dirichlet-chi4",
                           PeriodicProvider((1.0, 0.0, -1.0, 0.0)),
                           fe, sigma_a=1.0)


def _zeta_sq() -> LSeriesInstance:
    # zeta(s)^2 = (s-1)^{-2} + 2 gamma (s-1)^{-1} + ... at s=1
    fe = FunctionalEquationData(
        Q=1.0 / math.pi,
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((0.5, 0.0), (0.5, 0.0))),
        poles=(PoleData(1.0, 2, (1.0, 2.0 * EULER_GAMMA)),),
    )
    ones = OnesProvider()
    return LSeriesInstance("zeta-sq", DirichletConvolutionProvider(ones, ones),
                           fe, sigma_a=1.0)


def _zeta_shift_pair() -> LSeriesInstance:
    # zeta(s+1/2) zeta(s-1/2): a_n = sigma(n)/sqrt(n); residues
    # zeta(0) = -1/2 at s=1/2 and zeta(2) at s=3/2.
    fe = FunctionalEquationData(
        Q=1.0 / math.pi,
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((0.5, 0.25), (0.5, -0.25))),
        poles=(PoleData(0.5, 1, (-0.5,)), PoleData(1.5, 1, (ZETA2,))),
    )
    coeffs = DirichletConvolutionProvider(
        VerticalShiftProvider(OnesProvider(), 0.5),
        VerticalShiftProvider(OnesProvider(), -0.5),
    )
    return LSeriesInstance("zeta-shift-pair", coeffs, fe, sigma_a=1.5)


def _zeta_scaled() -> LSeriesInstance:
    # zeta(2s - 1/2): support on squares, a_{k^2} = k^{1/2};
    # pole at s = 3/4 with residue 1/2.
    fe = FunctionalEquationData(
        Q=1.0 / math.pi,
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((1.0, -0.25),)),
        poles=(PoleData(0.75, 1, (0.5,)),),
    )
    coeffs = ArgumentScaleProvider(OnesProvider(), 2, 0.5)
    return LSeriesInstance("zeta-scaled", coeffs, fe, sigma_a=0.75)


def _delta() -> LSeriesInstance:
    fe = FunctionalEquationData(
        Q=1.0 / (2.0 * math.pi),
        omega=1.0,
        gamma=GammaFactorSpec(numerator=((1.0, 5.5),)),
        poles=(),
    )
    return LSeriesInstance("delta", _tau_provider, fe, sigma_a=1.0)


_FACTORIES = {
    "zeta": _zeta,
    "zeta-doubled": _zeta_doubled,
    "dirichlet-chi4": _chi4,
    "zeta-sq": _zeta_sq,
    "zeta-shift-pair": _zeta_shift_pair,
    "zeta-scaled": _zeta_scaled,
    "delta": _delta,
}
PRESET_NAMES = tuple(_FACTORIES)

_CACHE: Dict[str, LSeriesInstance] = {}


def get_preset(name: str) -> LSeriesInstance:
    if name not in _FACTORIES:
        raise KeyError(f"unknown preset {name!r}; choices: {', '.join(PRESET_NAMES)}")
    if name not in _CACHE:
        _CACHE[name] = _FACTORIES[name]()
    return _CACHE[name]


# ---------------------------------------------------------------------------
# JSON config format for custom instances
# ---------------------------------------------------------------------------

def _pairs_from_config(lams, mus):
    if len(lams) != len(mus):
        raise ValueError("lambda[] and mu[] lengths differ")
    return tuple((float(l), complex(m[0], m[1])) for l, m in zip(lams, mus))


def _coefficients_from_config(cfg) -> CoefficientProvider:
    kind = cfg.get("kind")
    if kind == "preset":
        return get_preset(cfg["name"]).coefficients
    if kind == "table":
        return TableProvider([complex(re, im) for re, im in cfg["values"]])
    if kind == "ones":
        return OnesProvider()
    if kind == "periodic":
        return PeriodicProvider([complex(re, im) for re, im in cfg["pattern"]])
    raise ValueError(f"unknown coefficient source kind {kind!r}")


def instance_from_config(cfg: dict) -> LSeriesInstance:
    """Build an LSeriesInstance from a parsed JSON config dict.

    Required fields: name, lambda[], mu[] (re/im pairs), lambda_prime[],
    mu_prime[], Q, omega (re/im pair), sigma_a, coefficients.  Optional:
    poles = [{location: [re, im], order: k, leading: k [re, im] pairs}].
    """
    gamma = GammaFactorSpec(
        numerator=_pairs_from_config(cfg["lambda"], cfg["mu"]),
        denominator=_pairs_from_config(cfg.get("lambda_prime", []),
                                       cfg.get("mu_prime", [])),
    )
    poles = tuple(
        PoleData(complex(p["location"][0], p["location"][1]), p["order"],
                 tuple(complex(re, im) for re, im in p["leading"]))
        for p in cfg.get("poles", []))
    fe = FunctionalEquationData(
        Q=float(cfg["Q"]),
        omega=complex(cfg["omega"][0], cfg["omega"][1]),
        gamma=gamma,
        poles=poles,
    )
    return LSeriesInstance(str(cfg["name"]), _coefficients_from_config(cfg["coefficients"]),
                           fe, sigma_a=float(cfg["sigma_a"]))


def load_instance(path: str) -> LSeriesInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_config(json.load(fh))
