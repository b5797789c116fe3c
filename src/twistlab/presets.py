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
    return LSeriesInstance("delta", RamanujanTauProvider(), fe, sigma_a=1.0)


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

def _field(obj, key, path: str, shape: str, ok):
    """(obj[key], its path; "" at the top), refused if missing or not ok(obj[key])."""
    where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
    if isinstance(obj, dict) and key not in obj:
        raise ValueError(f"{path or 'config'}: missing field {key!r}")
    value = obj[key]
    if not ok(value):
        got = (f"a list of {len(value)}" if isinstance(value, list) else
               "an object" if isinstance(value, dict) else json.dumps(value))
        raise ValueError(f"{where}: expected {shape}, got {got}")
    return value, where


def _number(obj, key, path: str = ""):
    return _field(obj, key, path, "a number", lambda v: type(v) in (int, float))[0]


def _pair(obj, key, path: str = "") -> complex:
    pair, where = _field(obj, key, path, "an [re, im] pair",
                         lambda v: isinstance(v, list) and len(v) == 2)
    return complex(_number(pair, 0, where), _number(pair, 1, where))


def _list(obj, key, path: str = "", item=_number, least: int = 0) -> list:
    items, where = _field(obj, key, path, "a non-empty list" if least else "a list",
                          lambda v: isinstance(v, list) and len(v) >= least)
    return [item(items, i, where) for i in range(len(items))]


def _object(obj, key, path: str = ""):
    return _field(obj, key, path, "an object", lambda v: isinstance(v, dict))


def _coefficients_from_config(cfg: dict) -> CoefficientProvider:
    source, path = _object(cfg, "coefficients")
    kind = source.get("kind")
    if kind == "preset":
        name, _ = _field(source, "name", path, "a preset name", lambda v: v in PRESET_NAMES)
        return get_preset(name).coefficients
    if kind == "table":
        return TableProvider(_list(source, "values", path, _pair))
    if kind == "ones":
        return OnesProvider()
    if kind == "periodic":
        return PeriodicProvider(_list(source, "pattern", path, _pair, least=1))
    raise ValueError(f"unknown coefficient source kind {kind!r}")


def instance_from_config(cfg: dict) -> LSeriesInstance:
    """An LSeriesInstance from a parsed JSON config: name, lambda[], mu[] ([re, im]
    pairs), Q, omega ([re, im]), sigma_a, coefficients and optionally lambda_prime[],
    mu_prime[] and poles = [{location: [re, im], order: k, leading: k [re, im] pairs}].
    A missing field, or one not of its JSON shape, is a ValueError naming its path."""
    cfg = {"lambda_prime": [], "mu_prime": [], "poles": [],
           **_object({"config": cfg}, "config")[0]}
    pairs = []
    for lam, mu in (("lambda", "mu"), ("lambda_prime", "mu_prime")):
        lams, mus = _list(cfg, lam), _list(cfg, mu, item=_pair)
        if len(lams) != len(mus):
            raise ValueError(f"{lam}[] and {mu}[] lengths differ")
        pairs.append(tuple(zip(lams, mus)))
    poles = tuple(PoleData(_pair(pole, "location", at), _number(pole, "order", at),
                           _list(pole, "leading", at, _pair))
                  for pole, at in _list(cfg, "poles", item=_object))
    fe = FunctionalEquationData(_number(cfg, "Q"), _pair(cfg, "omega"),
                                GammaFactorSpec(*pairs), poles)
    return LSeriesInstance(str(_field(cfg, "name", "", "", lambda v: True)[0]),
                           _coefficients_from_config(cfg), fe, float(_number(cfg, "sigma_a")))


def load_instance(path: str) -> LSeriesInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_config(json.load(fh))
