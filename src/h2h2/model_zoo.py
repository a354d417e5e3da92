"""Canonical hypersurfaces of H² × H² with closed-form oracles.

Each constructor returns a (Hypersurface, Oracle) pair: the chart, which
returns its closed-form normal with the point, feeds the generic calculus,
while the oracle carries the exact product angle and principal curvatures so
the numerics can be validated against known values.

Families
--------
M_Gamma : curve x H², product angle C = 1, curvatures {kappa_Gamma, 0, 0}.
M_kk    : two-curve product construction with 0 < c < 1,
              p(t,r) = cosh(sqrt(c) t) gamma(r) + sinh(sqrt(c) t) N(r),
              q(t,s) = cosh(sqrt(1-c) t) gamma~(s) + sinh(sqrt(1-c) t) N~(s),
          with C = 1 - 2c and one zero principal curvature along d/dt.
M_1m1, M_11 : horocycle specializations (curvatures (1,-1) and (1,1)) with
          constant principal curvatures {0, sqrt(1-c), sqrt(c)} and
          {0, sqrt(1-c), -sqrt(c)} respectively.
M_tau   : the level set <p,q> = tau (tau < -1), a tube over the diagonal,
          charted by a geodesic-polar base point and a unit tube direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import autodiff as ad
from .lorentz import PlaneCurve
from .surface_calculus import Hypersurface

KappaSpec = Union[float, Callable]


class DomainError(ValueError):
    """A chart point violates a closed-form precondition (named factor)."""


@dataclass(frozen=True)
class ModelSpec:
    """Serializable description of a model-zoo hypersurface."""

    kind: str                      # a key of FAMILIES
    params: dict = field(default_factory=dict)
    domain: Optional[tuple] = None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "domain": self.domain}


@dataclass(frozen=True)
class Oracle:
    """Closed-form reference data for one hypersurface family."""

    name: str
    C: float
    lambdas: Callable                 # u (n, 3) -> ascending principal curvatures (n, 3)
    constant_curvatures: bool


DEFAULT_DOMAINS = {
    "M_Gamma": ((-1.5, 1.5), (0.3, 1.8), (0.3, 6.0)),
    "M_kk": ((-1.0, 1.0), (-1.6, 1.6), (-1.6, 1.6)),
    "M_tau": ((0.3, 1.8), (0.3, 6.0), (0.3, 6.0)),
}


def _constant_lambdas(*lam):
    """Oracle curvatures that do not depend on the point: u -> sorted lam."""
    lam = np.sort(np.array(lam))
    return lambda u: np.broadcast_to(lam, np.shape(u))


def _polar(rho, phi):
    return [ad.cosh(rho), ad.sinh(rho) * ad.cos(phi), ad.sinh(rho) * ad.sin(phi)]


# ---------------------------------------------------------------------------
# M_Gamma = Gamma x H^2
# ---------------------------------------------------------------------------

def make_M_Gamma(kappa_gamma: float, domain=None):
    domain = domain or DEFAULT_DOMAINS["M_Gamma"]
    curve = PlaneCurve(kappa_gamma)

    def chart(u):
        r, rho, phi = u
        g, n = curve.jet(r)
        return g, _polar(rho, phi), [*n, 0.0, 0.0, 0.0]

    surface = Hypersurface(chart=chart, domain=domain, name=f"M_Gamma(kappa={kappa_gamma})")
    oracle = Oracle(name=surface.name, C=1.0, lambdas=_constant_lambdas(kappa_gamma, 0.0, 0.0),
                    constant_curvatures=True)
    return surface, oracle


# ---------------------------------------------------------------------------
# M_kk: two-curve product construction
# ---------------------------------------------------------------------------

def product_lambdas(c: float, a1, a2, k1, k2) -> np.ndarray:
    """Ascending principal curvatures {0, lambda2, lambda3} (..., 3) of a
    two-curve product with factor curvatures k1, k2 at the arguments a1
    (sqrt(c) t on the surface) and a2 (sqrt(1-c) t), arrays that broadcast
    against each other; the first row (and factor) whose denominator
    vanishes raises."""
    (ch1, sh1), (ch2, sh2) = ((np.cosh(a), np.sinh(a)) for a in (a1, a2))
    d1, d2 = ch1 - sh1 * k1, ch2 - sh2 * k2
    vanishing = np.stack(np.broadcast_arrays(np.abs(d1) <= 1e-6, np.abs(d2) <= 1e-6), axis=-1)
    if vanishing.any():
        raise DomainError(("first-factor denominator cosh(sqrt(c) t) - sinh(sqrt(c) t) kappa(r)",
                           "second-factor denominator cosh(sqrt(1-c) t) - sinh(sqrt(1-c) t) "
                           "kappa~(s)")[int(np.argmax(vanishing)) % 2] + " vanishes")
    lam2 = -math.sqrt(1.0 - c) * (sh1 - ch1 * k1) / d1
    lam3 = math.sqrt(c) * (sh2 - ch2 * k2) / d2
    return np.sort(np.stack([np.zeros_like(lam2), lam2, lam3], axis=-1), axis=-1)


def _product_surface(c: float, curve1: PlaneCurve, curve2: PlaneCurve,
                     domain, name: str, constant: bool):
    if not 0.0 < c < 1.0:
        raise ValueError("c out of range (0,1)")
    sc = math.sqrt(c)
    s1c = math.sqrt(1.0 - c)

    def chart(u):
        t, r, s = u
        g1, n1 = curve1.jet(r)
        g2, n2 = curve2.jet(s)
        ch1, sh1 = ad.cosh(sc * t), ad.sinh(sc * t)
        ch2, sh2 = ad.cosh(s1c * t), ad.sinh(s1c * t)
        p = [ch1 * g1[i] + sh1 * n1[i] for i in range(3)]
        q = [ch2 * g2[i] + sh2 * n2[i] for i in range(3)]
        n = ([s1c * (sh1 * g1[i] + ch1 * n1[i]) for i in range(3)]
             + [-sc * (sh2 * g2[i] + ch2 * n2[i]) for i in range(3)])
        return p, q, n

    def lambdas(u):
        t, r, s = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        return product_lambdas(c, sc * t, s1c * t, curve1.kappa_at(r), curve2.kappa_at(s))

    surface = Hypersurface(chart=chart, domain=domain, name=name)
    oracle = Oracle(name=name, C=1.0 - 2.0 * c, lambdas=lambdas, constant_curvatures=constant)
    return surface, oracle


def make_M_kk(c: float, kappa: KappaSpec, kappa_tilde: KappaSpec, domain=None):
    domain = domain or DEFAULT_DOMAINS["M_kk"]

    def unit_const(k):
        # principal curvatures are constant only for kappa = kappa~ = +-1
        return not callable(k) and abs(float(k)) == 1.0

    constant = unit_const(kappa) and unit_const(kappa_tilde)
    return _product_surface(c, PlaneCurve(kappa), PlaneCurve(kappa_tilde),
                            domain, f"M_kk(c={c})", constant)


# the horocycle products: curvatures (kappa, kappa~) and the normal sign of
# the second curve; the second horocycle of M_1m1 carries the opposite
# normal, so its curvature in its own frame is -1
HOROCYCLES = {"M_1m1": ((1.0, -1.0), -1), "M_11": ((1.0, 1.0), 1)}


def make_horocycle_product(kind: str, c: float, domain=None):
    """M_1m1 (principal curvatures {0, sqrt(1-c), sqrt(c)}) or M_11
    ({0, sqrt(1-c), -sqrt(c)}), the product of two horocycles."""
    (k1, k2), sign = HOROCYCLES[kind]
    return _product_surface(c, PlaneCurve(k1), PlaneCurve(k2, normal_sign=sign),
                            domain or DEFAULT_DOMAINS["M_kk"], f"{kind}(c={c})", True)


# ---------------------------------------------------------------------------
# M_tau: tube over the diagonal surface
# ---------------------------------------------------------------------------

def mtau_lambda_big(tau: float) -> float:
    return math.sqrt((tau - 1.0) / (2.0 * (tau + 1.0)))


def mtau_lambda_small(tau: float) -> float:
    return math.sqrt((tau + 1.0) / (2.0 * (tau - 1.0)))


def mtau_focal_radius(tau: float) -> float:
    """Tube radius of the level set over the diagonal: arccosh(-tau)/sqrt(2)."""
    return math.acosh(-tau) / math.sqrt(2.0)


def make_M_tau(tau: float, domain=None):
    if not tau < -1.0:
        raise ValueError("tau out of range (-inf, -1)")
    domain = domain or DEFAULT_DOMAINS["M_tau"]
    radius = mtau_focal_radius(tau)
    a = math.cosh(radius / math.sqrt(2.0))
    b = math.sqrt(2.0) * math.sinh(radius / math.sqrt(2.0))
    scale = 1.0 / math.sqrt(2.0 * (tau * tau - 1.0))

    def chart(u):
        u1, u2, u3 = u
        p = _polar(u1, u2)
        e1 = [ad.sinh(u1), ad.cosh(u1) * ad.cos(u2), ad.cosh(u1) * ad.sin(u2)]
        e2 = [0.0, -ad.sin(u2), ad.cos(u2)]
        cu, su = ad.cos(u3), ad.sin(u3)
        inv = 1.0 / math.sqrt(2.0)
        v = [(cu * e1[i] + su * e2[i]) * inv for i in range(3)]
        x = [a * p[i] + b * v[i] for i in range(3)]
        y = [a * p[i] - b * v[i] for i in range(3)]
        n = ([(y[i] + tau * x[i]) * scale for i in range(3)]
             + [(x[i] + tau * y[i]) * scale for i in range(3)])
        return x, y, n

    surface = Hypersurface(chart=chart, domain=domain, name=f"M_tau(tau={tau})")
    lambdas = _constant_lambdas(0.0, mtau_lambda_small(tau), mtau_lambda_big(tau))
    oracle = Oracle(name=surface.name, C=0.0, lambdas=lambdas, constant_curvatures=True)
    return surface, oracle


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# the canonical family sweep: acceptance tests, the curvature-catalog table
# and the verification-suite script all run over these models, in this order
CATALOG = (
    tuple(ModelSpec("M_Gamma", {"kappa_gamma": k}) for k in (0.0, 0.5, 1.0, 2.0))
    + tuple(ModelSpec("M_1m1", {"c": c}) for c in (0.1, 0.25, 0.5, 0.75, 0.9))
    + tuple(ModelSpec("M_11", {"c": c}) for c in (0.1, 0.25, 0.5, 0.75, 0.9))
    + tuple(ModelSpec("M_tau", {"tau": t}) for t in (-1.5, -2.0, -5.0))
)

NAMED_KAPPAS: dict[str, KappaSpec] = {
    "one": 1.0,
    "minus-one": -1.0,
    "zero": 0.0,
    "tanh": ad.tanh,
}


def parse_kappa(text: str) -> KappaSpec:
    """Parse a curvature-function name: a number, 'const:<x>', or one of
    ``NAMED_KAPPAS``."""
    if text in NAMED_KAPPAS:
        return NAMED_KAPPAS[text]
    try:
        return float(text.removeprefix("const:"))
    except ValueError:
        raise ValueError(f"unknown curvature function {text!r}: expected a number, "
                         f"const:<x> or one of {', '.join(NAMED_KAPPAS)}") from None


def _curvature(value) -> KappaSpec:
    """A curvature function given by name, parsed; any other value as it is."""
    return parse_kappa(value) if isinstance(value, str) else value


def curvature_pair(spec: ModelSpec) -> Optional[tuple]:
    """Curvatures (kappa, kappa~) of a two-curve product model, None otherwise.

    Curvature names in the spec are parsed here; a curvature function comes
    back as the callable.
    """
    if spec.kind in HOROCYCLES:
        return HOROCYCLES[spec.kind][0]
    if spec.kind == "M_kk":
        return tuple(_curvature(spec.params[k]) for k in ("kappa", "kappa_tilde"))
    return None


# family -> (constructor, {parameter: default}), parameters in command-line
# order; None marks a required number, a string default a curvature function
# given by name.  The CLI's --model choices and flags and build_model read it.
FAMILIES = {
    "M_Gamma": (make_M_Gamma, {"kappa_gamma": None}),
    "M_kk": (make_M_kk, {"c": None, "kappa": "one", "kappa_tilde": "minus-one"}),
    "M_1m1": (functools.partial(make_horocycle_product, "M_1m1"), {"c": None}),
    "M_11": (functools.partial(make_horocycle_product, "M_11"), {"c": None}),
    "M_tau": (make_M_tau, {"tau": None}),
}


def flag(name: str) -> str:
    """The command-line flag of a model parameter: --kappa-gamma for kappa_gamma."""
    return "--" + name.replace("_", "-")


def build_model(spec: ModelSpec):
    """Construct the (Hypersurface, Oracle) pair described by a ModelSpec:
    numbers as floats, curvature-function names parsed."""
    if spec.kind not in FAMILIES:
        raise ValueError(f"unknown model kind {spec.kind!r}")
    make, params = FAMILIES[spec.kind]
    return make(*(float(spec.params[name]) if default is None else _curvature(spec.params[name])
                  for name, default in params.items()), domain=spec.domain)
