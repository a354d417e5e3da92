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

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .lorentz import PlaneCurve, lorentz_cross
from .surface_calculus import Hypersurface

KappaSpec = Union[float, Callable]


class DomainError(ValueError):
    """A chart point violates a closed-form precondition (named factor)."""


@dataclass(frozen=True)
class ModelSpec:
    """Serializable description of a model-zoo hypersurface."""

    kind: str                      # M_Gamma | M_kk | M_1m1 | M_11 | M_tau
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
    lambdas: Callable                 # u -> (3,) ascending principal curvatures
    frame_eigen: Callable             # u -> [(ambient eigenvector, eigenvalue)]
    constant_curvatures: bool


DEFAULT_DOMAINS = {
    "M_Gamma": ((-1.5, 1.5), (0.3, 1.8), (0.3, 6.0)),
    "M_kk": ((-1.0, 1.0), (-1.6, 1.6), (-1.6, 1.6)),
    "M_tau": ((0.3, 1.8), (0.3, 6.0), (0.3, 6.0)),
}


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

    lam = np.sort(np.array([kappa_gamma, 0.0, 0.0]))

    def lambdas(_u):
        return lam

    def frame_eigen(u):
        r, rho, phi = (float(x) for x in u)
        st = curve.state(r)
        e_rho = np.array([math.sinh(rho), math.cosh(rho) * math.cos(phi),
                          math.cosh(rho) * math.sin(phi)])
        e_phi = np.array([0.0, -math.sin(phi), math.cos(phi)])
        z = np.zeros(3)
        return [
            (np.concatenate([st.tangent, z]), kappa_gamma),
            (np.concatenate([z, e_rho]), 0.0),
            (np.concatenate([z, e_phi]), 0.0),
        ]

    surface = Hypersurface(chart=chart, domain=domain, name=f"M_Gamma(kappa={kappa_gamma})")
    oracle = Oracle(name=surface.name, C=1.0, lambdas=lambdas,
                    frame_eigen=frame_eigen, constant_curvatures=True)
    return surface, oracle


# ---------------------------------------------------------------------------
# M_kk: two-curve product construction
# ---------------------------------------------------------------------------

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

    def _factors(t, r, s):
        k1 = curve1.state(r).kappa
        k2 = curve2.state(s).kappa
        d1 = math.cosh(sc * t) - math.sinh(sc * t) * k1
        d2 = math.cosh(s1c * t) - math.sinh(s1c * t) * k2
        if abs(d1) <= 1e-6:
            raise DomainError(
                "first-factor denominator cosh(sqrt(c) t) - sinh(sqrt(c) t) kappa(r) vanishes")
        if abs(d2) <= 1e-6:
            raise DomainError(
                "second-factor denominator cosh(sqrt(1-c) t) - sinh(sqrt(1-c) t) kappa~(s) vanishes")
        lam2 = -s1c * (math.sinh(sc * t) - math.cosh(sc * t) * k1) / d1
        lam3 = sc * (math.sinh(s1c * t) - math.cosh(s1c * t) * k2) / d2
        return lam2, lam3

    def lambdas(u):
        t, r, s = (float(x) for x in u)
        lam2, lam3 = _factors(t, r, s)
        return np.sort(np.array([0.0, lam2, lam3]))

    def frame_eigen(u):
        t, r, s = (float(x) for x in u)
        st1 = curve1.state(r)
        st2 = curve2.state(s)
        lam2, lam3 = _factors(t, r, s)
        z = np.zeros(3)
        e1 = np.concatenate([
            sc * (math.sinh(sc * t) * st1.gamma + math.cosh(sc * t) * st1.normal),
            s1c * (math.sinh(s1c * t) * st2.gamma + math.cosh(s1c * t) * st2.normal),
        ])
        return [
            (e1, 0.0),
            (np.concatenate([st1.tangent, z]), lam2),
            (np.concatenate([z, st2.tangent]), lam3),
        ]

    surface = Hypersurface(chart=chart, domain=domain, name=name)
    oracle = Oracle(name=name, C=1.0 - 2.0 * c, lambdas=lambdas,
                    frame_eigen=frame_eigen, constant_curvatures=constant)
    return surface, oracle


def make_M_kk(c: float, kappa: KappaSpec, kappa_tilde: KappaSpec, domain=None):
    domain = domain or DEFAULT_DOMAINS["M_kk"]

    def unit_const(k):
        # principal curvatures are constant only for kappa = kappa~ = +-1
        return not callable(k) and abs(float(k)) == 1.0

    constant = unit_const(kappa) and unit_const(kappa_tilde)
    return _product_surface(c, PlaneCurve(kappa), PlaneCurve(kappa_tilde),
                            domain, f"M_kk(c={c})", constant)


# curvatures (kappa, kappa~) of the horocycle cases; the second horocycle of
# M_1m1 carries the opposite normal, so its curvature in its own frame is -1
HOROCYCLE_PAIRS = {"M_1m1": (1.0, -1.0), "M_11": (1.0, 1.0)}


def make_M_1m1(c: float, domain=None):
    """Horocycle curvatures (1,-1): principal curvatures {0, sqrt(1-c), sqrt(c)}."""
    domain = domain or DEFAULT_DOMAINS["M_kk"]
    k1, k2 = HOROCYCLE_PAIRS["M_1m1"]
    return _product_surface(c, PlaneCurve(k1), PlaneCurve(k2, normal_sign=-1),
                            domain, f"M_1m1(c={c})", True)


def make_M_11(c: float, domain=None):
    """Horocycle curvatures (1,1): principal curvatures {0, sqrt(1-c), -sqrt(c)}."""
    domain = domain or DEFAULT_DOMAINS["M_kk"]
    k1, k2 = HOROCYCLE_PAIRS["M_11"]
    return _product_surface(c, PlaneCurve(k1), PlaneCurve(k2),
                            domain, f"M_11(c={c})", True)


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

    lam = np.sort(np.array([0.0, mtau_lambda_small(tau), mtau_lambda_big(tau)]))

    def lambdas(_u):
        return lam

    def frame_eigen(u):
        x = surface.point(u)
        p, q = x[:3], x[3:]
        v_first = (q + tau * p) * scale
        v_second = -(p + tau * q) * scale
        pq = lorentz_cross(p, q)
        qp = lorentz_cross(q, p)
        j1n = np.concatenate([pq, qp]) * scale
        j2n = np.concatenate([pq, -qp]) * scale
        return [
            (np.concatenate([v_first, v_second]), 0.0),
            (j1n, mtau_lambda_big(tau)),
            (j2n, mtau_lambda_small(tau)),
        ]

    surface = Hypersurface(chart=chart, domain=domain, name=f"M_tau(tau={tau})")
    oracle = Oracle(name=surface.name, C=0.0, lambdas=lambdas,
                    frame_eigen=frame_eigen, constant_curvatures=True)
    return surface, oracle


# ---------------------------------------------------------------------------
# cross-check of the tanh principal-curvature profile
# ---------------------------------------------------------------------------

def tanh_profile_check(c: float, kappa0: float, t_grid: Sequence[float]) -> float:
    """Deviation between the two-curve curvature formula and the tanh profile.

    For constant |kappa0| < 1 the nonzero first-factor principal curvature
    equals -sqrt(1-c) tanh(sqrt(c) (t + h1)) with h1 = -arctanh(kappa0)/sqrt(c).
    Returns the max absolute deviation of |lambda| over the grid (the sign is
    frame-orientation dependent and is not asserted here).
    """
    if not 0.0 < c < 1.0:
        raise ValueError("c out of range (0,1)")
    if not abs(kappa0) < 1.0:
        raise ValueError("|kappa0| must be < 1 for the tanh profile")
    sc = math.sqrt(c)
    s1c = math.sqrt(1.0 - c)
    h1 = -math.atanh(kappa0) / sc
    dev = 0.0
    for t in t_grid:
        lam_formula = -s1c * ((math.sinh(sc * t) - math.cosh(sc * t) * kappa0)
                              / (math.cosh(sc * t) - math.sinh(sc * t) * kappa0))
        lam_tanh = -s1c * math.tanh(sc * (t + h1))
        dev = max(dev, abs(abs(lam_formula) - abs(lam_tanh)))
    return dev


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
    """Parse a curvature-function name: a number, 'tanh', or 'const:<x>'."""
    if text in NAMED_KAPPAS:
        return NAMED_KAPPAS[text]
    if text.startswith("const:"):
        return float(text.split(":", 1)[1])
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unknown curvature function {text!r}") from None


def curvature_pair(spec: ModelSpec) -> Optional[tuple]:
    """Curvatures (kappa, kappa~) of a two-curve product model, None otherwise.

    Curvature names in the spec are parsed here; a curvature function comes
    back as the callable.
    """
    if spec.kind in HOROCYCLE_PAIRS:
        return HOROCYCLE_PAIRS[spec.kind]
    if spec.kind == "M_kk":
        return tuple(parse_kappa(k) if isinstance(k, str) else k
                     for k in (spec.params["kappa"], spec.params["kappa_tilde"]))
    return None


def build_model(spec: ModelSpec):
    """Construct the (Hypersurface, Oracle) pair described by a ModelSpec."""
    kind = spec.kind
    p = spec.params
    if kind == "M_Gamma":
        return make_M_Gamma(float(p["kappa_gamma"]), domain=spec.domain)
    if kind == "M_1m1":
        return make_M_1m1(float(p["c"]), domain=spec.domain)
    if kind == "M_11":
        return make_M_11(float(p["c"]), domain=spec.domain)
    if kind == "M_kk":
        return make_M_kk(float(p["c"]), *curvature_pair(spec), domain=spec.domain)
    if kind == "M_tau":
        return make_M_tau(float(p["tau"]), domain=spec.domain)
    raise ValueError(f"unknown model kind {kind!r}")
