"""Edge travel-time models.

Four parametric families cover every instance handled by the solvers:
constant times, affine congestion, the Greenshields hyperbolic model and
the BPR polynomial. Each model has closed forms for its value, slope,
marginal cost d(x*c(x))/dx and congestion integral (the integrand of the
equilibrium objective), so no numerical differentiation or quadrature is
needed anywhere in the solver stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, FormatError

# Greenshields times diverge at x = u; evaluation is refused this close to
# the asymptote, and so/ue steps keep every edge flow a capacity margin
# below u * (1 - GREENSHIELDS_GUARD), the model's max_flow_bound.
GREENSHIELDS_GUARD = 1e-9


@dataclass(frozen=True)
class Constant:
    """Flow-independent travel time c."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"constant cost must be positive, got {self.c}")


@dataclass(frozen=True)
class Affine:
    """Travel time a + b*x."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError(f"affine coefficients must be >= 0, got {self.a}, {self.b}")


@dataclass(frozen=True)
class Greenshields:
    """Hyperbolic congestion time l / (v_max * (1 - x/u)), defined for x < u."""

    l: float
    v_max: float
    u: float

    def __post_init__(self):
        if not (self.l > 0 and self.v_max > 0 and self.u > 0):
            raise ValueError("greenshields parameters must be positive")


@dataclass(frozen=True)
class BPR:
    """Polynomial congestion time c0 * (1 + alpha * (x/u)^beta).

    beta >= 1 keeps the model convex.
    """

    c0: float
    u: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.c0 > 0 and self.u > 0):
            raise ValueError("bpr free-flow time and capacity must be positive")
        if self.alpha < 0:
            raise ValueError("bpr alpha must be >= 0")
        if self.beta < 1:
            raise ValueError("bpr beta must be >= 1")


@dataclass(frozen=True)
class Marginalized:
    """Marginal-cost view of a base model: evaluates to c(x) + x*c'(x).

    Used to restate a system-optimal problem as an equilibrium problem on
    substituted edge costs. Not part of the JSON surface.
    """

    base: "CostModel"


CostModel = Union[Constant, Affine, Greenshields, BPR, Marginalized]


def _admit(model, x):
    # Normalises tiny negative flows from float round-off; real negatives
    # and Greenshields saturation are domain errors.
    if x < 0.0:
        if x < -1e-12:
            raise DomainError(f"negative flow {x}")
        x = 0.0
    base = model.base if isinstance(model, Marginalized) else model
    if isinstance(base, Greenshields) and x >= base.u * (1.0 - GREENSHIELDS_GUARD):
        raise DomainError(
            f"flow {x} at or beyond the greenshields asymptote (u={base.u})"
        )
    return x


def evaluate(model: CostModel, x: float) -> float:
    """Travel time of ``model`` at flow ``x``."""
    x = _admit(model, x)
    if isinstance(model, Constant):
        return model.c
    if isinstance(model, Affine):
        return model.a + model.b * x
    if isinstance(model, Greenshields):
        return model.l / (model.v_max * (1.0 - x / model.u))
    if isinstance(model, BPR):
        return model.c0 * (1.0 + model.alpha * (x / model.u) ** model.beta)
    if isinstance(model, Marginalized):
        return marginal(model.base, x)
    raise TypeError(f"not a cost model: {model!r}")


def derivative(model: CostModel, x: float) -> float:
    """d(travel time)/d(flow) at ``x``, in closed form."""
    x = _admit(model, x)
    if isinstance(model, Constant):
        return 0.0
    if isinstance(model, Affine):
        return model.b
    if isinstance(model, Greenshields):
        return model.l / (model.v_max * model.u) / (1.0 - x / model.u) ** 2
    if isinstance(model, BPR):
        if x == 0.0 and model.beta < 2:
            # x^(beta-1) is finite for beta >= 1; avoid 0**negative below
            return model.c0 * model.alpha / model.u if model.beta == 1 else 0.0
        return (
            model.c0 * model.alpha * model.beta
            * x ** (model.beta - 1.0) / model.u ** model.beta
        )
    if isinstance(model, Marginalized):
        return 2.0 * derivative(model.base, x) + x * second_derivative(model.base, x)
    raise TypeError(f"not a cost model: {model!r}")


def second_derivative(model: CostModel, x: float) -> float:
    x = _admit(model, x)
    if isinstance(model, (Constant, Affine)):
        return 0.0
    if isinstance(model, Greenshields):
        return 2.0 * model.l / (model.v_max * model.u**2) / (1.0 - x / model.u) ** 3
    if isinstance(model, BPR):
        coeff = model.c0 * model.alpha * model.beta * (model.beta - 1.0)
        if coeff == 0.0:
            return 0.0
        if x == 0.0:
            return 0.0 if model.beta != 2 else coeff / model.u**2
        return coeff * x ** (model.beta - 2.0) / model.u ** model.beta
    if isinstance(model, Marginalized):
        if x == 0.0:
            return 3.0 * second_derivative(model.base, 0.0)
        return 3.0 * second_derivative(model.base, x) + x * _third_derivative(model.base, x)
    raise TypeError(f"not a cost model: {model!r}")


def _third_derivative(model, x):
    if isinstance(model, (Constant, Affine)):
        return 0.0
    if isinstance(model, Greenshields):
        return 6.0 * model.l / (model.v_max * model.u**3) / (1.0 - x / model.u) ** 4
    if isinstance(model, BPR):
        coeff = (
            model.c0 * model.alpha
            * model.beta * (model.beta - 1.0) * (model.beta - 2.0)
        )
        if coeff == 0.0 or x == 0.0:
            return 0.0
        return coeff * x ** (model.beta - 3.0) / model.u ** model.beta
    raise TypeError(f"not a cost model: {model!r}")


def marginal(model: CostModel, x: float) -> float:
    """Marginal cost c(x) + x*c'(x): the slope of the effective cost x*c(x)."""
    x = _admit(model, x)
    return evaluate(model, x) + x * derivative(model, x)


def beckmann_integral(model: CostModel, x: float) -> float:
    """Integral of the travel time from 0 to ``x`` (equilibrium integrand)."""
    x = _admit(model, x)
    if isinstance(model, Constant):
        return model.c * x
    if isinstance(model, Affine):
        return model.a * x + 0.5 * model.b * x * x
    if isinstance(model, Greenshields):
        return -(model.l * model.u / model.v_max) * math.log(1.0 - x / model.u)
    if isinstance(model, BPR):
        return model.c0 * (
            x
            + model.alpha * x ** (model.beta + 1.0)
            / ((model.beta + 1.0) * model.u ** model.beta)
        )
    if isinstance(model, Marginalized):
        # integral of c + t*c' is exactly x*c(x)
        return x * evaluate(model.base, x)
    raise TypeError(f"not a cost model: {model!r}")


def marginal_model(model: CostModel) -> CostModel:
    """The cost model whose value function is the marginal cost of ``model``."""
    if isinstance(model, Constant):
        return model  # marginal of a constant is the constant itself
    return Marginalized(model)


def is_constant(model: CostModel) -> bool:
    return isinstance(model, Constant)


def max_flow_bound(model: CostModel) -> float:
    """Largest flow the model can be evaluated at (inf when unbounded)."""
    base = model.base if isinstance(model, Marginalized) else model
    if isinstance(base, Greenshields):
        return base.u * (1.0 - GREENSHIELDS_GUARD)
    return math.inf


_JSON_FIELDS = {
    "constant": (Constant, ("c",)),
    "affine": (Affine, ("a", "b")),
    "greenshields": (Greenshields, ("l", "v_max", "u")),
    "bpr": (BPR, ("c0", "u", "alpha", "beta")),
}


def cost_to_json(model: CostModel) -> dict:
    for kind, (cls, fields) in _JSON_FIELDS.items():
        if type(model) is cls:
            out = {"kind": kind}
            for f in fields:
                out[f] = getattr(model, f)
            return out
    raise FormatError(f"cost model {model!r} has no JSON form")


def cost_from_json(obj) -> CostModel:
    if not isinstance(obj, dict):
        raise FormatError(f"cost must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _JSON_FIELDS:
        raise FormatError(f"unknown cost kind {kind!r}")
    cls, fields = _JSON_FIELDS[kind]
    extra = set(obj) - {"kind", *fields}
    if extra:
        raise FormatError(f"unknown keys {sorted(extra)} in {kind} cost")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise FormatError(f"missing keys {missing} in {kind} cost")
    values = {}
    for f in fields:
        v = obj[f]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"cost parameter {f} must be a number, got {v!r}")
        values[f] = float(v)
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
