"""Scale-dependent canonical commutator and the GUP-form coefficient.

At resolution eps the equal-time commutator expectation is
<[x, p]> = m eps <v^2>(eps): exactly hbar for the free measure (to leading
order in eps), but vanishing linearly in eps deep below epsilon_D for the
restricted one.  Recasting the small correction in canonical language
gives [x, p] = hbar (1 - beta p^2) with beta = (2/pi)^2 / p_UV^2, valid
for p below p_D = sqrt(hbar m / epsilon_D).

p_UV = m sqrt(v2_uv) uses the scale v2_uv = (pi A / T) sqrt(hbar / m T), not
the plateau <v^2>(eps -> 0), which is v2_uv / 4 at alpha = 3, A = 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .paths import ModelParams
from .velocity import regime_report, v2_diff, v2_feynman

__all__ = [
    "CommutatorReport",
    "commutator_expectation",
    "momentum_squared",
    "gup_coefficient",
]


@dataclass(frozen=True)
class CommutatorReport:
    eps: float
    value: float  # action units, m * eps * <v^2>(eps)
    regime: str  # "sub_eps_D" | "super_eps_D"
    beta: Optional[float]  # (2/pi)^2 / p_uv^2; None when alpha <= 2
    p_D: Optional[float]  # validity boundary sqrt(hbar m / eps_D)


def commutator_expectation(
    eps: float, params: ModelParams, model: str = "differentiable", tol: float = 1e-9
) -> CommutatorReport:
    """<[x, p]> at resolution eps: the identity m * eps * <v^2> exactly."""
    if model not in ("feynman", "differentiable"):
        raise ValueError("model must be 'feynman' or 'differentiable'")
    if model == "feynman":
        v2 = v2_feynman(eps, params)
    else:
        v2 = v2_diff(eps, params, tol)
    value = params.m * eps * v2
    if params.alpha > 1:
        regime = "sub_eps_D" if eps < params.eps_d else "super_eps_D"
    else:
        regime = "super_eps_D"
    beta = p_d = None
    if params.alpha > 2:
        g = gup_coefficient(params)
        beta, p_d = g["beta"], g["p_D"]
    return CommutatorReport(eps=eps, value=value, regime=regime, beta=beta, p_D=p_d)


def momentum_squared(eps: float, params: ModelParams, model: str = "differentiable") -> float:
    """Heuristic identification <p^2> = m^2 <v^2>(eps), kept as its own step."""
    v2 = v2_feynman(eps, params) if model == "feynman" else v2_diff(eps, params)
    return params.m**2 * v2


def gup_coefficient(params: ModelParams) -> dict:
    """beta, p_uv and p_D of the modified commutator [x,p] = hbar(1 - beta p^2).

    beta = (2/pi)^2 / p_uv^2 coincides with C / hbar^2 from the velocity
    regime report (same algebra, two routes).  p_uv = m sqrt(v2_uv) comes from
    the scale v2_uv = (pi A / T) sqrt(hbar / m T), not from the plateau.
    """
    rep = regime_report(params)  # raises for alpha <= 2
    beta = (2.0 / math.pi) ** 2 / rep.p_uv**2
    p_d = math.sqrt(params.hbar * params.m / rep.epsilon_D)
    return {"beta": beta, "p_uv": rep.p_uv, "p_D": p_d}

