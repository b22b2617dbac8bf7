"""Scale-dependent canonical commutator.

At resolution eps the equal-time commutator expectation is
<[x, p]> = m eps <v^2>(eps): exactly hbar for the free measure (to leading
order in eps), but vanishing linearly in eps deep below epsilon_D for the
restricted one.  Recasting the small correction in canonical language
gives [x, p] = hbar (1 - beta p^2), valid for p below p_D; beta and p_D
are per-parameter constants and live on ``velocity.regime_report``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import ModelParams
from .velocity import v2_diff, v2_feynman

__all__ = [
    "CommutatorReport",
    "commutator_expectation",
    "momentum_squared",
]


@dataclass(frozen=True)
class CommutatorReport:
    eps: float
    value: float  # action units, m * eps * <v^2>(eps)
    regime: str  # "sub_eps_D" | "super_eps_D"


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
    return CommutatorReport(eps=eps, value=value, regime=regime)


def momentum_squared(eps: float, params: ModelParams, model: str = "differentiable") -> float:
    """Heuristic identification <p^2> = m^2 <v^2>(eps), kept as its own step."""
    v2 = v2_feynman(eps, params) if model == "feynman" else v2_diff(eps, params)
    return params.m**2 * v2
