"""Ready-made characteristic functions for the systems studied here.

Each factory returns a CharFun for one of the model families: scalar
systems with a discrete or Gamma-distributed delay, the pure-coupling
consensus mode of the car-following network, the second-order agent mode
under delayed PD coupling, and the linearized order-parameter dynamics of
the controlled oscillator population.
"""

from __future__ import annotations

import math

from .charfun import CharFun, build_charfun
from .kernels import KERNEL, DelayKernel, Dirac, Gamma, kernel_from_dict
from .schema import NONNEG, NUM, POS, check, integer, obj

__all__ = [
    "scalar_discrete",
    "scalar_gamma",
    "coupling_mode",
    "pd_agent_mode",
    "oscillator_mode",
    "growth_with_feedback",
    "drift_difference_coupling",
    "preset_charfun",
]


def scalar_discrete(a: float, d: float, tau: float) -> CharFun:
    """zdot = (a + i d) z + L z(t - tau)."""
    return build_charfun([[complex(a, d)]], [[[0, 1]]], Dirac(tau))


def scalar_gamma(a: float, n: int, T: float) -> CharFun:
    """zdot = a z + L * (Gamma(n, T)-distributed delay of z)."""
    return build_charfun([[complex(a)]], [[[0, 1]]], Gamma(n, T))


def coupling_mode(kernel: DelayKernel) -> CharFun:
    """zdot = L * (kernel-distributed delay of z): a pure coupling mode.

    This is the per-eigenvalue mode of the velocity-matching vehicle
    network after diagonalizing the coupling matrix.
    """
    return build_charfun([[0.0]], [[[0, 1]]], kernel)


def pd_agent_mode(a: float, b: float, k1: float, k2: float, T: float) -> CharFun:
    """Second-order agent with exponentially distributed PD coupling delay.

    Per-eigenvalue mode of xdot = v, vdot = a v + b x + u with
    u = L * (k1 x + k2 v) filtered through an exponential delay of mean T.
    T = 0 degenerates to undelayed coupling (unit transform); a negative,
    infinite or NaN T is rejected.
    """
    if not (0 <= T < math.inf):  # NaN fails too
        raise ValueError(f"PD coupling delay must be nonnegative and finite, got T={T}")
    Q = [[0.0, 1.0], [complex(b), complex(a)]]
    B = [[0.0, 0.0], [[0, k1], [0, k2]]]
    kernel: DelayKernel = Gamma(1, T) if T > 0 else Dirac(0.0)
    return build_charfun(Q, B, kernel)


def oscillator_mode(K: float, d: float, kernel: DelayKernel) -> CharFun:
    """Linearized order-parameter dynamics near incoherence.

    rdot = (K/2 - 1 + i d) r + L * (kernel-distributed delay of r).
    """
    return build_charfun([[complex(K / 2.0 - 1.0, d)]], [[[0, 1]]], kernel)


def growth_with_feedback() -> CharFun:
    """zdot = z + L z(t - 1/2): the unstable scalar benchmark."""
    return scalar_discrete(1.0, 0.0, 0.5)


def drift_difference_coupling() -> CharFun:
    """zdot = 0.1(1+i) z + L (z(t-1) - z): complex drift, difference coupling."""
    return build_charfun([[[complex(0.1, 0.1), -1]]], [[[0, 1]]], Dirac(1.0))


# CLI-facing names: each preset's factory, and the schema of its params
_PRESETS = {
    "growth-feedback": (growth_with_feedback, obj()),
    "drift-difference": (drift_difference_coupling, obj()),
    "scalar-discrete": (scalar_discrete, obj(a=NUM, d=NUM, tau=NONNEG)),
    "scalar-gamma": (scalar_gamma, obj(a=NUM, n=integer(1), T=POS)),
    "pd-agent": (pd_agent_mode, obj(a=NUM, b=NUM, k1=NUM, k2=NUM, T=NONNEG)),
    "coupling-mode": (coupling_mode, obj(kernel=KERNEL)),
    "oscillator-mode": (oscillator_mode, obj(K=NUM, d=NUM, kernel=KERNEL)),
}


def preset_charfun(name: str, params: dict) -> CharFun:
    """Build a CharFun from a preset and its params; ValueError, naming the preset, unless they match its schema."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset: {name!r}")
    factory, schema = _PRESETS[name]
    check(params, schema, f"preset {name!r} params")
    return factory(**{k: kernel_from_dict(v) if k == "kernel" else v for k, v in params.items()})
