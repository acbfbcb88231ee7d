"""From-scratch AdamW plus the guarded step that composes it with the governor.

AdamW here is the standard decoupled-weight-decay update with bias
correction. The governor never redefines it: moments always absorb the
(possibly clipped) gradient, and only the applied delta is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .governor import (
    Governor,
    NonFiniteGradientError,
    StepRecord,
    apply_posture,
)


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError("beta1 must lie in (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if self.eps <= 0.0:
            raise ValueError("eps must be > 0")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_optimizer_state(n: int) -> OptimizerState:
    return OptimizerState(m=np.zeros(n), v=np.zeros(n), t=0)


@dataclass(frozen=True)
class ClipConfig:
    g: float = 1.0

    def __post_init__(self):
        if self.g <= 0.0:
            raise ValueError("clip threshold g must be > 0")


class ScheduleKind(str, Enum):
    COSINE = "cosine"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ScheduleConfig:
    base_lr: float
    total_steps: int
    min_lr: float = 0.0
    kind: ScheduleKind = ScheduleKind.COSINE

    def __post_init__(self):
        if self.base_lr <= 0.0:
            raise ValueError("base_lr must be > 0")
        if self.min_lr < 0.0 or self.min_lr > self.base_lr:
            raise ValueError("min_lr must lie in [0, base_lr]")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def adamw_step(
    state: OptimizerState,
    params: np.ndarray,
    grads: np.ndarray,
    lr_t: float,
    cfg: OptimizerConfig,
    check_finite: bool = True,
) -> Tuple[np.ndarray, OptimizerState]:
    """One AdamW step; returns the delta, does not apply it.

    With check_finite=False a non-finite gradient propagates through the
    moments and delta (baseline arms emulate an ungoverned optimizer; the
    governed path skips before reaching here).
    """
    grads = np.asarray(grads, dtype=float)
    if check_finite and not np.isfinite(grads).all():
        raise NonFiniteGradientError("adamw_step on non-finite gradient")
    t = state.t + 1
    # The textbook expression
    #   -lr_t * (m_hat / (sqrt(v_hat) + eps) + weight_decay * params)
    # evaluated op by op in the same order, in fresh buffers updated in place
    # and one scratch buffer for the products added to them (bitwise equal,
    # fewer temporaries). Inputs are never written. The weight-decay pass
    # runs even at weight_decay 0, where it can turn a -0.0 delta into +0.0.
    scratch = np.multiply(1.0 - cfg.beta1, grads)
    m = cfg.beta1 * state.m
    m += scratch
    np.multiply(1.0 - cfg.beta2, grads, out=scratch)
    scratch *= grads
    v = cfg.beta2 * state.v
    v += scratch
    den = np.divide(v, 1.0 - cfg.beta2 ** t)
    np.sqrt(den, out=den)
    den += cfg.eps
    delta = m / (1.0 - cfg.beta1 ** t)
    delta /= den
    np.multiply(cfg.weight_decay, params, out=scratch)
    delta += scratch
    delta *= -lr_t
    return delta, OptimizerState(m=m, v=v, t=t)


def clip_global_norm(grads: np.ndarray, g: float) -> Tuple[np.ndarray, float]:
    """Rescale so the global L2 norm does not exceed g; direction preserved."""
    if g <= 0.0:
        raise ValueError("clip threshold g must be > 0")
    grads = np.asarray(grads, dtype=float)
    if not np.isfinite(grads).all():
        raise NonFiniteGradientError("clip_global_norm on non-finite gradient")
    pre_norm = float(np.linalg.norm(grads))
    if pre_norm <= g:
        return grads, pre_norm
    if math.isinf(pre_norm):
        # The sum of squares overflows: take the direction from a copy divided by max|g|.
        unit = grads / np.abs(grads).max()
        return unit * (g / float(np.linalg.norm(unit))), pre_norm
    return grads * (g / pre_norm), pre_norm


def schedule_lr(step: int, cfg: ScheduleConfig) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    if cfg.kind is ScheduleKind.CONSTANT:
        return cfg.base_lr
    if step > cfg.total_steps:
        return cfg.min_lr
    return cfg.min_lr + 0.5 * (cfg.base_lr - cfg.min_lr) * (
        1.0 + math.cos(math.pi * step / cfg.total_steps)
    )


def guarded_step(
    gov: Governor,
    opt_state: OptimizerState,
    params: np.ndarray,
    grads: np.ndarray,
    loss: float,
    step: int,
    lr_t: float,
    opt_cfg: OptimizerConfig,
    clip: Optional[ClipConfig] = None,
    grad_scale: float = 1.0,
) -> Tuple[np.ndarray, OptimizerState, StepRecord]:
    """Composed pipeline: clip, sense, classify, posture, actuate, log.

    A skipped step (non-finite loss or gradient under an enabled guard)
    leaves params and moments untouched, including the step counter t.
    With the guard disabled the arithmetic path is exactly plain AdamW.

    grad_scale models a gradient corruption entering the optimizer after
    the clipping stage (so magnitude clipping cannot remove it); the
    sensing stage still observes the corrupted gradient, and a burst that
    overflows it to non-finite skips the step.

    inputs_finite is the step's one finiteness verdict on the gradient: an
    enabled guard skips unless it holds, so adamw_step runs unchecked here
    (a disabled guard lets a non-finite gradient through, as plain AdamW).
    """
    grads = np.asarray(grads, dtype=float)
    inputs_finite = bool(math.isfinite(loss) and np.isfinite(grads).all())
    if clip is not None and inputs_finite:
        grads, _ = clip_global_norm(grads, clip.g)
    if grad_scale != 1.0:
        grads = grads * grad_scale
        inputs_finite = inputs_finite and bool(np.isfinite(grads).all())
    posture = gov.observe(step, loss, grads, lr_t, inputs_finite)
    if posture.skip_step:
        return params, opt_state, gov.log.records[-1]
    delta, new_state = adamw_step(opt_state, params, grads, lr_t, opt_cfg, check_finite=False)
    scaled = apply_posture(delta, posture, check_finite=gov.cfg.auto_enabled)
    return params + scaled, new_state, gov.log.records[-1]
