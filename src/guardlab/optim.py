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

from .governor import Governor, StepRecord, apply_posture


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        if not 0.0 < self.beta1 < 1.0:
            raise ValueError("beta1 must lie in (0, 1)")
        if not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta2 must lie in (0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be > 0 and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")


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
        if not 0.0 < self.g < math.inf:
            raise ValueError("clip threshold g must be > 0 and finite")


class ScheduleKind(str, Enum):
    COSINE = "cosine"
    CONSTANT = "constant"


# Bound once, as governor binds its regimes: an Enum class-attribute lookup
# costs ~0.1 us on Python 3.11, and every run and ladder step reads it.
_CONSTANT = ScheduleKind.CONSTANT


@dataclass(frozen=True)
class Schedule:
    """A run's rate schedule: cosine from its base rate down to min_lr over
    its steps, or constant at the base rate. The base rate and the steps are
    the run's own (OptimizerConfig.lr, RunConfig.steps)."""

    kind: ScheduleKind = ScheduleKind.COSINE
    min_lr: float = 0.0

    def __post_init__(self):
        # A plain "constant" would fail schedule_lr's identity test and run cosine.
        object.__setattr__(self, "kind", ScheduleKind(self.kind))
        if not 0.0 <= self.min_lr < math.inf:
            raise ValueError("min_lr must be >= 0 and finite")


def adamw_step(
    state: OptimizerState,
    params: np.ndarray,
    grads: np.ndarray,
    lr_t: float,
    cfg: OptimizerConfig,
) -> Tuple[np.ndarray, OptimizerState]:
    """One AdamW step; returns the delta, does not apply it.

    Plain AdamW, with no finiteness check: a non-finite gradient propagates
    through the moments and delta.
    """
    grads = np.asarray(grads, dtype=float)
    t = state.t + 1
    # The textbook expression
    #   -lr_t * (m_hat / (sqrt(v_hat) + eps) + weight_decay * params)
    # evaluated op by op in the same order, in fresh buffers updated in place
    # and one scratch buffer for the products added to them (bitwise equal,
    # fewer temporaries). Inputs are never written. The weight-decay pass is
    # skipped at weight_decay 0: there a zero entry of the delta may have the
    # other sign than the textbook's (it adds 0.0 * params, which turns a -0.0
    # into +0.0 beside a param >= +0.0), and params + delta is the same bits
    # for every finite param. Only a param already at +-inf differs: the
    # textbook's 0.0 * inf makes its delta NaN.
    # Each call takes the form measured cheapest for it: a fresh array with a
    # Python-float operand takes the operator (a product with the float on the
    # left: f * a costs 0.62 us where np.multiply(f, a) costs 0.90 us at n = 20);
    # an in-place update with a Python float goes through an explicit
    # out= call (the same operation as += or *=, without the operator's
    # dispatch overhead); an in-place update between arrays takes the operator.
    scratch = (1.0 - cfg.beta1) * grads
    m = cfg.beta1 * state.m
    m += scratch
    np.multiply(1.0 - cfg.beta2, grads, out=scratch)
    scratch *= grads
    v = cfg.beta2 * state.v
    v += scratch
    den = v / (1.0 - cfg.beta2 ** t)
    np.sqrt(den, out=den)
    np.add(den, cfg.eps, out=den)
    delta = m / (1.0 - cfg.beta1 ** t)
    delta /= den
    if cfg.weight_decay:
        np.multiply(cfg.weight_decay, params, out=scratch)
        delta += scratch
    np.multiply(delta, -lr_t, out=delta)
    return delta, OptimizerState(m, v, t)


def clip_global_norm(grads: np.ndarray, g: float) -> Tuple[np.ndarray, float]:
    """Rescale so the global L2 norm does not exceed g; direction preserved.

    Returns (grads, pre_norm), grads itself when the clip does not fire or
    an entry is NaN or infinite: a non-finite gradient passes through.
    """
    if not g > 0.0:
        raise ValueError("clip threshold g must be > 0")
    grads = np.asarray(grads, dtype=float)
    # np.linalg.norm's arithmetic (the same sum in memory order), by np.vdot,
    # which does not warn when the sum of squares overflows.
    flat = grads.ravel(order="K")
    pre_norm = math.sqrt(np.vdot(flat, flat))
    # A finite norm proves every entry finite: only a non-finite one pays for the entry scan.
    if pre_norm <= g or not (math.isfinite(pre_norm) or np.isfinite(grads).all()):
        return grads, pre_norm
    if math.isinf(pre_norm):
        # The sum of squares overflows: take the direction from a copy divided by max|g|.
        unit = grads / np.abs(grads).max()
        return unit * (g / float(np.linalg.norm(unit))), pre_norm
    return grads * (g / pre_norm), pre_norm


def schedule_lr(
    step: int, total_steps: int, schedule: Schedule, base_lr: float | np.ndarray
) -> float | np.ndarray:
    """The rate at step of a total_steps-long run at base_lr under schedule.

    An (L, 1) column of base rates goes through the same IEEE operations
    entry by entry, with the cosine factor evaluated once, so each entry is
    bitwise the float this returns for that base rate.
    """
    if step < 0:
        raise ValueError("step must be >= 0")
    if schedule.kind is _CONSTANT:
        return base_lr
    if step > total_steps:
        return schedule.min_lr
    return schedule.min_lr + 0.5 * (base_lr - schedule.min_lr) * (
        1.0 + math.cos(math.pi * step / total_steps)
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

    A skipped step leaves params and moments untouched, including the step
    counter t. With the guard disabled the arithmetic path is exactly plain
    AdamW.

    grad_scale models a gradient corruption entering the optimizer after
    the clipping stage (so magnitude clipping cannot remove it); the
    sensing stage still observes the corrupted gradient. The burst multiply
    does not warn when it overflows.

    inputs_finite is the step's one skip verdict, taken only for an enabled
    guard, which skips unless the loss and the np.vdot sum of squares of the
    gradient after the clip and burst are finite. A finite sum proves every
    entry finite; it also skips a finite gradient whose squares overflow
    (|g| above ~1.3e154), which would make AdamW's second moment inf and
    freeze its parameter for the rest of the run. A clip runs only beside a
    finite loss. A non-finite gradient stays non-finite through the clip
    and any burst, and adamw_step takes no verdict: a disabled guard adds
    its delta as plain AdamW does (an overflowing square freezes its
    parameter), and only an enabled guard's delta goes through
    apply_posture, which rejects it if non-finite.
    """
    grads = np.asarray(grads, dtype=float)
    enabled = gov.cfg.auto_enabled
    if clip is not None and math.isfinite(loss):
        grads, _ = clip_global_norm(grads, clip.g)
    if grad_scale != 1.0:
        with np.errstate(over="ignore"):
            grads = grads * grad_scale
    inputs_finite = not enabled or (math.isfinite(loss) and math.isfinite(np.vdot(grads, grads)))
    scale = gov.observe(step, loss, grads, lr_t, inputs_finite)
    if not inputs_finite:
        return params, opt_state, gov.log.records[-1]
    delta, new_state = adamw_step(opt_state, params, grads, lr_t, opt_cfg)
    if enabled:
        delta = apply_posture(delta, scale)
    return params + delta, new_state, gov.log.records[-1]
