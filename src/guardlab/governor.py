"""Bounded training-control governor.

The control loop is sense -> classify -> select posture -> actuate -> log.
Every transition is a pure function over explicit state values; the
``Governor`` class is a thin bundle of (config, analyzer state, posture, log)
for callers that want a stateful handle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import IO, List, Optional, Sequence

import numpy as np

# A step counts as control-active when scale < 1 - tolerance; strict
# inequality with a tolerance keeps floating noise out of the counter.
ACTIVE_SCALE_TOLERANCE = 1e-9

# Upper bound of the update scale: the governor only ever attenuates.
C_MAX = 1.0

# Multiplicative damping applied per classified step.
SPIKE_DAMPING = 0.5
STRESS_DAMPING = 0.9

_EMA_FLOOR = 1e-12


class TelemetryError(ValueError):
    """Telemetry input rejected (non-finite where finite is required)."""


class NonFiniteGradientError(TelemetryError):
    """A gradient entry is NaN or infinite."""


class Regime(str, Enum):
    STABLE = "stable"
    STRESS = "stress"
    SPIKE = "spike"
    RECOVERY = "recovery"


@dataclass(frozen=True)
class GuardConfig:
    """Public controller parameters plus the lower scale bound (the upper
    one is C_MAX)."""

    auto_enabled: bool = True
    stats_freq: int = 10
    stress_threshold: float = 1.25
    spike_threshold: float = 1.8
    recovery_fast: float = 0.005
    ema_decay: float = 0.98
    c_min: float = 0.05
    recovery_confirm: int = 3

    def __post_init__(self):
        if self.stats_freq < 1:
            raise ValueError("stats_freq must be >= 1")
        if not self.stress_threshold > 1.0:
            raise ValueError("stress_threshold must be > 1")
        if not self.spike_threshold > self.stress_threshold:
            raise ValueError("spike_threshold must be > stress_threshold")
        if self.recovery_fast < 0.0:
            raise ValueError("recovery_fast must be >= 0")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if not 0.0 < self.c_min <= C_MAX:
            raise ValueError("c_min must lie in (0, C_MAX]")
        if self.recovery_confirm < 1:
            raise ValueError("recovery_confirm must be >= 1")


@dataclass(frozen=True)
class TelemetrySample:
    """Per-step sensor output. grad_rms is present only on probe steps."""

    step: int
    loss: float
    grad_rms: Optional[float]
    lr: float


@dataclass(frozen=True)
class AnalyzerState:
    loss_ema: float = 0.0
    rms_ema: Optional[float] = None
    regime: Regime = Regime.STABLE
    improving_streak: int = 0
    initialized: bool = False


@dataclass(frozen=True)
class ControlPosture:
    scale: float = 1.0
    skip_step: bool = False


# The neutral posture: full scale, no skip. select_posture returns this one
# instance whenever the posture is neutral.
NEUTRAL_POSTURE = ControlPosture()


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One step of telemetry. Its fields, in declaration order, are the keys
    of a JSONL line."""

    step: int
    loss: float
    loss_ema: float
    regime: Regime
    scale: float
    active: bool
    skipped: bool
    grad_rms: Optional[float]
    lr: float


_RECORD_KEYS = tuple(f.name for f in fields(StepRecord))


@dataclass(frozen=True)
class TelemetrySummary:
    total_steps: int
    control_active_steps: int
    regime_switches: int
    control_energy: float
    min_scale: float
    skipped_steps: int


def update_ema(prev: float, value: float, decay: float) -> float:
    """decay * prev + (1 - decay) * value, finite inputs only."""
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    if not (math.isfinite(prev) and math.isfinite(value)):
        raise TelemetryError("update_ema requires finite inputs")
    return decay * prev + (1.0 - decay) * value


def gradient_rms(grads: np.ndarray) -> float:
    """Root mean square of a nonempty, finite gradient."""
    arr = np.asarray(grads, dtype=float)
    if arr.size == 0:
        raise ValueError("gradient_rms requires a nonempty gradient")
    if not np.isfinite(arr).all():
        raise NonFiniteGradientError("non-finite gradient")
    return float(np.sqrt(np.mean(arr * arr)))


def sense(
    step: int,
    loss: float,
    grads: Optional[np.ndarray],
    lr: float,
    cfg: GuardConfig,
) -> TelemetrySample:
    """Read-only probe: attaches grad_rms only on probe-cadence steps.

    A non-finite loss passes through untouched; a non-finite gradient on a
    probe step, or a finite one whose mean square overflows, yields
    grad_rms=None (the probe is unusable, skip semantics are decided
    downstream).
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    grad_rms = probe_rms(grads) if grads is not None and step % cfg.stats_freq == 0 else None
    return TelemetrySample(step=step, loss=float(loss), grad_rms=grad_rms, lr=float(lr))


def probe_rms(grads: np.ndarray) -> Optional[float]:
    """What sense takes of a probe step's gradient: its gradient_rms, or
    None when an entry is non-finite or the mean square overflows."""
    try:
        rms = gradient_rms(grads)
    except NonFiniteGradientError:
        return None
    return rms if math.isfinite(rms) else None


def classify_regime(
    sample: TelemetrySample,
    state: AnalyzerState,
    cfg: GuardConfig,
    current_scale: float = 1.0,
) -> tuple:
    """Assign an operating regime and advance the analyzer state.

    Ratio triggers: r = loss / loss_ema (spike/stress), rho = grad_rms /
    rms_ema (stress, probe steps only). Recovery requires
    ``recovery_confirm`` consecutive improving observations (r <= 1) and
    holds while the scale has not yet been released back to C_MAX; once the
    bound is reached the regime returns to Stable. Non-finite losses are
    classified Spike and never enter the EMA.
    """
    loss = sample.loss
    finite = math.isfinite(loss)

    if not state.initialized:
        if not finite:
            return Regime.SPIKE, replace(state, regime=Regime.SPIKE, improving_streak=0)
        new = AnalyzerState(
            loss_ema=loss,
            rms_ema=sample.grad_rms,
            regime=Regime.STABLE,
            improving_streak=0,
            initialized=True,
        )
        return Regime.STABLE, new

    r = loss / max(state.loss_ema, _EMA_FLOOR) if finite else math.inf
    rho = None
    if sample.grad_rms is not None and state.rms_ema is not None:
        rho = sample.grad_rms / max(state.rms_ema, _EMA_FLOOR)

    if not finite or r >= cfg.spike_threshold:
        regime = Regime.SPIKE
        streak = 0
    elif r >= cfg.stress_threshold or (rho is not None and rho >= cfg.stress_threshold):
        regime = Regime.STRESS
        streak = 0
    else:
        streak = state.improving_streak + 1 if r <= 1.0 else 0
        released = current_scale >= C_MAX - ACTIVE_SCALE_TOLERANCE
        if not released and (streak >= cfg.recovery_confirm or state.regime is Regime.RECOVERY):
            regime = Regime.RECOVERY
        else:
            regime = Regime.STABLE

    loss_ema = update_ema(state.loss_ema, loss, cfg.ema_decay) if finite else state.loss_ema
    rms_ema = state.rms_ema
    if sample.grad_rms is not None:
        rms_ema = (
            sample.grad_rms
            if rms_ema is None
            else update_ema(rms_ema, sample.grad_rms, cfg.ema_decay)
        )
    new = AnalyzerState(
        loss_ema=loss_ema,
        rms_ema=rms_ema,
        regime=regime,
        improving_streak=streak,
        initialized=True,
    )
    return regime, new


def select_posture(
    regime: Regime,
    current: ControlPosture,
    cfg: GuardConfig,
    loss_finite: bool,
) -> ControlPosture:
    """Bounded scale transition: damp on spike/stress, release otherwise.

    A neutral posture (scale C_MAX, no skip) is always NEUTRAL_POSTURE."""
    if not cfg.auto_enabled:
        return NEUTRAL_POSTURE
    if regime is Regime.SPIKE:
        scale = max(cfg.c_min, current.scale * SPIKE_DAMPING)
    elif regime is Regime.STRESS:
        scale = max(cfg.c_min, current.scale * STRESS_DAMPING)
    else:
        scale = min(C_MAX, current.scale * (1.0 + cfg.recovery_fast))
    if scale == C_MAX and loss_finite:
        return NEUTRAL_POSTURE
    return ControlPosture(scale=scale, skip_step=not loss_finite)


def apply_posture(
    update_delta: np.ndarray,
    posture: ControlPosture,
    check_finite: bool = True,
) -> np.ndarray:
    """Scale the update elementwise; a skipped step becomes the zero delta.

    At scale C_MAX the checked delta itself is returned: 1.0 * x is x bit
    for bit."""
    delta = np.asarray(update_delta, dtype=float)
    if posture.skip_step:
        return np.zeros_like(delta)
    if check_finite and not np.isfinite(delta).all():
        raise TelemetryError("actuation on non-finite update")
    if posture.scale == C_MAX:
        return delta
    return posture.scale * delta


def record_from_json_dict(d: dict) -> StepRecord:
    """The StepRecord of one JSONL line; a missing or unknown key is a TypeError."""
    return replace(StepRecord(**d), regime=Regime(d["regime"]))


@dataclass
class StepLog:
    """Ordered sink of step records with strictly increasing step numbers."""

    records: List[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord) -> None:
        if self.records and rec.step <= self.records[-1].step:
            raise ValueError(
                f"out-of-order step {rec.step} after {self.records[-1].step}"
            )
        self.records.append(rec)

    def write_jsonl(self, fh: IO[str]) -> None:
        # A Regime, being a str, is written as its value.
        for rec in self.records:
            fh.write(json.dumps({key: getattr(rec, key) for key in _RECORD_KEYS}))
            fh.write("\n")


def summarize_records(records: Sequence[StepRecord]) -> TelemetrySummary:
    active = sum(1 for r in records if r.active)
    skipped = sum(1 for r in records if r.skipped)
    switches = sum(
        1 for a, b in zip(records, records[1:]) if a.regime is not b.regime
    )
    energy = sum(
        1.0 if r.skipped else (1.0 - r.scale) ** 2 for r in records
    )
    min_scale = min((r.scale for r in records), default=1.0)
    return TelemetrySummary(
        total_steps=len(records),
        control_active_steps=active,
        regime_switches=switches,
        control_energy=energy,
        min_scale=min_scale,
        skipped_steps=skipped,
    )


class Governor:
    """Stateful handle bundling analyzer state, posture, and the step log."""

    def __init__(self, cfg: GuardConfig):
        self.cfg = cfg
        self.state = AnalyzerState()
        self.posture = NEUTRAL_POSTURE
        self.log = StepLog()

    def observe(
        self,
        step: int,
        loss: float,
        grads: Optional[np.ndarray],
        lr: float,
        inputs_finite: bool,
    ) -> ControlPosture:
        """One governance pass: sense, classify, and select the posture."""
        return self.govern(sense(step, loss, grads, lr, self.cfg), inputs_finite)

    def govern(self, sample: TelemetrySample, inputs_finite: bool) -> ControlPosture:
        """observe's passes after sense: classify the sample, select the
        posture and log the step."""
        regime, self.state = classify_regime(
            sample, self.state, self.cfg, current_scale=self.posture.scale
        )
        self.posture = posture = select_posture(regime, self.posture, self.cfg, inputs_finite)
        self.log.append(StepRecord(
            step=sample.step,
            loss=sample.loss,
            loss_ema=self.state.loss_ema,
            regime=regime,
            scale=float(posture.scale),
            active=posture.scale < 1.0 - ACTIVE_SCALE_TOLERANCE or posture.skip_step,
            skipped=posture.skip_step,
            grad_rms=sample.grad_rms,
            lr=sample.lr,
        ))
        return posture
