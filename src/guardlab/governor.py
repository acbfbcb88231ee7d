"""Bounded training-control governor.

The control loop is sense -> classify -> select posture -> actuate -> log.
Every transition is a pure function over explicit state values; the
``Governor`` class is a thin bundle of (config, analyzer state, scale, log)
for callers that want a stateful handle. The posture is the update scale
alone; optim.guarded_step decides a step's skip.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import IO, List, NamedTuple, Optional, Sequence

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


class Regime(str, Enum):
    STABLE = "stable"
    STRESS = "stress"
    SPIKE = "spike"


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

    def __post_init__(self):
        if not self.stats_freq >= 1:
            raise ValueError("stats_freq must be >= 1")
        if not self.stress_threshold > 1.0:
            raise ValueError("stress_threshold must be > 1")
        if not self.stress_threshold < self.spike_threshold < math.inf:
            raise ValueError("spike_threshold must be > stress_threshold and finite")
        if not 0.0 <= self.recovery_fast < math.inf:
            raise ValueError("recovery_fast must be >= 0 and finite")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if not 0.0 < self.c_min <= C_MAX:
            raise ValueError("c_min must lie in (0, C_MAX]")


# The values a step passes between the governor's functions are NamedTuples,
# not frozen dataclasses: a frozen dataclass's __init__ pays one
# object.__setattr__ per field, and every step builds a sample and an analyzer
# state. StepRecord, the logged value, stays a slotted dataclass (its fields
# are the JSONL schema, and replace/asdict read it) but is not frozen, for the
# same cost. The per-step values are built positionally, in field order (for
# StepRecord, the JSONL key order): keyword arguments cost a lookup each.
class TelemetrySample(NamedTuple):
    """Per-step sensor output. grad_rms is present only on probe steps."""

    step: int
    loss: float
    grad_rms: Optional[float]
    lr: float


class AnalyzerState(NamedTuple):
    loss_ema: float = 0.0
    rms_ema: Optional[float] = None
    initialized: bool = False


@dataclass(slots=True)
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
_record_values = operator.attrgetter(*_RECORD_KEYS)

_REGIME_JSON = {r: json.dumps(r) for r in Regime}


def _jsonl_line(rec: StepRecord) -> str:
    """json.dumps of rec's fields as a dict, plus a newline.

    When every value has its field's exact type, the line is one f-string:
    repr of an int or a float is the text json.dumps writes for it. A value
    of any other type (an np.float64, say) or a non-finite float, which repr
    spells nan or inf (text no other token of a line contains), sends the
    line to json.dumps.
    """
    values = _record_values(rec)
    step, loss, loss_ema, regime, scale, active, skipped, grad_rms, lr = values
    if (type(step) is int and type(loss) is type(loss_ema) is type(scale) is type(lr) is float
            and type(regime) is Regime and type(active) is type(skipped) is bool
            and (grad_rms is None or type(grad_rms) is float)):
        line = (f'{{"step": {step!r}, "loss": {loss!r}, "loss_ema": {loss_ema!r}, '
                f'"regime": {_REGIME_JSON[regime]}, "scale": {scale!r}, '
                f'"active": {"true" if active else "false"}, '
                f'"skipped": {"true" if skipped else "false"}, '
                f'"grad_rms": {"null" if grad_rms is None else repr(grad_rms)}, "lr": {lr!r}}}\n')
        if "inf" not in line and "nan" not in line:
            return line
    return json.dumps(dict(zip(_RECORD_KEYS, values))) + "\n"


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


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite, as bool(np.isfinite(x).all()).

    A finite sum of squares proves every entry finite, so only a NaN or
    infinite sum (a non-finite entry, or finite squares whose sum overflows)
    pays for the entry scan. np.vdot does not warn when that sum overflows;
    ndarray.dot, np.dot, np.inner and @ do. guarded_step's skip verdict is
    the stricter test, the finite sum alone."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def probe_rms(grads: np.ndarray) -> Optional[float]:
    """What sense takes of a probe step's gradient: the root mean square of
    a nonempty gradient, or None when an entry is non-finite or the mean
    square overflows."""
    return probe_rms_rows(np.asarray(grads, dtype=float).reshape(1, -1))[0]


def probe_rms_rows(rows: np.ndarray) -> List[Optional[float]]:
    """probe_rms of each row of an (L, n) stack of gradients, as a float or None."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    if n == 0:
        raise ValueError("probe_rms requires a nonempty gradient")
    # np.mean's sum and division, without its wrapper: a reduce over the
    # contiguous axis is each row's own pairwise sum. It is also the
    # finiteness check: a non-finite entry or an overflow makes it non-finite.
    with np.errstate(over="ignore"):
        sumsq = np.add.reduce(rows * rows, axis=1)
    return [math.sqrt(s / n) if math.isfinite(s) else None for s in sumsq.tolist()]


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
    return TelemetrySample(step, float(loss), grad_rms, float(lr))


def classify_regime(
    sample: TelemetrySample,
    state: AnalyzerState,
    cfg: GuardConfig,
) -> tuple:
    """Assign an operating regime and advance the analyzer state.

    Spike when r = loss / loss_ema reaches spike_threshold or the loss is
    non-finite; stress when r, or rho = grad_rms / rms_ema (probe steps
    only), reaches stress_threshold; stable otherwise. Non-finite losses
    never enter the EMA.
    """
    loss = sample.loss
    finite = math.isfinite(loss)

    if not state.initialized:
        if not finite:
            return Regime.SPIKE, state
        return Regime.STABLE, AnalyzerState(loss, sample.grad_rms, True)

    r = loss / max(state.loss_ema, _EMA_FLOOR) if finite else math.inf
    rho = None
    if sample.grad_rms is not None and state.rms_ema is not None:
        rho = sample.grad_rms / max(state.rms_ema, _EMA_FLOOR)

    if not finite or r >= cfg.spike_threshold:
        regime = Regime.SPIKE
    elif r >= cfg.stress_threshold or (rho is not None and rho >= cfg.stress_threshold):
        regime = Regime.STRESS
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
    return regime, AnalyzerState(loss_ema, rms_ema, True)


def select_posture(regime: Regime, scale: float, cfg: GuardConfig) -> float:
    """The next update scale from the current one: damp on spike/stress,
    release otherwise, within [c_min, C_MAX]; C_MAX for a disabled guard."""
    if not cfg.auto_enabled:
        return C_MAX
    if regime is Regime.SPIKE:
        return max(cfg.c_min, scale * SPIKE_DAMPING)
    if regime is Regime.STRESS:
        return max(cfg.c_min, scale * STRESS_DAMPING)
    return min(C_MAX, scale * (1.0 + cfg.recovery_fast))


def apply_posture(update_delta: np.ndarray, scale: float) -> np.ndarray:
    """Scale the update elementwise.

    A non-finite delta is rejected, by all_finite: one np.vdot sum of
    squares, with the entry scan only when that sum is not finite. At scale
    C_MAX the checked delta itself is returned: 1.0 * x is x bit for bit."""
    delta = np.asarray(update_delta, dtype=float)
    if not all_finite(delta):
        raise TelemetryError("actuation on non-finite update")
    if scale == C_MAX:
        return delta
    return scale * delta


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
        # Line by line, so the log is never one string; a Regime, being a
        # str, is written as its value.
        fh.writelines(map(_jsonl_line, self.records))


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
    """Stateful handle bundling analyzer state, update scale, and the step log."""

    def __init__(self, cfg: GuardConfig):
        self.cfg = cfg
        self.state = AnalyzerState()
        self.scale = C_MAX
        self.log = StepLog()

    def observe(
        self,
        step: int,
        loss: float,
        grads: Optional[np.ndarray],
        lr: float,
        inputs_finite: bool,
    ) -> float:
        """One governance pass: sense, classify, and select the scale."""
        return self.govern(sense(step, loss, grads, lr, self.cfg), inputs_finite)

    def govern(self, sample: TelemetrySample, inputs_finite: bool) -> float:
        """observe's passes after sense: classify the sample, select the
        scale and log the step, which an enabled guard skips unless
        inputs_finite (guarded_step's verdict)."""
        regime, self.state = classify_regime(sample, self.state, self.cfg)
        # A float for the log, also where a config built in code gives c_min as an int.
        self.scale = scale = float(select_posture(regime, self.scale, self.cfg))
        skipped = self.cfg.auto_enabled and not inputs_finite
        # step, loss, loss_ema, regime, scale, active, skipped, grad_rms, lr
        self.log.append(StepRecord(
            sample.step, sample.loss, self.state.loss_ema, regime, scale,
            scale < 1.0 - ACTIVE_SCALE_TOLERANCE or skipped, skipped, sample.grad_rms, sample.lr,
        ))
        return scale
