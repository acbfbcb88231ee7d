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
_ACTIVE_BELOW = 1.0 - ACTIVE_SCALE_TOLERANCE

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


# The members as module names, bound once: on Python 3.11 a Regime.X read is an
# Enum class-attribute lookup of ~0.1 us, and classify_regime and
# select_posture would take up to three a step.
_STABLE, _STRESS, _SPIKE = Regime.STABLE, Regime.STRESS, Regime.SPIKE


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
# same cost: nothing writes a record after Governor.govern logs it. The per-step values are built positionally, in field order (for
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
    g = np.asarray(grads, dtype=float)
    n = g.size
    if n == 0:
        raise ValueError("probe_rms requires a nonempty gradient")
    # np.mean's pairwise sum and division, without its wrapper (np.vdot
    # rounds differently). The sum is also the finiteness check: a
    # non-finite entry or an overflow makes it non-finite.
    with np.errstate(over="ignore"):
        s = np.add.reduce(g * g)
    return math.sqrt(s / n) if math.isfinite(s) else None


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
    _, loss, grad_rms, _ = sample
    loss_ema, rms_ema, initialized = state
    finite = math.isfinite(loss)

    if not initialized:
        if not finite:
            return _SPIKE, state
        return _STABLE, AnalyzerState(loss, grad_rms, True)

    # Each EMA is floored as max(ema, _EMA_FLOOR) is, by one comparison
    # without the builtin's call: the EMA unless the floor exceeds it.
    r = loss / (_EMA_FLOOR if _EMA_FLOOR > loss_ema else loss_ema) if finite else math.inf
    rho = None
    if grad_rms is not None and rms_ema is not None:
        rho = grad_rms / (_EMA_FLOOR if _EMA_FLOOR > rms_ema else rms_ema)

    if not finite or r >= cfg.spike_threshold:
        regime = _SPIKE
    elif r >= cfg.stress_threshold or (rho is not None and rho >= cfg.stress_threshold):
        regime = _STRESS
    else:
        regime = _STABLE

    if finite:
        loss_ema = update_ema(loss_ema, loss, cfg.ema_decay)
    if grad_rms is not None:
        rms_ema = grad_rms if rms_ema is None else update_ema(rms_ema, grad_rms, cfg.ema_decay)
    return regime, AnalyzerState(loss_ema, rms_ema, True)


def select_posture(regime: Regime, scale: float, cfg: GuardConfig) -> float:
    """The next update scale from the current one: damp on spike/stress,
    release otherwise, within [c_min, C_MAX]; C_MAX for a disabled guard.

    Each clamp is max(c_min, scale) or min(C_MAX, scale) as one comparison,
    without the builtin's call (~0.1 us on Python 3.11), and with its tie rule: the bound wins a tie,
    so an int c_min comes back as the int."""
    if not cfg.auto_enabled:
        return C_MAX
    if regime is _SPIKE:
        scale *= SPIKE_DAMPING
    elif regime is _STRESS:
        scale *= STRESS_DAMPING
    else:
        scale *= 1.0 + cfg.recovery_fast
        return scale if scale < C_MAX else C_MAX
    c_min = cfg.c_min
    return scale if scale > c_min else c_min


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
    """The log's counts, regime switches, control energy and first minimum
    scale (1.0 for an empty log), in one pass.

    The energy is added left to right from the int 0, one term per record:
    1.0 for a skipped step, (1.0 - scale) ** 2 otherwise. That is what sum()
    does on Python 3.11, but sum() adds floats with Neumaier compensation on
    3.12 and later, which could change the last bits; this loop gives the
    same bits on every version. An empty log gives the int 0.
    """
    active = skipped = switches = 0
    energy = 0
    min_scale = records[0].scale if records else 1.0
    prev = records[0].regime if records else None
    for r in records:
        scale = r.scale
        if r.active:
            active += 1
        if r.skipped:
            skipped += 1
            energy += 1.0
        else:
            energy += (1.0 - scale) ** 2
        if scale < min_scale:
            min_scale = scale
        if r.regime is not prev:
            switches += 1
            prev = r.regime
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
        cfg = self.cfg
        step, loss, grad_rms, lr = sample
        regime, state = classify_regime(sample, self.state, cfg)
        self.state = state
        # A float for the log, also where a config built in code gives c_min as an int.
        self.scale = scale = float(select_posture(regime, self.scale, cfg))
        skipped = cfg.auto_enabled and not inputs_finite
        # step, loss, loss_ema, regime, scale, active, skipped, grad_rms, lr
        self.log.append(StepRecord(
            step, loss, state.loss_ema, regime, scale,
            scale < _ACTIVE_BELOW or skipped, skipped, grad_rms, lr,
        ))
        return scale
