"""Independent oracles used by the test suite.

These are written deliberately in a different style from the library code
(pure-Python scalar loops, no numpy vectorization) so a shared bug is
unlikely to hide in both implementations.
"""

import functools
import json
import math
import operator

import numpy as np

from guardlab.governor import GuardConfig, Regime, TelemetryError
from guardlab.optim import ScheduleKind
from guardlab.rngstream import StreamState
from guardlab.tasks import sample_batch


def reference_adamw_trajectory(params0, grad_seq, lr_seq, beta1, beta2, eps, wd):
    """Plain AdamW with bias correction and decoupled weight decay.

    params0: list of floats; grad_seq: list of per-step gradient lists;
    lr_seq: list of per-step learning rates. Returns the list of parameter
    vectors after each step (as lists of floats).
    """
    n = len(params0)
    theta = [float(x) for x in params0]
    m = [0.0] * n
    v = [0.0] * n
    trajectory = []
    for t_index, (grads, lr) in enumerate(zip(grad_seq, lr_seq)):
        t = t_index + 1
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i in range(n):
            g = float(grads[i])
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            theta[i] = theta[i] - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta[i])
        trajectory.append(list(theta))
    return trajectory


def central_difference_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of a list of floats."""
    x = [float(v) for v in x]
    grad = []
    for i in range(len(x)):
        x_plus = list(x)
        x_minus = list(x)
        x_plus[i] += h
        x_minus[i] -= h
        grad.append((f(x_plus) - f(x_minus)) / (2.0 * h))
    return grad


def reference_bigram_ce_and_grad(logits, prev, nxt):
    """Mean cross-entropy and its gradient for one (A, A) logit matrix over the
    pairs (prev[i], nxt[i]), one pair at a time.

    Each pair takes a softmax over the logit row it reads, in the bigram
    kernel's operation order (shift by the row max, exp, sum, log of the sum,
    divide, subtract the one-hot target, divide by the batch size), and adds
    its row into the gradient with np.add.at, pair after pair. numpy does the
    per-entry arithmetic (its exp and pairwise sum are what the kernel must
    match bit for bit); only the batching differs. Returns (loss, grad[A*A]).
    """
    a = logits.shape[0]
    n = len(prev)
    terms = np.empty(n)
    grad = np.zeros((a, a))
    for i in range(n):
        row = logits[prev[i]]
        shifted = row - np.maximum.reduce(row)
        exp = np.exp(shifted)
        total = np.add.reduce(exp)
        terms[i] = shifted[nxt[i]] - np.log(total)
        probs = exp / total
        probs[nxt[i]] -= 1.0
        probs /= n
        np.add.at(grad, prev[i], probs)
    return -(np.add.reduce(terms) / n), grad.ravel()


# The governor's control transitions, restated from the README's loop:
# classify compares the loss (and, on probe steps, the gradient RMS) to its
# EMA; posture halves the scale on a spike, multiplies it by 0.9 on stress
# and releases it otherwise, clamped to [c_min, 1.0].
EMA_FLOOR = 1e-12  # an EMA is floored here before it divides


def reference_classify_regime(loss, grad_rms, loss_ema, rms_ema, initialized, cfg):
    """The regime of one step and the analyzer state after it, as
    (regime, (loss_ema, rms_ema, initialized)).

    The first finite loss starts both EMAs and is stable; a non-finite loss
    before that is a spike that changes nothing. After it, with
    r = loss / loss_ema and rho = grad_rms / rms_ema (each EMA floored at
    EMA_FLOOR): a non-finite loss or r >= spike_threshold is a spike;
    r >= stress_threshold, or rho >= stress_threshold when both RMS values
    are present, is stress; anything else is stable. Each EMA then absorbs
    its new value, decay * ema + (1 - decay) * value; a non-finite loss is
    left out, and a missing grad_rms leaves rms_ema as it was.
    """
    loss_is_finite = not (math.isnan(loss) or math.isinf(loss))
    if not initialized:
        if not loss_is_finite:
            return Regime.SPIKE, (loss_ema, rms_ema, initialized)
        return Regime.STABLE, (loss, grad_rms, True)

    regime = Regime.STABLE
    if loss_is_finite:
        r = loss / max(loss_ema, EMA_FLOOR)
        if r >= cfg.stress_threshold:
            regime = Regime.STRESS
        if r >= cfg.spike_threshold:
            regime = Regime.SPIKE
    else:
        regime = Regime.SPIKE
    if regime is Regime.STABLE and grad_rms is not None and rms_ema is not None:
        rho = grad_rms / max(rms_ema, EMA_FLOOR)
        if rho >= cfg.stress_threshold:
            regime = Regime.STRESS

    decay = cfg.ema_decay
    new_loss_ema = loss_ema
    if loss_is_finite:
        new_loss_ema = decay * loss_ema + (1.0 - decay) * loss
    new_rms_ema = rms_ema
    if grad_rms is not None:
        if rms_ema is None:
            new_rms_ema = grad_rms
        else:
            new_rms_ema = decay * rms_ema + (1.0 - decay) * grad_rms
    return regime, (new_loss_ema, new_rms_ema, True)


def reference_select_posture(regime, scale, cfg):
    """The next update scale: 1.0 for a disabled guard; otherwise scale
    halved on a spike or times 0.9 on stress, never below c_min, or scale
    times 1 + recovery_fast on a stable step, never above 1.0."""
    if not cfg.auto_enabled:
        return 1.0
    if regime is Regime.SPIKE:
        return max(cfg.c_min, scale * 0.5)
    if regime is Regime.STRESS:
        return max(cfg.c_min, scale * 0.9)
    return min(1.0, scale * (1.0 + cfg.recovery_fast))


def reference_summary(records):
    """A log's summary fields as a dict, each its own pass over the records:
    the step count, the records with a truthy active or skipped, the
    adjacent pairs whose regimes differ, the control energy over 1.0 per
    skipped record and (1.0 - scale) ** 2 per other one, and the first
    minimum scale (1.0 for an empty log).

    The energy's terms are added left to right from the int 0, which is what
    sum() does on Python 3.11 (3.12 and later compensate float sums), so an
    empty log's energy is the int 0."""
    return {
        "total_steps": len(records),
        "control_active_steps": sum(1 for r in records if r.active),
        "regime_switches": sum(
            1 for a, b in zip(records, records[1:]) if a.regime is not b.regime
        ),
        "control_energy": functools.reduce(
            operator.add, [1.0 if r.skipped else (1.0 - r.scale) ** 2 for r in records], 0
        ),
        "min_scale": min((r.scale for r in records), default=1.0),
        "skipped_steps": sum(1 for r in records if r.skipped),
    }


# A step is control-active when its scale is below 1 by more than this, or it is skipped.
ACTIVE_TOLERANCE = 1e-9


def _reference_loss_and_grad(task, theta, targets, prev=None):
    """(loss, grad list) of a bigram_lm or quadratic task at params theta.

    The bigram loss is reference_bigram_ce_and_grad over the pairs
    (prev, targets). The quadratic loss is 0.5 x'Hx - b'x + c with b the
    targets, its two dot products taken by np.dot as the library takes them;
    its gradient is h * x - b, entry by entry."""
    if task.kind == "bigram_lm":
        a = task.alphabet
        loss, grad = reference_bigram_ce_and_grad(np.array(theta).reshape(a, a), prev, targets)
        return float(loss), grad.tolist()
    b = targets.tolist()
    hx = [h * x for h, x in zip(task.h.tolist(), theta)]
    loss = 0.5 * float(np.dot(theta, hx)) - float(np.dot(b, theta)) + task.offset
    return loss, [v - bi for v, bi in zip(hx, b)]


def _reference_clip(grads, g):
    """grads rescaled to global norm g when their norm (np.vdot's sum of
    squares) exceeds it and every entry is finite; a sum of squares that
    overflows takes the direction from grads divided by their largest |entry|."""
    if not all(math.isfinite(x) for x in grads):
        return grads
    norm = math.sqrt(float(np.vdot(grads, grads)))
    if norm <= g:
        return grads
    if math.isinf(norm):
        biggest = max(abs(x) for x in grads)
        grads = [x / biggest for x in grads]
        norm = math.sqrt(float(np.dot(grads, grads)))
    return [x * (g / norm) for x in grads]


def reference_run(cfg):
    """A whole run of cfg (a bigram_lm or quadratic task), one scalar step at
    a time, as (params list, final eval loss, JSONL text).

    Each step, in order:
    - draw the batch with sample_batch at counter step of stream 0 of the
      run's seed, and take the loss and gradient;
    - clip to cfg.clip.g, only beside a finite loss; then burst: multiply
      the gradient by the injection's magnitude on every step > 0 that is a
      multiple of its period;
    - skip rule: an enabled guard skips the step unless the loss and the
      gradient's sum of squares are finite; a skipped step leaves params,
      moments and the AdamW counter t as they were;
    - one AdamW step per unskipped step, each entry as the one expression
      -lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta);
    - the governor: the gradient RMS on every stats_freq-th step (None when
      its sum of squares is not finite), reference_classify_regime, then
      reference_select_posture; an unskipped step's delta is scaled by the
      new scale, and an enabled guard rejects a delta with a non-finite
      entry: the run raises TelemetryError, as the README's actuation does;
    - one json.dumps line of the step's record.

    A run without a guard is governed by a disabled one with the default
    fields. The schedule is constant, or cosine from the base rate to its
    min_lr over cfg.steps.
    """
    task = cfg.task.build(cfg.seed)
    guard = cfg.guard if cfg.guard is not None else GuardConfig(auto_enabled=False)
    opt, spec = cfg.opt, cfg.injection
    theta = task.init_params().tolist()
    n = len(theta)
    m, v, t = [0.0] * n, [0.0] * n, 0
    loss_ema, rms_ema, initialized, scale = 0.0, None, False, 1.0
    lines = []
    for step in range(cfg.steps):
        batch, _ = sample_batch(task, StreamState(cfg.seed, 0, step), cfg.batch_size)
        loss, grads = _reference_loss_and_grad(task, theta, batch.targets, batch.inputs)
        if cfg.clip is not None and math.isfinite(loss):
            grads = _reference_clip(grads, cfg.clip.g)
        if spec is not None and step > 0 and step % spec.period == 0:
            grads = [x * spec.magnitude for x in grads]
        skipped = guard.auto_enabled and not (
            math.isfinite(loss) and math.isfinite(float(np.vdot(grads, grads))))
        if cfg.schedule.kind is ScheduleKind.CONSTANT:
            lr = opt.lr
        else:
            lr = cfg.schedule.min_lr + 0.5 * (opt.lr - cfg.schedule.min_lr) * (
                1.0 + math.cos(math.pi * step / cfg.steps))

        grad_rms = None
        if step % guard.stats_freq == 0:
            sumsq = float(np.add.reduce(np.array([x * x for x in grads])))
            if math.isfinite(sumsq):
                grad_rms = math.sqrt(sumsq / n)
        regime, (loss_ema, rms_ema, initialized) = reference_classify_regime(
            loss, grad_rms, loss_ema, rms_ema, initialized, guard)
        scale = reference_select_posture(regime, scale, guard)

        if not skipped:
            t += 1
            bc1 = 1.0 - opt.beta1 ** t
            bc2 = 1.0 - opt.beta2 ** t
            deltas = []
            for i in range(n):
                g = grads[i]
                m[i] = opt.beta1 * m[i] + (1.0 - opt.beta1) * g
                v[i] = opt.beta2 * v[i] + (1.0 - opt.beta2) * g * g
                deltas.append(-lr * (m[i] / bc1 / (math.sqrt(v[i] / bc2) + opt.eps)
                                     + opt.weight_decay * theta[i]))
            if guard.auto_enabled and not all(math.isfinite(d) for d in deltas):
                raise TelemetryError(f"step {step}: actuation on non-finite update")
            theta = [x + (d if scale == 1.0 else scale * d) for x, d in zip(theta, deltas)]
        lines.append(json.dumps({
            "step": step, "loss": loss, "loss_ema": loss_ema, "regime": regime.value,
            "scale": scale, "active": scale < 1.0 - ACTIVE_TOLERANCE or skipped,
            "skipped": skipped, "grad_rms": grad_rms, "lr": lr,
        }) + "\n")

    if task.kind == "bigram_lm":
        prev, nxt = task._eval_pairs
        final_loss, _ = _reference_loss_and_grad(task, theta, nxt, prev)
    else:
        final_loss, _ = _reference_loss_and_grad(task, theta, task.b)
    return theta, final_loss, "".join(lines)
