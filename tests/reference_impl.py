"""Independent oracles used by the test suite.

These are written deliberately in a different style from the library code
(pure-Python scalar loops, no numpy vectorization) so a shared bug is
unlikely to hide in both implementations.
"""

import functools
import math
import operator

import numpy as np

from guardlab.governor import Regime


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
