"""Outside-in spans around guardlab's layers.

The program carries no tracing code. ``Tracer`` installs wrappers on the
public functions of each guardlab module (every module-level name bound to
the function is patched, so callers that imported it by name are covered)
and on Task/Governor/StepLog methods at class level, including every Task
subclass that defines the method. A wrapped name that no longer exists is
recorded as absent, and the metrics that need it report ``absent``.

Spans are aggregated per name as (calls, total, child) so memory and
overhead stay bounded per step; self time is total - child, where child is
the time covered by spans opened directly inside.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CALIBRATE = "harness.calibrate_divergence_lr"

# (span name, module, class or None, attribute)
SPANS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("cli.main", "guardlab.cli", None, "main"),
    ("config.parse_config", "guardlab.config", None, "parse_config"),
    ("config.expand_scenarios", "guardlab.config", None, "expand_scenarios"),
    ("config.resolve_lr", "guardlab.config", None, "resolve_lr"),
    ("harness.run_suite", "guardlab.harness", None, "run_suite"),
    ("harness.run_training", "guardlab.harness", None, "run_training"),
    (CALIBRATE, "guardlab.harness", None, "calibrate_divergence_lr"),
    ("harness.write_run_artifacts", "guardlab.harness", None, "write_run_artifacts"),
    ("tasks.build", "guardlab.tasks", None, "make_task"),
    ("tasks.sample_batch", "guardlab.tasks", None, "sample_batch"),
    ("tasks.loss_and_grad", "guardlab.tasks", "Task", "loss_and_grad"),
    ("tasks.eval_loss", "guardlab.tasks", "Task", "eval_loss"),
    ("tasks.draw_batch", "guardlab.tasks", "Task", "draw_batch"),
    ("rngstream.generator", "guardlab.rngstream", None, "generator"),
    ("optim.guarded_step", "guardlab.optim", None, "guarded_step"),
    ("optim.adamw_step", "guardlab.optim", None, "adamw_step"),
    ("optim.clip_global_norm", "guardlab.optim", None, "clip_global_norm"),
    ("governor.observe", "guardlab.governor", "Governor", "observe"),
    ("governor.apply_posture", "guardlab.governor", None, "apply_posture"),
    ("governor.write_jsonl", "guardlab.governor", "StepLog", "write_jsonl"),
    ("report.write_suite_csv", "guardlab.report", None, "write_suite_csv"),
    ("report.render_report_from_csv", "guardlab.report", None, "render_report_from_csv"),
)


class Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Aggregated spans and counters; install with ``with tracer:``."""

    def __init__(self, spans: Sequence[Tuple[str, str, Optional[str], str]] = SPANS):
        self.spans = tuple(spans)
        self.stats: Dict[str, Stat] = {name: Stat() for name, *_ in self.spans}
        self.counts: Dict[str, float] = defaultdict(float)
        self.absent: set = set()
        self.units = 0
        self._stack: List[list] = []  # frames: [child seconds, span name]
        self._patches: List[Tuple[object, str, object]] = []
        self._build_keys: set = set()
        self._after: Dict[str, Callable] = {
            "harness.run_training": self._after_run_training,
            "harness.run_suite": self._after_run_suite,
            "tasks.build": self._after_build,
            "governor.write_jsonl": self._after_write_jsonl,
        }
        self._before: Dict[str, Callable] = {
            "governor.write_jsonl": lambda args, kwargs: _tell(args[1]) if len(args) > 1 else None,
        }

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "guardlab" or name.startswith("guardlab."))
        ]
        for name, module_name, cls_name, attr in self.spans:
            try:
                module = importlib.import_module(module_name)
                if cls_name is None:
                    self._patch_function(name, getattr(module, attr), modules)
                else:
                    self._patch_method(name, getattr(module, cls_name), attr)
            except (ImportError, AttributeError):
                self.absent.add(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _patch_function(self, name: str, fn, modules) -> None:
        wrapper = self._wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, key, fn))
                    setattr(module, key, wrapper)

    def _patch_method(self, name: str, base: type, attr: str) -> None:
        owners = [c for c in _subclasses(base) if attr in vars(c)]
        if not owners:
            raise AttributeError(attr)
        for owner in owners:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.child += frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result, dt, pre)
            return result

        return wrapper

    # -- counters at layer boundaries -------------------------------------
    def _in_calibration(self) -> bool:
        return any(frame[1] == CALIBRATE for frame in self._stack)

    def _after_run_training(self, args, kwargs, result, dt, pre) -> None:
        c = self.counts
        steps = len(result.log.records)
        c["run_training.steps"] += steps
        cfg = args[0] if args else kwargs["cfg"]
        if cfg.guard_or_disabled().auto_enabled:
            c["governor.governed_steps"] += steps
            c["governor.active_steps"] += result.summary.control_active_steps
            c["governor.skipped_steps"] += result.summary.skipped_steps
        if self._in_calibration():
            c["calibrate.probes"] += 1
            c["calibrate.probe_steps"] += steps
            verdict_at = next(
                (s for s, loss, _ in result.eval_trace if not math.isfinite(loss)), None
            )
            if verdict_at is not None:
                c["calibrate.post_verdict_steps"] += max(0, steps - verdict_at)

    def _after_run_suite(self, args, kwargs, result, dt, pre) -> None:
        pairs = args[0] if args else kwargs["pairs"]
        self.counts["run_suite.pairs"] += len(pairs)
        self.counts["run_suite.errors"] += sum(1 for r in result if r.error is not None)

    def _after_build(self, args, kwargs, result, dt, pre) -> None:
        kind = args[0] if args else kwargs.get("kind")
        dims = args[1] if len(args) > 1 else kwargs.get("dims")
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        self._build_keys.add(repr((kind, sorted((dims or {}).items()), seed)))
        if self._in_calibration():
            self.counts["tasks.build_in_calibration_s"] += dt

    def _after_write_jsonl(self, args, kwargs, result, dt, pre) -> None:
        end = _tell(args[1]) if len(args) > 1 else None
        if pre is not None and end is not None:
            self.counts["write_jsonl.bytes"] += end - pre

    # -- units --------------------------------------------------------------
    def end_unit(self) -> None:
        """Close one traced repetition of the workload's fixed work."""
        self.units += 1
        self.counts["tasks.distinct_builds"] += len(self._build_keys)
        self._build_keys.clear()


def _tell(fh) -> Optional[int]:
    try:
        return fh.tell()
    except (AttributeError, OSError, ValueError):
        return None


# -- per-layer metrics ---------------------------------------------------------

def _per_call_us(t: Tracer, name: str) -> float:
    s = t.stats[name]
    return 1e6 * s.total / s.calls if s.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_STEP = ("harness.run_training", "tasks.build", "tasks.eval_loss", "harness.write_run_artifacts")


def _step_seconds(t: Tracer) -> float:
    """run_training time spent in the step loop: minus task build, eval and artefact writes."""
    run, *excluded = (t.stats[name].total for name in _STEP)
    return run - sum(excluded)


# (name, unit, better, spans it needs, value from (tracer, per-unit divisor, context))
_METRICS: Tuple[Tuple[str, str, str, Tuple[str, ...], Callable], ...] = (
    ("config.parse_config.s", "s", "lower", ("config.parse_config",),
     lambda t, n, x: t.stats["config.parse_config"].total / n),
    ("config.expand_scenarios.s", "s", "lower", ("config.expand_scenarios",),
     lambda t, n, x: t.stats["config.expand_scenarios"].total / n),
    ("config.resolve_lr.calls", "count", "lower", ("config.resolve_lr",),
     lambda t, n, x: t.stats["config.resolve_lr"].calls / n),
    ("harness.calibrate_divergence_lr.s", "s", "lower", (CALIBRATE,),
     lambda t, n, x: t.stats[CALIBRATE].total / n),
    ("harness.calibrate_divergence_lr.calls", "count", "lower", (CALIBRATE,),
     lambda t, n, x: t.stats[CALIBRATE].calls / n),
    ("harness.calibrate.probes", "count", "lower", (CALIBRATE, "harness.run_training"),
     lambda t, n, x: t.counts["calibrate.probes"] / n),
    ("harness.calibrate.probe_steps", "count", "lower", (CALIBRATE, "harness.run_training"),
     lambda t, n, x: t.counts["calibrate.probe_steps"] / n),
    ("harness.calibrate.post_verdict_step_frac", "ratio", "lower",
     (CALIBRATE, "harness.run_training"),
     lambda t, n, x: _ratio(t.counts["calibrate.post_verdict_steps"],
                            t.counts["calibrate.probe_steps"])),
    ("harness.run_suite.s", "s", "lower", ("harness.run_suite",),
     lambda t, n, x: t.stats["harness.run_suite"].total / n),
    ("harness.run_suite.pairs", "count", "higher", ("harness.run_suite",),
     lambda t, n, x: t.counts["run_suite.pairs"] / n),
    ("harness.run_suite.errors", "count", "lower", ("harness.run_suite",),
     lambda t, n, x: t.counts["run_suite.errors"] / n),
    ("harness.run_training.calls", "count", "lower", ("harness.run_training",),
     lambda t, n, x: t.stats["harness.run_training"].calls / n),
    ("harness.run_training.self_s", "s", "lower", ("harness.run_training",),
     lambda t, n, x: (t.stats["harness.run_training"].total
                      - t.stats["harness.run_training"].child) / n),
    ("harness.run_training.steps", "count", "lower", ("harness.run_training",),
     lambda t, n, x: t.counts["run_training.steps"] / n),
    ("harness.write_run_artifacts.s", "s", "lower", ("harness.write_run_artifacts",),
     lambda t, n, x: t.stats["harness.write_run_artifacts"].total / n),
    ("governor.write_jsonl.bytes", "bytes", "lower", ("governor.write_jsonl",),
     lambda t, n, x: t.counts["write_jsonl.bytes"] / n),
    ("tasks.build.calls", "count", "lower", ("tasks.build",),
     lambda t, n, x: t.stats["tasks.build"].calls / n),
    ("tasks.build.s", "s", "lower", ("tasks.build",),
     lambda t, n, x: t.stats["tasks.build"].total / n),
    ("tasks.build.distinct_ratio", "ratio", "higher", ("tasks.build",),
     lambda t, n, x: _ratio(t.counts["tasks.distinct_builds"], t.stats["tasks.build"].calls)),
    ("tasks.loss_and_grad.us", "us", "lower", ("tasks.loss_and_grad",),
     lambda t, n, x: _per_call_us(t, "tasks.loss_and_grad")),
    ("tasks.loss_and_grad.calls", "count", "lower", ("tasks.loss_and_grad",),
     lambda t, n, x: t.stats["tasks.loss_and_grad"].calls / n),
    ("tasks.eval_loss.us", "us", "lower", ("tasks.eval_loss",),
     lambda t, n, x: _per_call_us(t, "tasks.eval_loss")),
    ("tasks.eval_loss.calls", "count", "lower", ("tasks.eval_loss",),
     lambda t, n, x: t.stats["tasks.eval_loss"].calls / n),
    ("tasks.sample_batch.us", "us", "lower", ("tasks.sample_batch",),
     lambda t, n, x: _per_call_us(t, "tasks.sample_batch")),
    ("tasks.draw_batch.us", "us", "lower", ("tasks.draw_batch",),
     lambda t, n, x: _per_call_us(t, "tasks.draw_batch")),
    ("rngstream.generator.us", "us", "lower", ("rngstream.generator",),
     lambda t, n, x: _per_call_us(t, "rngstream.generator")),
    ("rngstream.generator.calls_per_step", "ratio", "lower",
     ("rngstream.generator", "harness.run_training"),
     lambda t, n, x: _ratio(t.stats["rngstream.generator"].calls,
                            t.counts["run_training.steps"])),
    ("optim.guarded_step.self_us", "us", "lower", ("optim.guarded_step",),
     lambda t, n, x: _ratio(1e6 * (t.stats["optim.guarded_step"].total
                                   - t.stats["optim.guarded_step"].child),
                            t.stats["optim.guarded_step"].calls)),
    ("optim.adamw_step.us", "us", "lower", ("optim.adamw_step",),
     lambda t, n, x: _per_call_us(t, "optim.adamw_step")),
    ("optim.clip_global_norm.us", "us", "lower", ("optim.clip_global_norm",),
     lambda t, n, x: _per_call_us(t, "optim.clip_global_norm")),
    ("optim.clip_global_norm.calls", "count", "lower", ("optim.clip_global_norm",),
     lambda t, n, x: t.stats["optim.clip_global_norm"].calls / n),
    ("governor.observe.us", "us", "lower", ("governor.observe",),
     lambda t, n, x: _per_call_us(t, "governor.observe")),
    ("governor.apply_posture.us", "us", "lower", ("governor.apply_posture",),
     lambda t, n, x: _per_call_us(t, "governor.apply_posture")),
    ("governor.active_frac", "ratio", "lower", ("harness.run_training",),
     lambda t, n, x: _ratio(t.counts["governor.active_steps"],
                            t.counts["governor.governed_steps"])),
    ("governor.skipped_frac", "ratio", "lower", ("harness.run_training",),
     lambda t, n, x: _ratio(t.counts["governor.skipped_steps"],
                            t.counts["governor.governed_steps"])),
    ("report.write_suite_csv.s", "s", "lower", ("report.write_suite_csv",),
     lambda t, n, x: t.stats["report.write_suite_csv"].total / n),
    ("report.render_report_from_csv.s", "s", "lower", ("report.render_report_from_csv",),
     lambda t, n, x: t.stats["report.render_report_from_csv"].total / n),
    ("cli.main.s", "s", "lower", ("cli.main",),
     lambda t, n, x: t.stats["cli.main"].total / n),
    ("trace.overhead_frac", "ratio", "lower", (),
     lambda t, n, x: x["traced_wall_s"] / x["untraced_wall_s"] - 1.0),
    # Shares for sizing later claims: calibration of `guardlab suite`, task
    # build of calibration, and each stage of the step loop.
    ("share.calibrate_of_wall", "ratio", "lower", (CALIBRATE, "cli.main"),
     lambda t, n, x: _ratio(t.stats[CALIBRATE].total, t.stats["cli.main"].total)),
    ("share.task_build_of_calibrate", "ratio", "lower", (CALIBRATE, "tasks.build"),
     lambda t, n, x: _ratio(t.counts["tasks.build_in_calibration_s"],
                            t.stats[CALIBRATE].total)),
    ("share.loss_and_grad_of_step", "ratio", "lower", ("tasks.loss_and_grad",) + _STEP,
     lambda t, n, x: _ratio(t.stats["tasks.loss_and_grad"].total, _step_seconds(t))),
    ("share.governor_of_step", "ratio", "lower",
     ("governor.observe", "governor.apply_posture") + _STEP,
     lambda t, n, x: _ratio(t.stats["governor.observe"].total
                            + t.stats["governor.apply_posture"].total, _step_seconds(t))),
    ("share.adamw_of_step", "ratio", "lower", ("optim.adamw_step",) + _STEP,
     lambda t, n, x: _ratio(t.stats["optim.adamw_step"].total, _step_seconds(t))),
    ("share.generator_of_step", "ratio", "lower", ("rngstream.generator",) + _STEP,
     lambda t, n, x: _ratio(t.stats["rngstream.generator"].total, _step_seconds(t))),
)

METRIC_SPECS: Tuple[Tuple[str, str, str], ...] = tuple((m[0], m[1], m[2]) for m in _METRICS)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, dict]:
    """Every per-layer metric, per traced unit where it is a total."""
    n = max(tracer.units, 1)
    context = {"traced_wall_s": traced_wall_s, "untraced_wall_s": untraced_wall_s}
    out: Dict[str, dict] = {}
    for name, unit, _better, needs, value in _METRICS:
        if any(span in tracer.absent for span in needs):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": float(value(tracer, n, context)), "unit": unit}
    return out
