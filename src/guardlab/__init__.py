"""guardlab: bounded training-control governance over a from-scratch AdamW,
plus a desk-scale stress-test laboratory."""

from .governor import (
    AnalyzerState,
    ControlPosture,
    Governor,
    GuardConfig,
    Regime,
    StepLog,
    StepRecord,
    TelemetrySample,
    TelemetrySummary,
    apply_posture,
    classify_regime,
    gradient_rms,
    select_posture,
    sense,
    summarize_records,
    update_ema,
)
from .optim import (
    ClipConfig,
    OptimizerConfig,
    OptimizerState,
    ScheduleConfig,
    ScheduleKind,
    adamw_step,
    clip_global_norm,
    guarded_step,
    init_optimizer_state,
    schedule_lr,
)
from .tasks import (
    Batch,
    EvalResult,
    Task,
    evaluate,
    forward_backward,
    make_task,
    sample_batch,
)
from .harness import (
    ComparisonRow,
    InjectionSpec,
    RunConfig,
    RunResult,
    TaskSpec,
    calibrate_divergence_lr,
    inject_outliers,
    run_suite,
    run_training,
)

__version__ = "0.1.0"
