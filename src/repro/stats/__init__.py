"""Streaming statistical inference and run control for DQMC production.

The paper's capability results (32x32, beta = 32, Figs 5-7) are 36-hour
productions whose value rests entirely on trustworthy error bars. This
package makes that analysis a first-class, *streaming* pipeline stage
(the role binning/jackknife plays in Bauer's SciPost DQMC code) instead
of a post-hoc, memory-unbounded afterthought:

:mod:`~repro.stats.stream`
    The measurement accumulator: constant-memory online log-binning —
    Welford mean/variance at every power-of-two bin width, O(log n)
    state per observable — and its checkpoint reader.
:mod:`~repro.stats.equilibration`
    Automated warmup-end detection (MSER-5 truncation with a Geweke
    z-score cross-check) so pre-equilibration measurement sweeps are
    flagged and discarded rather than silently biasing averages.
:mod:`~repro.stats.ratio`
    Sign-corrected ratio estimators <O s>/<s> with propagated errors,
    plus R-hat cross-chain convergence diagnostics.
:mod:`~repro.stats.controller`
    :class:`RunController` — error-targeted adaptive stopping: measure
    until the chosen observable's relative error reaches the target (or
    the sweep budget runs out), with checkpointable state so a stopped
    run resumes bit-exactly.
:mod:`~repro.stats.analysis`
    The ``repro analyze`` backend: full statistical reports from a
    checkpoint, a results archive, or a campaign directory.

See ``docs/analysis.md`` for the methodology.
"""

from .stream import (
    LogBinningAccumulator,
    StreamingAccumulator,
    StreamingError,
)
from .equilibration import (
    EquilibrationResult,
    detect_equilibration,
    geweke_z,
    mser_cut,
)
from .ratio import (
    propagate_ratio_error,
    rhat_from_estimates,
    sign_corrected_ratio,
    sign_corrected_results,
    split_rhat,
)
from .controller import ControlDecision, RunController
from .analysis import (
    analyze_archive,
    analyze_campaign,
    analyze_checkpoint,
    analyze_path,
    render_analysis,
)

__all__ = [
    "ControlDecision",
    "EquilibrationResult",
    "LogBinningAccumulator",
    "RunController",
    "StreamingAccumulator",
    "StreamingError",
    "analyze_archive",
    "analyze_campaign",
    "analyze_checkpoint",
    "analyze_path",
    "detect_equilibration",
    "geweke_z",
    "mser_cut",
    "propagate_ratio_error",
    "rhat_from_estimates",
    "sign_corrected_ratio",
    "sign_corrected_results",
    "split_rhat",
]
