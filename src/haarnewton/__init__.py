"""Scalar nonlinear-equation solvers built around a wavelet-quadrature
modified Newton method, with third-order competitors, convergence
diagnostics, and a benchmark comparison grid."""

from .analysis import (
    ConvergenceReport,
    classify,
    convergence_report,
    format_significant,
)
from .bench import (
    ComparisonTable,
    SuiteEntry,
    TableRow,
    builtin_suite,
    format_table,
    run_comparison,
    suite_entry,
)
from .core import (
    DerivativeBreakdownError,
    EvalCounters,
    Outcome,
    Problem,
    Status,
    StopCriteria,
    Trace,
    evaluate_df,
    evaluate_f,
)
from .methods import (
    FsVariant,
    MethodId,
    fs_step,
    haar_newton_step,
    iterate,
    klw_step,
    newton_step,
    oz_step,
    wf_step,
)
from .quadrature import haar_indefinite_integral
