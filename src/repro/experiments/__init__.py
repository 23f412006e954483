"""Experiment runners: one per table and figure of the paper."""

from repro.experiments.case_study import CaseStudyResult, run_case_study
from repro.experiments.config_tables import (
    ConfigTableResult,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.fig9 import Fig9Result, run_fig9
from repro.experiments.fig10 import Fig10Result, run_fig10
from repro.experiments.fig11 import Fig11Result, run_fig11
from repro.experiments.parallel_scaling import (
    ParallelScalingResult,
    run_parallel_scaling,
)
from repro.experiments.scale import SCALES, Scale, get_scale
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table5 import Table5Result, run_table5
from repro.experiments.tables import format_number, render_bars, render_table

#: Experiment registry: id -> (description, runner).
REGISTRY = {
    "table1": ("Property matrix of modeling approaches", run_table1),
    "table2": ("Extension vocabulary (variables/connectors/extenders)", run_table2),
    "table3": ("Constant-parameter priors", run_table3),
    "table4": ("Temporal variable parameters", run_table4),
    "table5": ("Forecasting accuracy of all methods (+ Figure 1)", run_table5),
    "fig8": ("Nakdong river-system topology (+ Figure 12)", run_fig8),
    "fig9": ("Variable selectivity among best models", run_fig9),
    "fig10": ("Speedup-technique ablation", run_fig10),
    "fig11": ("Evaluation short-circuiting threshold sweep", run_fig11),
    "scaling": ("Parallel run scaling (speedup vs. workers)", run_parallel_scaling),
    "case-study": ("Discovered revisions (Section IV-E)", run_case_study),
}

__all__ = [
    "CaseStudyResult",
    "ConfigTableResult",
    "Fig8Result",
    "Fig9Result",
    "Fig10Result",
    "Fig11Result",
    "ParallelScalingResult",
    "REGISTRY",
    "SCALES",
    "Scale",
    "Table1Result",
    "Table5Result",
    "format_number",
    "get_scale",
    "render_bars",
    "render_table",
    "run_case_study",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_parallel_scaling",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
]
