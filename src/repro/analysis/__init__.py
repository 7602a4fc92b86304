"""Analysis utilities: sample statistics, terminal plots, JSON export.

The experiment harness prints tables; this package adds the pieces a
user needs to actually look at a run — percentiles, summary
statistics and bootstrap intervals over samples, unicode terminal
charts for quick inspection without matplotlib, and JSON export so
results can be post-processed elsewhere.
"""

from repro.analysis.stats import describe, percentile
from repro.analysis.plots import sparkline, render_series
from repro.analysis.export import result_to_dict

__all__ = [
    "describe",
    "percentile",
    "render_series",
    "result_to_dict",
    "sparkline",
]
