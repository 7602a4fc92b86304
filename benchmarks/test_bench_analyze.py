"""Benchmark: one cold `repro analyze` pass on the real tree.

The analyzer is meant to run on every commit and has no cache, so the
one pass there is — every file parsed once, every rule on that tree —
must stay interactive.  This bench runs the full analysis over
``src/repro`` under the committed configuration, prints the timing
plus the module count and how many of those files are in R101's scope
(a function entry's file included), and
asserts the acceptance budget, the DEVTOOLS.md bar of 2.0 s.  CI's
``static-analysis`` job runs it.
"""

from pathlib import Path
from time import perf_counter

from repro.devtools.analyze import analyze_tree
from repro.devtools.analyze.rules import in_scope, module_name_of
from repro.devtools.config import load_analyze_config
from repro.experiments.cells import SIMULATED_MODULES

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 2.0


def test_bench_analyze_under_budget():
    config = load_analyze_config(REPO_ROOT / "pyproject.toml")
    paths = [str(REPO_ROOT / p) for p in config.paths]

    start = perf_counter()
    result = analyze_tree(paths, config, base=REPO_ROOT)
    seconds = perf_counter() - start

    scopes = [entry.partition(":")[0] for entry in SIMULATED_MODULES]
    scoped = sum(
        any(in_scope(module_name_of(path.as_posix()), s) for s in scopes)
        for root in paths
        for path in Path(root).rglob("*.py")
    )
    print(
        f"\nBENCH analyze: {result.modules} modules, {scoped} in R101's "
        f"scope | {seconds:.3f}s (budget {BUDGET_S}s)"
    )
    assert seconds < BUDGET_S, (
        f"analyze took {seconds:.2f}s, budget {BUDGET_S}s"
    )
