"""Benchmark: one cold `repro analyze` pass on the real tree.

The analyzer is meant to run on every commit and has no cache, so the
one pass there is — every file parsed once, local rules and symbol
extraction on the same tree, then the whole-program rules — must stay
interactive.  This bench runs the full analysis over ``src/repro``
under the committed configuration, prints the timing plus the
module/function/edge counts, and asserts the acceptance budget.

The budget is the DEVTOOLS.md acceptance bar, 2.0 s.  Knob
(environment): ``REPRO_BENCH_OUT`` (output directory for
``BENCH_analyze.json``).
"""

import json
import os
from pathlib import Path
from time import perf_counter

from repro.devtools.analyze import analyze_tree
from repro.devtools.config import load_analyze_config

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 2.0


def test_bench_analyze_under_budget():
    config = load_analyze_config(REPO_ROOT / "pyproject.toml")
    paths = [str(REPO_ROOT / p) for p in config.paths]

    start = perf_counter()
    result = analyze_tree(paths, config, base=REPO_ROOT)
    seconds = perf_counter() - start

    report = {
        "modules": result.modules,
        "functions": len(result.index.functions),
        "edges": sum(len(v) for v in result.index.edges.values()),
        "findings": len(result.findings),
        "seconds": round(seconds, 3),
        "budget_seconds": BUDGET_S,
    }
    print(
        "\nBENCH analyze: {modules} modules, {functions} functions, "
        "{edges} edges | {seconds}s (budget {budget_seconds}s)".format(
            **report
        )
    )
    out_dir = os.environ.get("REPRO_BENCH_OUT")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "BENCH_analyze.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )

    assert seconds < BUDGET_S, (
        f"analyze took {seconds:.2f}s, budget {BUDGET_S}s"
    )
