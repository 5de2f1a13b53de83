#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians and
quartiles, the ratio B/A *with its base*, and a verdict:

``same``        B's median is within the metric's bound of A's.
``better`` / ``worse``
                B's median moved past the bound in that direction.
``unresolved``  either side's own spread (q3 - q1 over its median) is
                wider than the bound, so the files cannot tell.

Bounds come from ``BENCHMARK.json`` (shares of A's median); the three
metrics it cannot carry — ``bugs_found``, ``failed_share``,
``false_alarms`` — are compared exactly.  Findings digests must match.
Exit status 1 when any row is ``worse`` or a digest differs.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import layers

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(LEDGER_DIR)),
                              "BENCHMARK.json")


def load_bounds(path: str = BENCHMARK_JSON) -> Dict[str, Tuple[str, float]]:
    with open(path, encoding="utf-8") as stream:
        spec = json.load(stream)
    return {m["name"]: (m["better"], float(m["bound"]))
            for m in spec["end_to_end"]}


def spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["value"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge summary ``b`` against base ``a`` for one bounded metric."""
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = b["value"] / a["value"] - 1.0
    if abs(change) <= bound:
        return "same"
    improved = change > 0 if better == "higher" else change < 0
    return "better" if improved else "worse"


def exact_verdict(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "better" if (b > a) == (better == "higher") else "worse"


def compare(a: dict, b: dict, bounds: Dict[str, Tuple[str, float]]
            ) -> List[Tuple[str, str, str, str]]:
    """Rows ``(workload, metric, detail, verdict)`` for two result files."""
    rows: List[Tuple[str, str, str, str]] = []
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            rows.append((name, "-", "missing from B", "unresolved"))
            continue
        same_digest = base["digest"] == other["digest"]
        rows.append((name, "findings digest",
                     f"{base['digest']} -> {other['digest']}",
                     "same" if same_digest else "worse"))
        for metric, (better, bound) in bounds.items():
            sa, sb = base["end_to_end"][metric], other["end_to_end"][metric]
            detail = (f"{sa['value']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] "
                      f"-> {sb['value']:.6g} [{sb['q1']:.6g}, "
                      f"{sb['q3']:.6g}] {sa['unit']}  "
                      f"B/A = {sb['value'] / sa['value']:.4f} of "
                      f"{sa['value']:.6g}  (bound {bound:.1%}, n={sa['n']}"
                      f"/{sb['n']})")
            rows.append((name, metric, detail,
                         verdict(sa, sb, better, bound)))
        for metric, (_unit, better) in layers.ABSOLUTE.items():
            va = base["absolute"][metric]["value"]
            vb = other["absolute"][metric]["value"]
            rows.append((name, metric, f"{va:g} -> {vb:g} (exact)",
                         exact_verdict(va, vb, better)))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    files = []
    for path in args:
        with open(path, encoding="utf-8") as stream:
            files.append(json.load(stream))
    rows = compare(files[0], files[1], load_bounds())
    for workload, metric, detail, outcome in rows:
        print(f"{workload:<16} {metric:<20} {outcome:<11} {detail}")
    counts = {o: sum(1 for r in rows if r[3] == o)
              for o in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{n} {o}" for o, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
