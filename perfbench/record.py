#!/usr/bin/env python3
"""Record the output values of finished runs as the reference for their seeds.

    python3 perfbench/record.py

Reads every untraced result in ``perfbench/results`` and adds, to
``perfbench/reference.json``, the output values (``chi_final``,
``model_rmse``, the stage-1 epoch count) of each problem whose checks all
passed.  A problem that already has a record keeps it: a run whose values
differ from the record failed its check and is not recorded.  Later runs
of the same seed must reproduce the record to the tolerance in
``workloads.REFERENCE_RTOL``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = 0
    for path in sorted(RESULTS.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        recorded = reference.setdefault(result["workload"], {})
        for key, problem in result["problems"].items():
            if not problem["failures"] and key not in recorded:
                recorded[key] = problem["values"]
                added += 1
    for workload, problems in reference.items():
        reference[workload] = dict(sorted(problems.items(),
                                          key=lambda kv: [int(p) for p in kv[0].split(".")]))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {added} problem(s) in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
