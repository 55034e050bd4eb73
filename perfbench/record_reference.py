"""Record every benchmark cell's non-timing outputs into reference.json.

Usage: python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference. The outputs are the
non-timing CSV fields (iter, relative_residual, l2_err, converged) as
``emit_csv`` formats them; run.py compares every cell with them.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, run_worker


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        result = run_worker(name, seed=0, pass_index=0, trace=False, timeout=600.0)
        for cell in result["cells"]:
            if cell["problems"] != ["no reference output"] and cell["key"] not in reference:
                print(f"{cell['key']}: {cell['problems']}", file=sys.stderr)
                return 1
            reference[cell["key"]] = cell["fields"]
        print(f"{name}: {len(result['cells'])} cells")
    path = HERE / "reference.json"
    path.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
