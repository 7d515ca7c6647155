"""Record the committed reference outputs of every workload at the reference seeds.

    python3 perfbench/record_refs.py

Each reference is one pass's fingerprint: the bytes and values a correct
pass must reproduce (verdicts, metrics, quantile indices exactly; gammas and
terminal scores within a relative 1e-12), plus artifact hashes for the
record. Re-record only when a change alters the outputs on purpose and the
new outputs are shown to be right.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import REF_SEEDS, REFS_DIR, WORKLOADS, import_sentinel, work_dir  # noqa: E402


def main() -> int:
    import_sentinel()
    REFS_DIR.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        for seed in REF_SEEDS:
            workload = cls(seed)
            with work_dir("refs-") as work:
                workload.setup(work)
                out = workload.run_pass(work / "pass")
                problems = workload.validate(out)
                fingerprint = workload.fingerprint(out)
            if problems:
                print(f"{name} seed {seed}: not recorded: {'; '.join(problems)}", file=sys.stderr)
                return 1
            path = REFS_DIR / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path.relative_to(REFS_DIR.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
