"""Record stdout digests of every workload call for seeds 0-31.

    python3 bench/record_golden.py

Run from the repository root.  Each call runs once per pool document of every
workload, for each seed in SEEDS; an output is recorded only after the
oracles in `oracle.py` accept it, so the digests pin the exact bytes of
outputs already known to be right.  `bench/golden.json`, which `run.py`
compares against, is written afresh.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from proc import run_cli  # noqa: E402
from run import GOLDEN, write_docs  # noqa: E402
from workloads import WORKLOADS, Verifier, digest  # noqa: E402

SEEDS = range(32)


def main() -> int:
    root = Path.cwd()
    src = str(root / "src")
    table = {}
    for workload in WORKLOADS.values():
        table[workload.name] = {}
        for seed in SEEDS:
            verifier = Verifier()
            digests = []
            for index, (path, doc) in enumerate(write_docs(workload, seed, root)):
                row = []
                for call in workload.calls:
                    r = run_cli(call.argv(path, doc), src)
                    reason = r.exit_code != 0 and f"exit {r.exit_code}"
                    reason = reason or verifier.verdict(index, call, doc, r.stdout)
                    if reason:
                        print(f"{workload.name} seed {seed} doc{index} {call.name}: {reason}",
                              file=sys.stderr)
                        return 1
                    row.append(digest(r.stdout))
                digests.append(row)
            table[workload.name][str(seed)] = digests
            print(f"{workload.name} seed {seed}: recorded", flush=True)
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: {{\n"
            + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rows)}" for seed, rows in seeds.items())
            + "\n }"
            for name, seeds in table.items()
        )
        + "\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
