"""kernelalg benchmark: closed-loop CLI workloads, checked, with a traced run.

    python3 bench/run.py --workload {check-laws,chain-simulate,query-session,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  One
client runs one op at a time, each CLI call in a fresh guarded process (see
`proc.py`).  Every output is checked by the oracles in `oracle.py`, and, for
seeds listed in `golden.json`, byte for byte against digests recorded from
the same program.

With `--trace 0` the run measures end-to-end metrics.  With `--trace 1` it
runs the same ops in-process in a guarded child (`traced_run.py`) and reports
per-layer metrics instead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from proc import CALL_TIMEOUT_S, limit_address_space, run_cli  # noqa: E402
from workloads import SETUP_MEASURE, WORKLOADS, Verifier, digest, setup_check  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
WORK_DIR = ".bench_work"
# Set-up is sampled this many times, spread evenly over the measured window,
# so that its median sees the machine in the same state as the ops do.
SETUP_SAMPLES = 5
TRACE_TIMEOUT_S = 150.0


def write_docs(workload, seed: int, root: Path):
    """Generate the workload's document pool for `seed`; return (path, doc) pairs."""
    out = root / WORK_DIR / f"{workload.name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    pool = []
    for i in range(workload.pool):
        doc = workload.make_doc(seed, i)
        path = out / f"doc{i}.kd"
        path.write_text(doc.text, encoding="utf-8")
        pool.append((str(path), doc))
    return pool


def load_golden(workload: str, seed: int):
    """Recorded digests [pool index][call index] for this seed, or None."""
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def measure(workload, seed: int, seconds: float, root: Path, src: str) -> dict:
    pool = write_docs(workload, seed, root)
    golden = load_golden(workload.name, seed)
    problems = []

    setup = []

    def sample_setup():
        j = len(setup) % len(pool)
        path, doc = pool[j]
        r = run_cli(["eval", path, "--expr", SETUP_MEASURE], src)
        setup.append(r.wall_s)
        if r.exit_code != 0 or setup_check(r.stdout, doc):
            problems.append(f"set-up eval on doc{j} failed (exit {r.exit_code})")

    verifier = Verifier()
    times, rss = [], []
    attempted = failed = golden_checked = 0
    while not times or sum(times) < seconds:
        if len(setup) < SETUP_SAMPLES and sum(times) >= len(setup) * seconds / SETUP_SAMPLES:
            sample_setup()
        index = attempted % len(pool)
        path, doc = pool[index]
        attempted += 1
        op_s, op_rss, reason = 0.0, 0.0, None
        for c, call in enumerate(workload.calls):
            r = run_cli(call.argv(path, doc), src)
            op_s += r.wall_s
            op_rss = max(op_rss, r.peak_rss_mb)
            if r.timed_out:
                reason = f"{call.name} timed out after {CALL_TIMEOUT_S:.0f} s"
            elif r.exit_code != 0:
                said = (r.stderr or r.stdout).decode(errors="replace").strip().splitlines()
                reason = f"{call.name} exited {r.exit_code}: {said[-1] if said else ''}"
            else:
                reason = verifier.verdict(index, call, doc, r.stdout)
                if reason is None and golden is not None:
                    golden_checked += 1
                    if digest(r.stdout) != golden[index][c]:
                        reason = f"{call.name} stdout differs from the recorded digest"
            if reason:
                break
        times.append(op_s)
        rss.append(op_rss)
        if reason:
            failed += 1
            problems.append(f"op {attempted} (doc{index}): {reason}")
    while len(setup) < SETUP_SAMPLES:
        sample_setup()

    return {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "window_s": sum(times),
        "golden": (golden_checked, golden is not None),
        "metrics": {
            "ops_per_s": ((attempted - failed) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            # Runs hold tens of ops, too few for any percentile at or above
            # p90 to have ten ops beyond it, so the tail is the maximum.
            "op_tail_s": (max(times), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
    }


def traced(workload, seed: int, seconds: float, root: Path, src: str) -> dict:
    """Run `traced_run.py` in a guarded child and collect its per-layer metrics."""
    pool = write_docs(workload, seed, root)
    out = root / WORK_DIR / f"trace-{workload.name}-{seed}.json"
    out.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH_DIR / "traced_run.py"), "--workload", workload.name,
        "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
        "--src", src, *(path for path, _ in pool),
    ]
    try:
        r = subprocess.run(argv, capture_output=True, timeout=TRACE_TIMEOUT_S,
                           preexec_fn=limit_address_space)
        failure = r.returncode != 0 and f"exited {r.returncode}: " + " | ".join(
            r.stderr.decode(errors="replace").strip().splitlines()[-3:])
    except subprocess.TimeoutExpired:
        failure = f"timed out after {TRACE_TIMEOUT_S:.0f} s"
    if failure or not out.exists():
        return {"workload": workload.name, "attempted": 1, "failed": 1,
                "problems": [f"traced run {failure or 'wrote no result'}"], "metrics": {}}
    return json.loads(out.read_text())


def report(result: dict):
    """Print every metric by name with its unit, and the run's checks."""
    name = result["workload"]
    print(f"== {name}: {result['attempted']} ops attempted, {result['failed']} failed")
    if "window_s" in result:
        print(f"   closed loop, 1 client, {result['window_s']:.1f} s of op time")
    width = max((len(k) for k in result["metrics"]), default=0)
    for key, (value, unit) in result["metrics"].items():
        note = ""
        if key == "op_tail_s":
            note = f"   (p100 of {result['attempted']} ops)"
        print(f"   {key:<{width}}  {value:.6g} {unit}{note}")
    if result["attempted"]:
        print(f"   {'error_rate':<{width}}  {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']})")
    if "golden" in result:
        checked, recorded = result["golden"]
        print("   golden digests: " + (f"{checked} outputs compared" if recorded
                                       else "seed not recorded, oracles only"))
    for problem in result["problems"]:
        print(f"   FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kernelalg" / "cli.py").is_file():
        print(f"error: no kernelalg sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced if args.trace else measure
    results = [run(WORKLOADS[n], args.seed, args.seconds, root, str(src)) for n in names]
    for result in results:
        report(result)

    def values(result):
        return {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}

    attempted = sum(r["attempted"] for r in results)
    line = {
        "correct": attempted > 0 and not any(r["problems"] for r in results),
        "attempted": attempted,
        "failed": sum(r["failed"] for r in results),
        # One workload: its metrics by name.  `all`: one such map per workload.
        "metrics": values(results[0]) if len(results) == 1
        else {r["workload"]: values(r) for r in results},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
