"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload it checks that:

- run.py prints, with --trace 0 and with --trace 1, exactly the metrics that
  BENCHMARK.json names, each with the unit BENCHMARK.json gives it, in a
  result line with exactly the keys correct/attempted/failed/metrics;
- at the toy size every solve passes its checks, and the traced solves give
  the same outputs as the untraced ones;
- with --wrong-reference (each check's reference scaled by 1.5, or, for the
  convergence reference law, mirrored) every solve fails and is counted as a
  failed operation;
- two processes given the same --seed produce identical outputs, and another
  --seed changes them (except on `oracle`, which draws no random numbers).

Takes about three minutes; exits non-zero on the first failed expectation.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, list[dict]]:
    """Run run.py at toy size; return the result line and the untraced solves."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"FAIL {workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    solves = [json.loads(line.split(" solve ", 1)[1]) for line in lines
              if line.startswith("untraced solve ")]
    return json.loads(lines[-1]), solves


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (entry["name"] for entry in bench["workloads"]):
        first = None
        for trace in (0, 1):
            result, solves = run(w, 1, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w} trace {trace}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{w} trace {trace}: every metric, with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{w} trace {trace}: numeric values")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace {trace}: all solves pass ({result['attempted']} attempted)")
            outputs = [s["outputs"] for s in solves]
            if first is None:
                first = outputs
            else:
                expect(outputs == first, f"{w}: same seed in another process, same outputs")
        result, _ = run(w, 1, 0, "--wrong-reference")
        expect(not result["correct"] and result["failed"] == result["attempted"] >= 1,
               f"{w}: wrong reference fails every solve ({result['failed']} failed)")
        _, solves = run(w, 2, 0)
        changed = [s["outputs"] for s in solves] != first
        expect(changed == (w != "oracle"), f"{w}: another seed {'changes' if changed else 'keeps'} "
                                           "the outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
