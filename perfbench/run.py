"""adaptqsd benchmark: one command, four workloads, every metric with its unit.

    python3 perfbench/run.py --workload fv --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the package is imported from src/;
nothing is installed). Each measured process is a fresh `python3
perfbench/workload.py` with BLAS/OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up time (the median over three
fresh processes, each from spawn to ready-to-solve), the median solve time,
the time of all solves and the workload process's peak RSS. Times are
seconds at reference speed: wall time rescaled by a speed probe that samples
the shared host's current CPU speed inside each measured process (speed.py);
the raw wall times are in the log lines.

--trace 1 runs the same solves twice, untraced and then traced, checks that
both give bit-identical outputs, and prints the per-layer metrics of the
traced process plus the tracing overhead and the untraced throughput.

The number of solves is fixed by --seconds and the workload's nominal solve
time, so a run does the same work on every commit. The last stdout line is
the JSON result; the lines above it record the host, the load average and
every solve's outputs and checks. See README.md for the workloads and the
metric-to-layer map.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import SIZES, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 3
DEADLINE_S = 170  # every process of a run must end by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_util")):
        return "ratio"
    return "count"


def spawn(args, extra: list[str], env: dict, deadline: float) -> dict:
    """Run one workload process to completion and return its JSON report.

    The process is killed (and waited for) if it is still running at
    `deadline`, a time.monotonic() value.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--t0", repr(time.monotonic())]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    proc = subprocess.run(cmd + extra, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def solve_lines(tag: str, records: list[dict]) -> list[str]:
    """One line per solve: its seed, time, outputs and check verdicts as JSON."""
    return [f"{tag} solve {json.dumps(r)}" for r in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="'toy' shrinks every workload (self-test only)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="scale each check's reference by 1.5 (self-test only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "adaptqsd" / "__init__.py").is_file():
        print(f"error: no adaptqsd sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    nominal = SIZES[args.size][args.workload]["nominal_s"]
    # a traced run spends its time on two processes (untraced, traced)
    budget = args.seconds / (2 if args.trace else 1)
    n_solves = max(1, round(budget / nominal))
    lines = [f"host {json.dumps(host_info())}",
             f"workload {args.workload} seed {args.seed} solves {n_solves} trace {args.trace}"]

    def measured(extra: list[str], tag: str) -> dict:
        load0 = os.getloadavg()
        rep = spawn(args, extra, env, deadline)
        lines.append(f"{tag}: loadavg before {load0} after {os.getloadavg()}; "
                     f"setup wall {rep['setup_wall_s']:.4f} s; probe {json.dumps(rep['probe'])}")
        return rep

    try:
        solve_args = ["--solves", str(n_solves)]
        if not args.trace:
            setups = [measured(["--setup-only"], f"setup {i}")["setup_s"]
                      for i in range(SETUP_PROCESSES - 1)]
            rep = measured(solve_args + ["--trace", "0"], "solves")
            setups.append(rep["setup_s"])
            records = rep["solves"]
            times = [r["seconds"] for r in records]
            values = {"setup_s": statistics.median(setups), "solve_s": statistics.median(times),
                      "total_s": sum(times), "peak_rss_mb": rep["peak_rss_mb"]}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            lines.append(f"versions {json.dumps(rep['versions'])}")
            lines.append(f"setup_s samples {setups}")
            lines += solve_lines("untraced", records)
            mismatched = 0
        else:
            plain = measured(solve_args + ["--trace", "0"], "untraced")
            traced = measured(solve_args + ["--trace", "1"], "traced")
            lines.append(f"versions {json.dumps(plain['versions'])}")
            lines += solve_lines("untraced", plain["solves"])
            lines += solve_lines("traced", traced["solves"])
            records = plain["solves"] + traced["solves"]
            mismatched = sum(a.get("outputs") != b.get("outputs")
                             for a, b in zip(plain["solves"], traced["solves"]))
            if mismatched:
                lines.append(f"traced outputs differ from untraced on {mismatched} solve(s)")
            plain_total = sum(r["seconds"] for r in plain["solves"])
            traced_total = sum(r["seconds"] for r in traced["solves"])
            values = dict(traced["trace"])
            values["trace.overhead_ratio"] = traced_total / plain_total - 1.0
            work = sum(r.get("outputs", {}).get("particle_windows", 0) for r in plain["solves"])
            values["particle_windows_per_s"] = work / plain_total
            values["proc.cpu_s"] = plain["cpu_s"]
            values["proc.cpu_util"] = plain["cpu_s"] / plain["wall_s"]
            metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in values.items()}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError,
            KeyError) as exc:
        print("\n".join(lines))
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = sum(not r["ok"] for r in records) + mismatched
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
