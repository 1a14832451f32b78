"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {calculus|mc_ou|mc_generic} \
        --seed N --seconds S --trace {0|1}

Run from the repository root.  Each workload runs in fresh single-threaded
python processes started one after another: ``SETUP_RUNS`` processes that
only set up, then one that sets up, runs timed rounds for about ``--seconds``
and checks every output against the benchmark's own closed forms.  Failed
checks are named on stdout; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (setup_s, run_s, peak_rss_mb); ``--trace 1``
reports the per-layer metrics from spans (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("calculus", "mc_ou", "mc_generic")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(argv) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), *argv],
        stdout=subprocess.PIPE,
        env=env,
        timeout=CHILD_TIMEOUT_S,
        check=False,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gammaw", "cli.py")):
        print("error: run from the repository root (src/gammaw not found)", file=sys.stderr)
        return 2
    out = os.path.join(OUT_DIR, args.workload)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out]
    try:
        setups = [_child([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_RUNS)]
        rep = _child([*common, "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(rep["setup_s"])

    print("machine: " + json.dumps(rep["machine"], sort_keys=True))
    for name, digest in sorted(rep.get("artifact_sha256", {}).items()):
        print(f"sha256 {digest}  {name}")
    print(f"rounds: {len(rep['rounds'])} x " + ", ".join(f"{r:.3f}s" for r in rep["rounds"]))
    for failure in rep["failed"]:
        print(f"FAILED {failure}")

    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in rep["per_layer"].items()}
        metrics["traced.run_s"] = {"value": rep["run_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": rep["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(json.dumps({
        "correct": not rep["failed"],
        "attempted": rep["attempted"],
        "failed": len(rep["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
