"""warpcurv benchmark: seeded scenario workloads through the public CLI path.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workloads are described in
BENCHMARK.json and built in perfbench/scenarios.py.  With `--trace 0` the
last stdout line carries the end-to-end metrics; with `--trace 1` it carries
the per-layer metrics of a separate traced run (perfbench/layers.py).

The workload runs in a child process with one BLAS/OpenMP thread; set-up
time is measured in fresh interpreters that it starts between rounds, each
importing `warpcurv.cli` and parsing one round of the workload's scenarios.
End-to-end timings are divided by the host slowdown that a fixed reference
kernel measures in the same run (perfbench/hostspeed.py); the values as
measured are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.scenarios import WORKLOADS, generate_round  # noqa: E402

CHILD_TIMEOUT_S = 150
END_TO_END = (
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ)
    env.pop("WARPCURV_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "warpcurv" / "cli.py").is_file():
        print("perfbench: run from a warpcurv checkout (src/warpcurv missing)", file=sys.stderr)
        return 2

    round0 = generate_round(args.workload, args.seed, 0)
    if args.trace:
        res = run_worker(args)
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in layers.metric_specs()}
        print(f"# {args.workload} seed {args.seed}: traced {res['traced_scenarios']} "
              f"scenarios, {res['spans']} spans, overhead "
              f"{res['layers']['trace.overhead_s']:.3f} s over "
              f"{res['layers']['trace.untraced_s']:.3f} s untraced")
    else:
        res = run_worker(args)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
        tasks = Counter(sc.task for sc in round0)
        goldens = sum(sc.sid.startswith("golden/") for sc in round0)
        print(f"# {args.workload} seed {args.seed}: closed loop, 1 client, "
              f"{res['rounds']} rounds of {len(round0)} scenarios "
              f"({', '.join(f'{n} {t}' for t, n in sorted(tasks.items()))}; "
              f"{goldens} of them golden), {res['samples']} samples in {res['loop_s']:.2f} s")
        print(f"#   host slowdown {res['slowdown']:.4f} "
              f"(reference kernel {res['kernel_ms']:.3f} ms "
              f"against {res['nominal_ms']:.3f} ms); times below are divided by it, "
              f"rates multiplied, values as measured in brackets")
        for name, unit in END_TO_END:
            raw = res["measured"].get(name)
            print(f"#   {name} = {res[name]:.6g} {unit}"
                  + (f" [{raw:.6g}]" if raw is not None else ""))
    print(f"#   failed_ratio = {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']})")
    print(f"#   oracle_max_dev = {res['oracle_max_dev']:.6g} abs (round 0)")
    print(f"#   report_sha256 = {res['report_sha256']} (round 0)")
    for problem in res["problems"]:
        print(f"#   problem: {problem}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
