"""One workload in one process: the closed loop, its checks, and the traced run.

Run by run.py as `python3 -m perfbench.worker <args>` from the checkout
root, with warpcurv importable from `src/` and one BLAS/OpenMP thread.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import hostspeed, layers, tracing
from .scenarios import generate_round

MIN_SAMPLES = 200  # p90 then has at least 20 samples above it
SETUP_PROBES = 7
KERNEL_EVERY_S = 0.25
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# Rounds in the traced list, sized so each workload's untraced pass takes a
# few seconds on a 2-core machine.
TRACE_ROUNDS = {"oracle-sweep": 2, "grid-residuals": 8, "families-scan": 6}
ORACLE_PREFIXES = ("cov[", "curv[")
ORACLE_ROWS = ("ricci-matrix", "scalar", "scalar-closed-form-vs-oracle")


class Runner:
    """Runs scenarios through the public CLI path and checks each outcome."""

    def __init__(self, cli, errors):
        self.cli = cli
        # cli.main maps these to exit code 3 and every other typed error to 2
        self.exit3 = (errors.NumericalInstability, errors.StepTooCoarse)
        self.exit2 = (errors.WarpcurvError, OSError)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.golden_bytes = {}

    def run(self, sc):
        """Parse, run and emit one scenario; returns (seconds, report bytes, rows)."""
        cli = self.cli
        self.attempted += 1
        report = None
        t0 = time.perf_counter()
        try:
            cfg = cli.parse_scenario(sc.text)
            report = cli.run_scenario(cfg)
            blob = cli.emit_report(report, cfg.out_format)
            elapsed = time.perf_counter() - t0
            outcome = "pass" if report.all_passed else "fail"
        except self.exit3 as exc:
            elapsed, blob, outcome = time.perf_counter() - t0, b"", f"exit 3: {exc}"
        except self.exit2 as exc:
            elapsed, blob, outcome = time.perf_counter() - t0, b"", f"exit 2: {exc}"
        except Exception as exc:  # a crash is a result to report, not to hide
            elapsed, blob, outcome = time.perf_counter() - t0, b"", f"crash: {exc!r}"
        bad = outcome != sc.expect
        if not bad and cli.emit_report(report, cfg.out_format) != blob:
            bad, outcome = True, "second emission differs"
        if not bad and sc.sid.startswith("golden/"):
            first = self.golden_bytes.setdefault(sc.sid, blob)
            if first != blob:
                bad, outcome = True, "golden report differs between runs"
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{sc.sid}: expected {sc.expect}, got {outcome}")
        rows = report.checks if report is not None else []
        return elapsed, blob, rows


def oracle_max_dev(rows):
    """Largest structured-vs-oracle deviation among a report's rows."""
    return max((r.grid_max_residual for r in rows
                if r.check.startswith(ORACLE_PREFIXES) or r.check in ORACLE_ROWS),
               default=0.0)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import warpcurv
    from warpcurv import cli, errors

    src = Path.cwd().resolve() / "src"
    if src not in Path(warpcurv.__file__).resolve().parents:
        raise SystemExit(f"warpcurv imported from {warpcurv.__file__}, not from {src}")

    runner = Runner(cli, errors)

    # Round 0 is the warm-up: first calls, lazy imports.  It also gives the
    # seed-determined digest and deviation, independent of run length.
    digest = hashlib.sha256()
    worst_dev = 0.0
    for sc in generate_round(args.workload, args.seed, 0):
        _, blob, rows = runner.run(sc)
        digest.update(blob)
        worst_dev = max(worst_dev, oracle_max_dev(rows))
    out = {"report_sha256": digest.hexdigest(), "oracle_max_dev": worst_dev}

    if args.trace:
        out.update(traced_run(runner, args.workload, args.seed))
        out["layers"]["verify.oracle_max_dev"] = worst_dev
    else:
        out.update(timed_loop(runner, args.workload, args.seed, args.seconds))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    print(json.dumps(out))


def setup_probe(payload):
    """Wall time from spawning a fresh interpreter until it has imported
    warpcurv.cli and parsed the scenarios in `payload` (setup_probe.py)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(PROBE)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        err = proc.stderr.read()
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
    return elapsed


def timed_loop(runner, workload, seed, seconds):
    """Closed loop, one client: whole rounds until `seconds` of scenario time
    have been spent and at least MIN_SAMPLES scenarios have completed.

    A scenario's time runs from parse to emitted report.  Throughput is the
    median over rounds, so a few seconds of a slow host do not set it.  The
    set-up probes are spread over the loop, between rounds, and the host
    speed kernel runs between scenarios every KERNEL_EVERY_S; every timing is
    reported both as measured and divided by the run's slowdown factor.
    The first, unmeasured probe compiles the bytecode."""
    payload = json.dumps([sc.text for sc in generate_round(workload, seed, 0)]).encode()
    setup_probe(payload)
    setups, samples, rates, kernel = [], [], [], [hostspeed.kernel_seconds()]
    last_kernel = time.perf_counter()
    busy = 0.0
    rnd = 1
    while busy < seconds or len(samples) < MIN_SAMPLES or len(setups) < SETUP_PROBES:
        if len(setups) < SETUP_PROBES and busy >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_probe(payload))
        scenarios = generate_round(workload, seed, rnd)
        round_busy = 0.0
        for sc in scenarios:
            if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
                kernel.append(hostspeed.kernel_seconds())
                last_kernel = time.perf_counter()
            elapsed = runner.run(sc)[0]
            samples.append(elapsed)
            round_busy += elapsed
        rates.append(len(scenarios) / round_busy)
        busy += round_busy
        rnd += 1
    kernel_s = statistics.median(kernel)
    slowdown = kernel_s / hostspeed.NOMINAL_S
    measured = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": statistics.median(rates),
        "scenario_p50_ms": 1e3 * statistics.median(samples),
        "scenario_p90_ms": 1e3 * statistics.quantiles(samples, n=10, method="inclusive")[-1],
    }
    out = {name: value * slowdown if name == "scenarios_per_s" else value / slowdown
           for name, value in measured.items()}
    out.update(measured=measured, slowdown=slowdown, kernel_ms=1e3 * kernel_s,
               nominal_ms=1e3 * hostspeed.NOMINAL_S, rounds=rnd - 1, samples=len(samples),
               loop_s=busy)
    return out


def traced_run(runner, workload, seed):
    """The same fixed scenario list untraced, then traced; per-layer metrics
    come from the traced pass, overhead is the difference of wall times."""
    scenarios = [sc for rnd in range(1, TRACE_ROUNDS[workload] + 1)
                 for sc in generate_round(workload, seed, rnd)]
    t0 = time.perf_counter()
    plain = [runner.run(sc)[1] for sc in scenarios]
    untraced = time.perf_counter() - t0

    rec = tracing.SpanRecorder()
    uninstall = tracing.install(rec)
    try:
        t0 = time.perf_counter()
        traced_blobs = []
        for k, sc in enumerate(scenarios):
            rec.begin_scenario(k)
            traced_blobs.append(runner.run(sc)[1])
        traced = time.perf_counter() - t0
    finally:
        uninstall()
    if traced_blobs != plain:
        runner.failed += 1
        runner.problems.append("traced reports differ from untraced reports")

    meta = {k: (sc.n_bar, sc.points) for k, sc in enumerate(scenarios)}
    values = layers.derive(rec, workload, meta)
    values["trace.untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    return {"layers": values, "spans": len(rec), "traced_scenarios": len(scenarios)}


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as exc:  # a failed probe or a LayerCheckError
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
