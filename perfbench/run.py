"""End-to-end benchmark of the extcalc CLI on three seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload algebra-files --seed 1 --seconds 30 --trace 0

With --trace 0 each command of the workload runs as its own process,
`python -m extcalc.cli ...` with src on PYTHONPATH, one at a time in a
closed loop with one client, and whole passes over the command list
repeat until --seconds have been measured.  Every output is checked
against the references in reference.py outside the timed region.  The
metrics are medians over passes:

    setup_s        median of SETUPS set-ups (write inputs + one warm-up command)
    wall_s         one pass over the command list (sum of command latencies)
    cmd_p50_s      median command latency within a pass
    slowest_cmd_s  latency of the slowest command (by median over the run)
    peak_rss_mb    largest ru_maxrss (os.wait4) of any command in a pass

The host this benchmark was built on is shared, and its speed drifts by
20-40% over minutes (a fixed pure-Python loop takes 0.12-0.20 s from
one moment to the next), far more than a run can average out.  So each
time sample is reported in reference-speed seconds: the measured
seconds times CALIBRATION_REF_S over the mean time of the CALIBRATION
runs just before and after it.  CALIBRATION is a fixed `python -I -c`
process that imports numpy and runs a dict loop; it runs before each
set-up and after any command that ends CALIBRATION_EVERY_S or more
after the previous calibration.  It does not touch extcalc, so a change
to the program moves these metrics as it moves the raw seconds, which
are printed alongside.

The error rate (failed / attempted commands) is reported in the
"attempted" and "failed" fields.  With --trace 1 the commands run
in-process through extcalc.cli.main with wrappers timing each layer,
a fixed amount of work that ignores --seconds; see tracing.py.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUPS = 5
COMMAND_TIMEOUT_S = 150

CALIBRATION = ("-I", "-c", """import numpy
def spin():
    acc = {}
    for i in range(240000):
        key = (i % 97, i % 89, i % 83)
        acc[key] = acc.get(key, 0.0) + 1.5
    return len(acc)
spin()
""")
CALIBRATION_EVERY_S = 1.5
CALIBRATION_REF_S = 0.30


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EXTERIOR_TOL", None)
    env.pop("PYTHONSTARTUP", None)
    return env


class Runner:
    """Runs CLI commands as child processes, one at a time."""

    def __init__(self, workdir: Path):
        self.env = cli_env()
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"
        self.child = None
        signal.signal(signal.SIGALRM, self._timeout)
        # a terminated benchmark still kills and reaps its current child
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def _timeout(self, signum, frame):
        if self.child is not None:
            self.child.kill()

    def run(self, argv, module=True):
        """-> (seconds, exit code, ru_maxrss in MB, stdout text, stderr text)."""
        cmd = [sys.executable, "-m", "extcalc.cli", *argv] if module else [sys.executable, *argv]
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            signal.alarm(COMMAND_TIMEOUT_S)
            t0 = time.perf_counter()
            self.child = child = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                signal.alarm(0)
                self.child = None
            elapsed = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        return (
            elapsed,
            child.returncode,
            usage.ru_maxrss / 1024.0,
            self.stdout_path.read_text(encoding="utf-8"),
            self.stderr_path.read_text(encoding="utf-8"),
        )


def set_up(workload, seed: int, workdir: Path, runner: Runner):
    """Write the workload's inputs and run one warm-up command; -> (commands, sizes, error)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    commands, sizes = workload.build(seed, workdir)
    warm = inputs.trivial_command(workdir)
    _, code, _, stdout, stderr = runner.run(warm.argv)
    if code != 0:
        return commands, sizes, f"warm-up exited {code}: {stderr.strip()[-300:]}"
    defect = warm.check(stdout)
    return commands, sizes, defect and f"warm-up output wrong: {defect}"


class OutputChecker:
    """Checks each distinct output of a command once; repeats compare equal."""

    def __init__(self):
        self.seen = {}

    def __call__(self, index: int, command, code: int, stdout: str, stderr: str):
        if code != 0:
            return f"{command.label}: exit code {code}: {stderr.strip()[-300:]}"
        key = (index, stdout)
        if key not in self.seen:
            defect = command.check(stdout)
            self.seen[key] = None if defect is None else f"{command.label}: {defect}"
        return self.seen[key]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_dir(workload, seed: int) -> Path:
    path = OUT / f"{workload.name}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Calibrator:
    """Times CALIBRATION between commands; rescales samples to reference speed."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.midpoints = []
        self.seconds = []
        self.last = 0.0

    def run(self):
        t0 = time.perf_counter()
        elapsed, code, _, _, stderr = self.runner.run(CALIBRATION, module=False)
        if code != 0:
            raise RuntimeError(f"calibration exited {code}: {stderr.strip()[-300:]}")
        self.midpoints.append(t0 + elapsed / 2)
        self.seconds.append(elapsed)
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CALIBRATION_EVERY_S

    def scale(self, midpoint: float) -> float:
        """CALIBRATION_REF_S over the mean of the calibrations just before and after midpoint."""
        i = bisect.bisect(self.midpoints, midpoint)
        return CALIBRATION_REF_S / statistics.fmean(self.seconds[max(i - 1, 0):i + 1])


def timed(fn, *args):
    """-> (midpoint, seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0, result


def measure(workload, seed: int, seconds: float):
    workdir = run_dir(workload, seed)
    runner = Runner(workdir)
    calibrator = Calibrator(runner)
    setups = []
    for _ in range(SETUPS):
        calibrator.run()
        mid, elapsed, (commands, sizes, error) = timed(set_up, workload, seed, workdir / "inputs", runner)
        setups.append((mid, elapsed))
        if error:
            return fail_result(error)

    checker = OutputChecker()
    passes = []  # per pass: [(midpoint, latency, ru_maxrss MB)] per command
    failures = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        samples = []
        for index, command in enumerate(commands):
            mid, _, (elapsed, code, peak, stdout, stderr) = timed(runner.run, command.argv)
            samples.append((mid, elapsed, peak))
            defect = checker(index, command, code, stdout, stderr)
            if defect:
                failures.append(defect)
            if calibrator.due():
                calibrator.run()
        passes.append(samples)
    calibrator.run()

    # the slowest command is one command for the whole run, not the max of each pass
    slowest = max(range(len(commands)), key=lambda i: statistics.median(p[i][1] for p in passes))

    def per_pass(scaled):
        latency = (lambda m, e: e * calibrator.scale(m)) if scaled else (lambda m, e: e)
        lats = [[latency(m, e) for m, e, _ in samples] for samples in passes]
        return {
            "setup_s": [latency(m, e) for m, e in setups],
            "wall_s": [sum(lat) for lat in lats],
            "cmd_p50_s": [statistics.median(lat) for lat in lats],
            "slowest_cmd_s": [lat[slowest] for lat in lats],
            "peak_rss_mb": [max(peak for _, _, peak in samples) for samples in passes],
        }

    scaled, raw = per_pass(True), per_pass(False)
    metrics = {name: {"value": statistics.median(values), "unit": "MB" if name == "peak_rss_mb" else "s"}
               for name, values in scaled.items()}
    attempted = len(passes) * len(commands)
    counts = {"setup_s": f"{SETUPS} set-ups", "wall_s": f"{len(passes)} passes",
               "cmd_p50_s": f"{attempted} commands", "slowest_cmd_s": f"{len(passes)} passes",
               "peak_rss_mb": f"{attempted} commands"}

    print(f"workload {workload.name}  seed {seed}  {len(passes)} passes x {len(commands)} commands"
          f"  closed loop, 1 client; slowest command {commands[slowest].label}")
    print(f"  calibration median {statistics.median(calibrator.seconds):.4f} s over"
          f" {len(calibrator.seconds)} runs (reference {CALIBRATION_REF_S} s)")
    for name, values in scaled.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<14} {q2:10.4f} {metrics[name]['unit']:<3} q1 {q1:.4f} q3 {q3:.4f}"
              f"  raw median {statistics.median(raw[name]):.4f}  n={counts[name]}")
    print(f"  {'error_rate':<14} {len(failures) / attempted:10.4f}     {len(failures)}/{attempted} commands")
    for index, command in enumerate(commands):
        lat = [samples[index][1] for samples in passes]
        print(f"    {command.label:<22} raw median {statistics.median(lat):.4f} s"
              f"  max rss {max(samples[index][2] for samples in passes):.1f} MB")
    for defect in sorted(set(failures)):
        print(f"  FAILED {defect}")
    print(f"  inputs {json.dumps(sizes)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def traced(workload, seed: int):
    import tracing

    workdir = run_dir(workload, seed)
    runner = Runner(workdir)
    commands, _, error = set_up(workload, seed, workdir / "inputs", runner)
    if error:
        return fail_result(error)
    trivial = inputs.trivial_command(workdir / "inputs")
    return tracing.traced_run(commands, trivial, runner, SRC, workdir / "trace.json")


def fail_result(message: str):
    print(f"FAILED {message}")
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "extcalc" / "cli.py").is_file():
        print(f"error: no extcalc sources under {SRC}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
