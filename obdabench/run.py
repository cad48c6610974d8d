#!/usr/bin/env python3
"""Builds the OBDA benchmark from source (Release) and runs one workload.

Usage, from the repository root:

    python3 obdabench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0
    python3 obdabench/run.py --smoke     # every workload briefly, all checks

A workload runs its own phase for --seconds and the other two phases as
fixed companion doses, each phase in a process of its own.  The phases'
work is cut into slices that take turns (main, companion, companion, main,
...), so that each phase's figures sample the whole run.  The merged result
is the last line of standard output (see README.md).

The build goes to $CARGO_TARGET_DIR/obdabench (default .bench_build/obdabench).
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_cold", "warm_parallel", "serve_durable")
RUN_TIMEOUT_S = 170
SLICES = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "obdabench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        sys.stderr.write("obdabench: library sources (src/) not found\n")
        return False
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", out, "-j", "4"],
                           stdout=sys.stderr) == 0


class Phase:
    """One phase in its own process, taking turns over stdin / stdout."""

    def __init__(self, binary, out, args, phase):
        cmd = [binary, "--workload", args.workload, "--phase", phase,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out,
               "--slices", str(1 if args.smoke else SLICES)]
        if args.smoke:
            cmd.append("--smoke")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT,
                                     text=True)

    def wait_turn(self):
        """Waits until the phase yields its turn; False if it ended."""
        line = self.proc.stdout.readline()
        return line.strip() == "yield"

    def go(self):
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def result(self):
        """Waits for the phase to end; returns (exit code, result or None)."""
        stdout = self.proc.stdout.read()
        self.proc.wait()
        lines = stdout.strip().splitlines()
        try:
            return self.proc.returncode, json.loads(lines[-1])
        except (IndexError, ValueError):
            return self.proc.returncode or 1, None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_phases(binary, out, args, running):
    """Runs the workload's phase and its companions slice by slice, adding
    each to `running`; returns their (exit code, result) pairs, or None if
    one of them broke off."""
    phases = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    try:
        # The main phase sets up alone, so that setup_s is its own.
        for name in phases:
            running.append(Phase(binary, out, args, name))
            if not running[-1].wait_turn():
                return None
        for _ in range(1 if args.smoke else SLICES):
            for phase in running:
                phase.go()
                if not phase.wait_turn():
                    return None
        # The output checks are not timed and run side by side; the traced
        # replays are timed and run one phase after another.
        results = []
        for phase in running:
            phase.go()
            if args.trace:
                results.append(phase.result())
        if not args.trace:
            results = [phase.result() for phase in running]
        return results
    except OSError:  # A phase closed its pipes.
        return None
    finally:
        for phase in running:
            phase.stop()
        # A phase that died early may leave its store behind.
        for stale in glob.glob(os.path.join(out, "serve-store-*")):
            shutil.rmtree(stale, ignore_errors=True)


def run_workload(binary, out, args):
    """Runs the workload's phases and prints the merged result."""
    running = []
    timed_out = []

    def kill_all():  # Past the deadline every phase is killed.
        timed_out.append(True)
        for phase in list(running):
            if phase.proc.poll() is None:
                phase.proc.kill()

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill_all)
    watchdog.start()
    try:
        results = run_phases(binary, out, args, running)
    finally:
        watchdog.cancel()
    if timed_out:
        sys.stderr.write("obdabench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if results is None or any(r is None for _, r in results):
        sys.stderr.write("obdabench: a phase broke off\n")
        return 1
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for code, result in results:
        status = status or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            # The main phase comes first and its figures win: setup_s and
            # peak_rss_mb are the workload's own process's.
            merged["metrics"].setdefault(name, value)
    print(json.dumps(merged, sort_keys=True))
    sys.stdout.flush()
    return status


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 2
    binary = os.path.join(out, "obdabench")
    if args.workload is not None:
        return run_workload(binary, out, args)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace, args.seconds = workload, trace, 1
            status = run_workload(binary, out, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
