#!/usr/bin/env python3
"""Build cqa-serverd and the wire benchmark from source, then run one workload.

Usage (from the repository root):

    python3 wirebench/run.py --workload read_resident --seed 1 --seconds 10 --trace 0

Builds with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root): the `cqa-serverd` binary
from the repository's workspace, and the `cqa-wirebench` harness from
`wirebench/Cargo.toml`. Build output goes to stderr. The harness's stdout is
passed through; its last line is the JSON result. Exits non-zero, without a
result, when either build fails.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "wirebench"
WORKLOADS = ("read_resident", "mutate_requery", "tenant_churn", "route_mix")


def capture(cmd):
    """stdout of `cmd` run at the repository root, or None if it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def build(env):
    """Builds both binaries; returns their paths, or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "cqa-server", "--bin", "cqa-serverd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"wirebench: build failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"wirebench: build failed: {' '.join(step)}", file=sys.stderr)
            return None
    release = pathlib.Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "cqa-serverd", release / "cqa-wirebench"


def metadata():
    """Build and host facts recorded with every result."""
    commit = capture(["git", "rev-parse", "HEAD"])
    status = capture(["git", "status", "--porcelain"])
    return {
        "rustc": capture(["rustc", "-V"]) or "unknown",
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "cpus_online": os.cpu_count(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file():
        print(f"wirebench: no Cargo.toml at {ROOT}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    binaries = build(env)
    if binaries is None:
        return 1
    server, harness = binaries
    cmd = [
        str(harness),
        "--server", str(server),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--meta", json.dumps(metadata()),
        "--out", str(BENCH / "out"),
    ]
    # The harness and the server it starts share a fresh process group, so
    # a timeout, an interrupt or a SIGTERM stops both.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("wirebench: run timed out or was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
