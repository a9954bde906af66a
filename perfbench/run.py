#!/usr/bin/env python3
"""Build the MBT benchmark harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s>   # every workload, untraced

Each workload runs in its own process, so its peak RSS is its own. The
harness prints notes and every metric by name and unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. The build goes to `$CARGO_TARGET_DIR` (default
`.bench_build`), and generated traces to a scratch directory inside it
that is removed when the run ends.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_figures", "city_replay", "server_storm"]
RUN_TIMEOUT_S = 170


def target_dir() -> Path:
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build() -> Path:
    """Builds the harness (release, offline); its output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {proc.returncode})")
    return target_dir() / "release" / "mbt-perfbench"


def revision() -> str:
    """The git revision, or a digest of the program's sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]:
        path = ROOT / base
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_one(binary: Path, workload: str, seed: int, seconds: float, trace: int,
            rev: str) -> dict:
    """Runs one workload in its own process; echoes its output and returns
    the parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--rev", rev,
           "--work", str(target_dir() / "perfbench-work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit(f"perfbench: {workload} printed no result line")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    binary = build()
    rev = revision()
    if args.workload:
        result = run_one(binary, args.workload, args.seed, args.seconds, args.trace, rev)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args.seed, args.seconds, args.trace, rev)
        print(f"# {workload}: correct={result['correct']}", flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
