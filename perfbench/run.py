#!/usr/bin/env python3
"""Builds the Prosper benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck [--seed <n>]

The benchmark is the Cargo package in this directory. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the
checkout root); build output goes to stderr, so the last line on stdout
is the benchmark's JSON result. The exit code is the build's if the
build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def rustc_version(env):
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, env=env, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    print(f"host: nproc={os.cpu_count()} rustc={rustc_version(env)!r}", flush=True)
    exe = os.path.join(target, "release", "prosper-perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
