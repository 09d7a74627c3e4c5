#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record <file.jsonl>] [--trace-dir <dir>]

Builds the `perfbench` crate (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` at the repository root when that is unset, then runs it
with the given arguments. The benchmark's last line of standard output is
its JSON result; build output goes to standard error. Traced runs write
their spans under perfbench/out/ unless --trace-dir says otherwise.

Workloads: spgemm-local, spgemm-batched, mcl-session, serve-closed.
See perfbench/README.md for what each measures, and compare.py for
diffing two sets of recorded runs.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ are not here to build", file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        return 1
    args = list(argv)
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(HERE, "out")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
