#!/usr/bin/env python3
"""Builds and runs the simulator benchmark from the root of a checkout.

    python3 simbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1 \
        [--date YYYY-MM-DD]

Builds the `simbench` package (its own Cargo workspace, depending on the
repository's crates by path) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it with the same arguments plus a stamp of the
toolchain and commit. The last line of standard output is the result
JSON. Exits non-zero without a result when the repository's sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg):
    print(f"simbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def output_of(cmd):
    """First line of a command's output, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip().splitlines()[0] if out.stdout.strip() else "unknown"


def main():
    for needed in ("Cargo.toml", "crates", "vendor"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository source {needed!r} not found next to simbench/")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    args = sys.argv[1:]
    stamp = [
        "--rustc", output_of(["rustc", "-V"]),
        "--git-sha", output_of(["git", "rev-parse", "HEAD"]),
    ]
    binary = os.path.join(target, "release", "simbench")
    sys.exit(subprocess.run([binary, *args, *stamp], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
