#!/usr/bin/env python3
"""Builds the end-to-end transaction benchmark from this checkout and runs it.

    python3 txnbench/run.py --workload disjoint|hot|durable_2pc \
        --seed N --seconds S --trace 0|1

The build (the repository's library plus txnbench/, RelWithDebInfo) goes to
$CARGO_TARGET_DIR, default .bench_build, under the checkout root; the first
run configures and compiles, later runs rebuild only what changed.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Every other argument is passed to the `txnbench` binary unchanged.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit of the checkout, else a hash of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "txnbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build(build_root, targets=("txnbench",)):
    """Configures (once) and builds `targets`; returns the txnbench path."""
    build_dir = os.path.join(build_root, "txnbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "txnbench")


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src", "critique"))):
        print("txnbench: the library sources (CMakeLists.txt, src/critique) are "
              "not next to txnbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"txnbench: build failed: {e}", file=sys.stderr)
        return 2
    args = [binary, *argv, "--commit", source_id(),
            "--wal-dir", os.path.join(build_root, "wal"),
            "--spans-dir", os.path.join(build_root, "spans")]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
