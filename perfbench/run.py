#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload W --seed N --seconds T --trace {0,1}

The first run configures and builds perfbench/ (which builds the tnums
libraries from the repository's sources); later runs only check that the
build is current. Build output goes to a log file, so the benchmark's own
report reaches standard output untouched: its last line is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One run must end well inside three minutes; the build is not part of it.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then bring the benchmark binary up to date."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # A failed configure must be redone.
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("error: benchmark build failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    # Build outputs go where CARGO_TARGET_DIR points, if set, else .bench_build.
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(out_root, "perfbench"))
    if binary is None:
        return 1
    # The daemon's UNIX socket lives in the work directory; a relative path
    # keeps it inside the socket-path length limit.
    work_dir = os.path.relpath(os.path.join(out_root, "perfbench-work"))
    try:
        return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", work_dir],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
