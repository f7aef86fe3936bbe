#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <mis-rmat|coloring-rmat|dmr-mesh> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ together with the optipar
sources in src/ (Release) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that variable is unset; later calls rebuild
only what changed. Build output goes to stderr. The driver's standard
output is passed through, so the last line is its JSON result.
--selftest builds and runs the output-check tests instead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The driver stops measuring after --seconds plus one repetition; a run
# still going after this long is hung and counts as failed.
DRIVER_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: optipar sources not found at src/; "
                 "run from the root of a full checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(len(os.sched_getaffinity(0)), 8))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "--parallel", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    selftest = argv == ["--selftest"]
    try:
        exe = build("e2e_checks_test" if selftest else "e2e_driver")
    except subprocess.CalledProcessError as err:
        sys.exit(f"run.py: build failed ({err})")
    cmd = [exe] if selftest else [exe] + argv
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: driver still running after {DRIVER_TIMEOUT_S} s; "
              "killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
