#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 zbench/run.py --workload <cold-512|reprompt-256|volume-wire>
                          --seed <n> --seconds <s> --trace <0|1>

Builds zen_bench from the checkout's sources into .bench_build/ (CMake,
RelWithDebInfo; the first run compiles, later runs only re-check), then runs
it with the given arguments. zen_bench prints an environment line and, as
the last line of standard output, the JSON result. Exits non-zero without a
result when the program sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold-512", "reprompt-256", "volume-wire")
BUILD_TIMEOUT_S = 840


def source_digest(root: Path) -> str:
    """sha256 over the program and benchmark sources (the checkout need not
    be a git repository, so this identifies what was built)."""
    h = hashlib.sha256()
    for top in ("src", "zbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root: Path, build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "zbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "zen_bench"],
                   check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return build_dir / "zen_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no program sources under {root / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    try:
        binary = build(root, root / ".bench_build")
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["ZBENCH_GIT_SHA"] = git_sha(root)
    env["ZBENCH_SOURCE_DIGEST"] = source_digest(root)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    # zen_bench writes its scratch inputs under the working directory.
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
