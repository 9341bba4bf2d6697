"""QueryER benchmark: closed-loop `SELECT DEDUP` workloads.

    python3 perfbench/run.py --workload narrow_dsd --seed 1 --seconds 10 --trace 0

Builds the project and the benchmark from source (see build.py), then runs
one workload in a fresh JVM with Spark in local mode. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. The lines before it repeat every metric
with its unit and sample count, the machine and Spark settings, and any
failed query. Run from the root of a checkout; traces and results are
written under `.bench_build/`.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import build  # noqa: E402

WORKLOADS = ["narrow_dsd", "wide_ppl", "session_oagp"]
DRIVER_HEAP = "3g"
RUN_TIMEOUT_S = 175

JDK17_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        classpath, src_hash = build.ensure_built()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build.BUILD_DIR, "work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cmd = [
        build.java_bin(), f"-Xmx{DRIVER_HEAP}", "-Xss8m", "-XX:-UsePerfData", *JDK17_OPENS,
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        f"-Dqueryerbench.outDir={build.BUILD_DIR}",
        f"-Dqueryerbench.gitSha={git_sha()}",
        f"-Dqueryerbench.srcSha256={src_hash}",
        "-cp", classpath, "queryerbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=build.ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
