"""Build file of the QueryER benchmark.

Compiles the project's main sources (`src/main/scala`) together with the
benchmark's own sources (`perfbench/src`) with the Scala compiler that
ships in the Spark distribution's `jars/` directory, so no build tool or
dependency resolution is needed. Classes go to
`.bench_build/classes-<hash>` at the root of the checkout, keyed by a
hash of every source file; an up-to-date build is reused.

    python3 perfbench/build.py        # build, print the classpath
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROJECT_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")
SCALAC_FLAGS = ["-deprecation:false", "-nowarn", "-encoding", "UTF-8"]


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no `java` on PATH and JAVA_HOME is unset")
    return found


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME/jars, else the
    one next to `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def sources():
    if not os.path.isdir(PROJECT_SRC):
        raise BuildError(f"project sources not found: {os.path.relpath(PROJECT_SRC, ROOT)}/ "
                         "(run from a full checkout of the repository)")
    files = sorted(glob.glob(os.path.join(PROJECT_SRC, "**", "*.scala"), recursive=True)
                   + glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def source_hash(files):
    h = hashlib.sha256(" ".join(SCALAC_FLAGS).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def ensure_built():
    """Compile if needed; return (classpath, source hash)."""
    files = sources()
    key = source_hash(files)
    jars = spark_jars()
    out = os.path.join(BUILD_DIR, "classes-" + key[:16])
    classpath = os.pathsep.join([out, os.path.join(jars, "*")])
    if os.path.exists(os.path.join(out, ".complete")):
        return classpath, key
    for stale in glob.glob(os.path.join(BUILD_DIR, "classes-*")):
        shutil.rmtree(stale, ignore_errors=True)
    tmp = out + ".tmp"
    os.makedirs(tmp)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", *SCALAC_FLAGS, "-classpath", os.path.join(jars, "*"),
           "-d", tmp, *files]
    print(f"perfbench: compiling {len(files)} Scala sources", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    os.rename(tmp, out)
    open(os.path.join(out, ".complete"), "w").close()
    return classpath, key


if __name__ == "__main__":
    try:
        print(ensure_built()[0])
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        sys.exit(2)
