#!/usr/bin/env python3
"""Query-engine benchmark: builds the program with the benchmark's sources and runs one workload.

Usage, from the root of a checkout:

    python3 qbench/run.py --workload parallel --seed 1 --seconds 20 --trace 0

The first call in a checkout compiles ``src/main/scala`` together with
``qbench/src`` (sbt, offline) into the build directory (``$CARGO_TARGET_DIR``
or ``.bench_build``); later calls reuse that build while no source changed.
The JVM prints one result line as the last line of standard output: a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
metric names and units are checked against ``BENCHMARK.json``.
``--record`` stores the modeled counters of this seed in
``qbench/counters.tsv`` instead of only checking them.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Each query runs its pipelines inside one worker lambda that is invoked
# once per worker, so by default HotSpot compiles those lambdas only through
# on-stack replacement (600 invocations are needed for a whole-method
# compile). OSR is fragile: when C2 refuses it for one loop of a lambda it
# stops OSR-compiling the whole lambda, and a later deoptimization leaves the
# hot loop in C1 code for the rest of the JVM (seen on Typer's SSB q4.1 in
# about a quarter of the runs, at 20x its usual time). Lower minimum
# invocation counts let the warm-up passes compile the lambdas whole, so the
# timed window measures steady-state code.
JIT_FLAGS = ["-XX:Tier3MinInvocationThreshold=10", "-XX:Tier4MinInvocationThreshold=10"]

# Spark needs these JDK internals opened (the list spark-submit passes).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"qbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group and return (exit code, stdout).

    Whatever happens — normal exit, timeout or interruption — the whole group
    is killed afterwards (a launcher may leave children behind) and waited for.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def sources():
    """Every file the build reads, as paths relative to the checkout root."""
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src")]
    files = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def fingerprint():
    h = hashlib.sha256()
    for f in sources():
        h.update(f.encode() + b"\0")
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(out):
    """Compile once per source state; returns the runtime classpath."""
    stamp = os.path.join(out, "build.json")
    fp = fingerprint()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            prev = json.load(fh)
        if prev.get("fingerprint") == fp:
            return prev["classpath"]
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ, COURSIER_MODE="offline")
    cmd = [sbt, "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(out, 'sbt-global')}",
           "compile", "export Runtime/fullClasspath"]
    print("qbench: building with sbt", file=sys.stderr)
    try:
        code, log = run_child(cmd, 840, cwd=BENCH, env=env, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        fail("build exceeded 840 s")
    if code != 0:
        sys.stderr.write(log[-4000:])
        fail("build failed")
    classpath = log.strip().splitlines()[-1]
    with open(stamp, "w") as fh:
        json.dump({"fingerprint": fp, "classpath": classpath}, fh)
    return classpath


def expected_metrics(trace):
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec):
        fail(f"{spec} not found")
    with open(spec) as fh:
        b = json.load(fh)
    return {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run_child's cleanup
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["parallel", "emulated"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="record this seed's modeled counters instead of only checking them")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"program sources not found under {ROOT}/src/main/scala")

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "qbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    classpath = build(out)

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", *JIT_FLAGS, f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", classpath, "qbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", out, "--counters", os.path.join(BENCH, "counters.tsv")]
    if a.record:
        cmd.append("--record")
    try:
        # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep its temporary files here.
        env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
        code, stdout = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"benchmark JVM exited with code {code}")
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {[k for k in want if k in got and got[k] != want[k]]}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
