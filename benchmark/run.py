#!/usr/bin/env python3
"""LargeEA benchmark: build the program from source, run one workload.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program (src/main/scala) and the harness (benchmark/src) are compiled
with the Scala compiler shipped in the Spark distribution into
.bench_build/largeea/classes-<source hash>; a later run with the same
sources reuses the build. The harness then runs in a fresh JVM with the
pinned settings below. Its last stdout line, relayed here as the last line,
is the result JSON; the full run record goes to .bench_build/largeea/records.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

# Pinned JVM heap and GC. The Spark settings are pinned in the harness
# (Harness.scala); the harness writes all of them into every run record.
JVM_PINNED = ["-Xmx4g", "-XX:+UseG1GC"]
# The harness starts no call past 160 s of JVM uptime; the JVM is killed here.
JVM_TIMEOUT_S = 172

# Spark on JDK 17 needs the module opens spark-submit normally injects.
JPMS_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
PROGRAM_RES = ROOT / "src" / "main" / "resources"
HARNESS_SRC = BENCH / "src"
WORK = ROOT / ".bench_build" / "largeea"


def fail(msg, code=2):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def java():
    home = os.environ.get("JAVA_HOME")
    return str(pathlib.Path(home) / "bin" / "java") if home else "java"


def spark_jars():
    """Jars of the Spark distribution: $SPARK_HOME, else the first
    spark-submit on PATH that sits in a distribution."""
    if os.environ.get("SPARK_HOME"):
        homes = [pathlib.Path(os.environ["SPARK_HOME"])]
    else:
        submits = (pathlib.Path(d, "spark-submit") for d in os.environ.get("PATH", "").split(os.pathsep))
        homes = [p.resolve().parent.parent for p in submits if p.is_file()]
    for home in homes:
        jars = home / "jars"
        if any(jars.glob("spark-core_*.jar")):
            return str(jars / "*")
    fail(f"no Spark distribution found in SPARK_HOME or on PATH (tried {homes})")


def sources():
    if not PROGRAM_SRC.is_dir():
        fail(f"{PROGRAM_SRC.relative_to(ROOT)} not found; run from the repository root")
    srcs = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(HARNESS_SRC.rglob("*.scala"))
    res = sorted(p for p in PROGRAM_RES.rglob("*") if p.is_file()) if PROGRAM_RES.is_dir() else []
    return srcs, res


def build(cp_jars):
    """Compile program + harness once per source hash; return the class dir."""
    srcs, res = sources()
    h = hashlib.sha256()
    for p in srcs + res:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    digest = h.hexdigest()[:16]
    out = WORK / f"classes-{digest}"
    if (out / ".complete").exists():
        return out, digest
    tmp = WORK / f"classes-{digest}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = WORK / f"scalac-{digest}.args"
    argfile.write_text("\n".join(str(p) for p in srcs) + "\n")
    t0 = time.time()
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", cp_jars, "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"compilation failed (exit {r.returncode})", 3)
    for p in res:
        dst = tmp / p.relative_to(PROGRAM_RES)
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(p, dst)
    (tmp / ".complete").write_text(f"{len(srcs)} sources\n")
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    argfile.unlink()
    print(f"benchmark: compiled {len(srcs)} sources in {time.time() - t0:.1f} s", file=sys.stderr)
    return out, digest


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def result_index(lines):
    """Index of the last line that is a result object, or None."""
    for i in reversed(range(len(lines))):
        try:
            obj = json.loads(lines[i])
        except ValueError:
            continue
        if isinstance(obj, dict) and set(obj) == {"correct", "attempted", "failed", "metrics"}:
            return i
    return None


def on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through main(), which kills the JVM


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    cp_jars = spark_jars()
    classes, digest = build(cp_jars)

    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = WORK / "records" / f"{a.workload}.seed{a.seed}.trace{a.trace}.{stamp}.{os.getpid()}.json"

    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = [java(), "-XX:-UsePerfData", *JVM_PINNED,
           *[f"--add-opens={p}=ALL-UNNAMED" for p in JPMS_OPENS],
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={local}",
           f"-Dspark.sql.warehouse.dir={WORK / 'spark-warehouse'}",
           "-Dspark.ui.enabled=false",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", f"{classes}{os.pathsep}{cp_jars}",
           "largeeabench.Harness",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--record", str(record),
           "--meta.git_rev", git_rev(),
           "--meta.source_sha", digest,
           "--meta.jvm_flags", " ".join(JVM_PINNED)]
    signal.signal(signal.SIGTERM, on_sigterm)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness did not finish within {JVM_TIMEOUT_S} s", 4)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.splitlines()
    i = result_index(lines)
    if proc.returncode != 0 or i is None:
        sys.stderr.write(out)
        fail(f"harness exited {proc.returncode} without a result", 5)
    for other in lines[:i] + lines[i + 1:]:
        print(other, file=sys.stderr)
    print(lines[i], flush=True)


if __name__ == "__main__":
    main()
