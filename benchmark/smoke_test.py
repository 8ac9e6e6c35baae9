#!/usr/bin/env python3
"""Smoke test for the benchmark harness, on the tiny dataset.

Run from the repository root:

    python3 benchmark/smoke_test.py

It checks that an untraced run emits exactly BENCHMARK.json's end-to-end
metrics and a traced run exactly its per-layer metrics, with their units;
that every output check passes, including the traced call reproducing
LargeEA.run; and that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / BENCH.relative_to(ROOT) / "run.py"),
           "--workload", "tiny", "--seed", "0", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(trace, expected):
    r = run(trace)
    assert r.returncode == 0, f"trace {trace}: exit {r.returncode}\n{r.stderr[-3000:]}"
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, (f"trace {trace}: missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    return res


def newest_record(trace):
    recs = (ROOT / ".bench_build" / "largeea" / "records").glob(f"tiny.seed0.trace{trace}.*.json")
    return json.loads(max(recs, key=lambda p: p.stat().st_mtime).read_text())


def main():
    check_run(0, SPEC["end_to_end"])
    check_run(1, SPEC["per_layer"])
    rec = newest_record(1)
    assert rec["failures"] == [], rec["failures"]
    assert rec["traced_calls_matching_run"] >= 1, rec["traced_calls_matching_run"]

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p)
    r = run(0, cwd=bare)
    shutil.rmtree(bare)
    assert r.returncode != 0, "benchmark ran without the program's sources"
    assert '"correct"' not in r.stdout, r.stdout
    print("benchmark smoke test passed")


if __name__ == "__main__":
    main()
