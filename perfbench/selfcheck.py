"""Quick self-check of the benchmark: tiny inputs, every workload, both modes.

Asserts that BENCHMARK.json names the metrics the runner prints, and that
each run prints every metric by name with its unit, ends with the JSON
result line, verifies every op and fails none.
"""

import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 170


def _printed(stdout, name, unit):
    return any(line.split()[:1] == [name] and unit in line.split()[2:3]
               for line in stdout.splitlines())


def _check_run(script, root, workload, trace, expected):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}: {proc.stderr.strip()[-400:]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), float):
            problems.append(f"{name}: {got}")
        if not _printed(proc.stdout, name, unit):
            problems.append(f"{name} not printed with unit {unit}")
    if not _printed(proc.stdout, "ops_failed_ratio", "ratio"):
        problems.append("ops_failed_ratio not printed")
    if not any(line.startswith("env: nproc=") for line in lines):
        problems.append("environment line missing")
    if trace and not any(line.startswith("# layer") for line in lines):
        problems.append("per-layer table missing")
    if not trace and "samples" not in next(
            (l for l in lines if l.startswith("latency_tail_ms")), ""):
        problems.append("latency_tail_ms printed without percentile and samples")
    return problems


def run(script, root, workloads, end_to_end_units):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if e2e != end_to_end_units:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != runner {end_to_end_units}")
    if [w["name"] for w in bench["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for workload in workloads:
        for trace, expected in ((0, e2e), (1, layer)):
            found = _check_run(script, root, workload, trace, expected)
            status = "ok" if not found else "FAILED"
            print(f"self-check {workload} trace={trace}: {status}")
            problems += [f"{workload} trace={trace}: {p}" for p in found]
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check ok" if not problems else f"self-check: {len(problems)} problems")
    return 0 if not problems else 1
