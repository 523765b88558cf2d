"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

For each workload it checks that
  * two untraced runs at one seed give identical loss_final and inputs,
  * a second seed changes the generated inputs,
  * two traced runs at one seed give identical per-op call counts,
  * the traced run's loss_final equals the untraced one's (the wrappers are
    transparent),
  * every run is correct and has no failed op,
and, once, that the metric names and units the runs print are exactly the
ones BENCHMARK.json declares, and that the benchmark exits non-zero without
printing a result when the program's sources are absent.

Exits 0 when every check passes; prints one line per failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"


def run(workload: str, seed: int, seconds: float, trace: int, cwd: Path = REPO_ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def measured(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = run(workload, seed, seconds, trace)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return result, record


def _calls(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


def check_workload(workload: str, seconds: float, declared: dict) -> list[str]:
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{workload}: {what}")

    a, rec_a = measured(workload, 0, seconds, 0)
    b, rec_b = measured(workload, 0, seconds, 0)
    c, rec_c = measured(workload, 1, seconds, 0)
    t1, rec_t1 = measured(workload, 0, seconds, 1)
    t2, _ = measured(workload, 0, seconds, 1)

    for name, res in (("seed 0", a), ("seed 0 again", b), ("seed 1", c), ("traced", t1), ("traced again", t2)):
        expect(res["correct"] and res["failed"] == 0, f"{name} run is not correct or has failed ops")
    expect(a["metrics"]["loss_final"]["value"] == b["metrics"]["loss_final"]["value"],
           "two runs at one seed differ in loss_final")
    expect(rec_a["input_digest"] == rec_b["input_digest"], "two runs at one seed differ in their inputs")
    expect(rec_a["input_digest"] != rec_c["input_digest"], "a second seed does not change the inputs")
    expect(_calls(t1) == _calls(t2), "two traced runs at one seed differ in per-op call counts")
    expect(all(p["loss_final"] == a["metrics"]["loss_final"]["value"] for p in rec_t1["phases"]),
           "traced loss_final differs from the untraced one")

    for key, res in (("end_to_end", a), ("per_layer", t1)):
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared[key]}
        expect(got == want, f"{key} metrics differ from BENCHMARK.json: "
                            f"extra {sorted(set(got) - set(want))}, missing {sorted(set(want) - set(got))}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = RESULTS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(REPO_ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "perfbench" / path.name)
    try:
        proc = run("base_ce", 0, 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["without src/ the benchmark exited 0 or printed a result"]
    return []


def main(argv=None) -> int:
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description="Self-tests of the spanforge benchmark.")
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--workload", action="append", choices=workloads)
    args = ap.parse_args(argv)
    problems = check_refuses_without_sources()
    for workload in args.workload or workloads:
        problems += check_workload(workload, args.seconds, declared)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
