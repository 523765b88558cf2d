"""spanforge benchmark: one workload, timed through public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload base_ce --seed 0 --seconds 20 --trace 0

Workloads: base_ce, finetune_combined, infer_ragged (see contract.json for
why each exists and what it runs). The run is a closed loop with one caller:
it sets the workload up several times, runs one untimed warm-up round that
becomes the reference output, then repeats rounds for ``--seconds`` (and at
least MIN_OPS ops). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced rounds with rounds in which every layer
binding is wrapped, and reports the per-layer split; alternating makes both
kinds of round see the same machine load, so their ratio is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run, environment included, goes to ``perfbench/results/``; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, SpanRecorder, hooks_installed

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# One BLAS thread: with the default pool, identical runs of ragged collect
# ranged 528-1161 examples/s on a 2-core machine; with one, 951-1089.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 100  # so step_ms_p90 has at least ten samples above it
MAX_LOOP_FACTOR = 4  # stop at this multiple of --seconds even below MIN_OPS
SETUP_REPEATS = 5
SPANS_KEPT = 100_000
COUNT_EMPTY = frozenset({"mining.select_hard_negatives"})

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "examples_per_s": "1/s",
    "loss_final": "nats",
    "peak_rss_mb": "MB",
}


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    src = REPO_ROOT / "src"
    package = src / "spanforge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spanforge sources at {package}")
    sys.path.insert(0, str(src))
    import spanforge

    if Path(spanforge.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported spanforge from {spanforge.__file__}, not {package}")


def environment(numpy) -> dict:
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src" / "spanforge").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Ops and timings summed over the rounds of one timed phase."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.op_ns: list[int] = []
        self.pre_ns: list[int] = []
        self.wall_ns = 0
        self.phase_ns: dict[str, int] = {}
        self.errors: list[str] = []
        self.last = None

    def add(self, rnd, ref, bad: dict[int, str]) -> None:
        self.rounds += 1
        self.last = rnd
        for i, out in enumerate(rnd.outputs):
            self.attempted += 1
            if out is not None:
                self.completed += 1
            same = out is not None and i < len(ref.outputs) and out == ref.outputs[i]
            if not same or i in bad:
                self.failed += 1
        self.op_ns += rnd.op_ns
        self.pre_ns += rnd.pre_ns
        self.wall_ns += rnd.wall_ns
        for k, v in rnd.phase_ns.items():
            self.phase_ns[k] = self.phase_ns.get(k, 0) + v
        self.errors += rnd.errors[: max(0, 5 - len(self.errors))]


def timed_loop(workload, prog, clock, ref, bad, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.add(workload.run_round(prog, clock, None), ref, bad)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tally.attempted >= MIN_OPS or elapsed >= MAX_LOOP_FACTOR * seconds):
            return tally


def alternating_loop(workload, prog, clock, ref, bad, seconds: float, layers: dict, recorder):
    untraced, traced = Tally(), Tally()
    start = time.perf_counter()
    while True:
        untraced.add(workload.run_round(prog, clock, None), ref, bad)
        with hooks_installed(recorder, layers, COUNT_EMPTY) as missing:
            traced.add(workload.run_round(prog, clock, recorder), ref, bad)
        if time.perf_counter() - start >= seconds:
            return untraced, traced, missing


def end_to_end_metrics(workload, tally: Tally, setup_s: list[float]) -> dict[str, float]:
    ops = sorted(tally.op_ns)
    wall_s = tally.wall_ns / 1e9
    pre_s = statistics.median(tally.pre_ns) / 1e9 if tally.pre_ns else 0.0
    return {
        "setup_s": statistics.median(setup_s) + pre_s,
        "step_ms_p50": statistics.median(ops) / 1e6 if ops else math.nan,
        "step_ms_p90": statistics.quantiles(ops, n=10, method="inclusive")[8] / 1e6 if len(ops) > 1 else math.nan,
        "examples_per_s": tally.completed * workload.examples_per_op / wall_s if wall_s > 0 else math.nan,
        "loss_final": workload.loss_final(tally.last),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, layers: dict, recorder, untraced: Tally, traced: Tally) -> dict[str, tuple[float, str]]:
    ops = max(traced.completed, 1)
    out: dict[str, tuple[float, str]] = {}
    for layer in layers:
        out[f"{layer}.calls"] = (recorder.calls_of(layer) / ops, "calls/op")
        out[f"{layer}.self_ms"] = (recorder.self_ns_of(layer) / ops / 1e6, "ms/op")
    examples = traced.completed * workload.examples_per_op
    decodes = recorder.calls_of("spandecode.topk_spans")
    mines = recorder.calls_of("mining.select_hard_negatives")
    step_ms = recorder.root_ns / ops / 1e6
    untraced_ms = untraced.wall_ns / max(untraced.completed, 1) / 1e6
    out[f"{ROOT_SPAN}.self_ms"] = (recorder.self_ns_of(ROOT_SPAN) / ops / 1e6, "ms/op")
    out["encoder.forward.per_example"] = (recorder.calls_of("encoder.forward") / max(examples, 1), "calls/example")
    out["spandecode.text_per_decode"] = (
        recorder.calls_under("spandecode.topk_spans", "corpus.span_text") / decodes if decodes else 0.0, "calls/call")
    out["mining.skip_share"] = (recorder.empty_of("mining.select_hard_negatives") / mines if mines else 0.0, "share")
    out["trace.step_ms"] = (step_ms, "ms/op")
    out["trace.overhead_share"] = (step_ms / untraced_ms - 1.0 if untraced_ms > 0 else 0.0, "share")
    return out


def traced_report(workload, layers: dict, recorder, untraced: Tally, traced: Tally, missing: list[str]):
    layer_metrics = per_layer_metrics(workload, layers, recorder, untraced, traced)
    unmeasured = sorted(layer for layer, spec in layers.items() if all(b in missing for b in spec["bindings"]))
    accounting = {
        "layers_self": sum(layer_metrics[f"{layer}.self_ms"][0] for layer in layers),
        "loop_self": layer_metrics[f"{ROOT_SPAN}.self_ms"][0],
        "trace_step": layer_metrics["trace.step_ms"][0],
    }
    lines = [f"traced {traced.completed} ops in {traced.rounds} rounds, untraced {untraced.completed} ops"]
    for name, (value, unit) in layer_metrics.items():
        note = "  (not measured)" if name.rsplit(".", 1)[0] in unmeasured else ""
        lines.append(f"{name:42s} {value:14.6f} {unit}{note}")
    lines += [f"not measured: binding {binding} is missing" for binding in missing]
    lines.append(f"accounting: layer self {accounting['layers_self']:.6f} + loop self {accounting['loop_self']:.6f}"
                 f" = {accounting['layers_self'] + accounting['loop_self']:.6f} ms/op;"
                 f" traced step {accounting['trace_step']:.6f} ms/op")
    extra = {"missing_bindings": missing, "not_measured": unmeasured, "accounting_ms": accounting,
             "spans_kept": recorder.kept, "spans_dropped": recorder.dropped}
    return layer_metrics, lines, extra


def untraced_report(workload, timed: Tally, setup_s: list[float]):
    values = end_to_end_metrics(workload, timed, setup_s)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    lines = [f"timed {timed.completed} ops in {timed.rounds} rounds ({timed.wall_ns / 1e9:.2f} s)"]
    lines += [f"{name:24s} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    extra = {}
    if timed.phase_ns:  # infer_ragged splits each op into collect and eval
        examples = timed.completed * workload.examples_per_op
        for phase, ns in timed.phase_ns.items():
            extra[f"{phase}_examples_per_s"] = examples / (ns / 1e9) if ns else math.nan
    else:
        extra["train_examples_per_s"] = values["examples_per_s"]
    lines += [f"{name:24s} {value:14.6f} 1/s" for name, value in extra.items()]
    return metrics, lines, extra


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    contract = json.loads((BENCH_DIR / "contract.json").read_text(encoding="utf-8"))
    args = parse_args(argv, tuple(contract["workloads"]))
    pin_blas_threads()
    import_program()
    import numpy

    from workloads import WORKLOADS, MissingEntryPoint, Program, StepClock

    try:
        prog = Program({**contract["entry_points"], **contract["oracles"]})
    except MissingEntryPoint as exc:
        raise SystemExit(f"perfbench: missing entry point(s): {exc}")
    clock = StepClock()
    try:
        clock.install(contract["step_boundary"]["binding"])
    except MissingEntryPoint as exc:
        raise SystemExit(f"perfbench: missing step-boundary hook: {exc}")

    workload = WORKLOADS[args.workload]()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(prog, args.seed)
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ref = workload.run_round(prog, clock, None)
        warmup_s = time.perf_counter() - t0
        bad = workload.reference_problems(prog, ref)

        if args.trace:
            recorder = SpanRecorder(SPANS_KEPT)
            untraced, traced, missing = alternating_loop(
                workload, prog, clock, ref, bad, args.seconds, contract["layers"], recorder)
            tallies = (untraced, traced)
        else:
            timed = timed_loop(workload, prog, clock, ref, bad, args.seconds)
            tallies = (timed,)
    finally:
        clock.uninstall()

    if args.trace:
        metrics, report, extra = traced_report(workload, contract["layers"], recorder, untraced, traced, missing)
    else:
        metrics, report, extra = untraced_report(workload, timed, setup_s)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = failed == 0 and not bad and finite
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    env = environment(numpy)
    lines = [
        f"spanforge benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "environment: " + json.dumps(env, sort_keys=True),
        *report,
        f"{'failed_share':24s} {failed / attempted:14.6f} share ({failed} failed of {attempted} ops attempted)",
        *(f"check failed: {problem}" for _, problem in sorted(bad.items())[:5]),
        *(f"op raised: {error}" for error in errors),
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "input_digest": workload.input_digest(),
        "setup_runs_s": setup_s,
        "warmup_s": warmup_s,
        "reference_problems": {str(i): p for i, p in sorted(bad.items())},
        "errors": errors,
        "phases": [
            {"rounds": t.rounds, "attempted": t.attempted, "failed": t.failed, "completed": t.completed,
             "wall_s": t.wall_ns / 1e9, "phase_s": {k: v / 1e9 for k, v in t.phase_ns.items()},
             "loss_final": workload.loss_final(t.last)}
            for t in tallies
        ],
        **extra,
        **result,
    }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        recorder.write(RESULTS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
