"""Command-line pipeline: corpus generation, the two training phases,
candidate collection, evaluation, sweep harnesses over the four analysis
axes, and report aggregation.

Config files are flat KEY=VALUE text (one pair per line, # comments). Every
documented key can also be overridden on the command line with
``--config KEY=VALUE``. Exit codes: 0 success, 1 usage error, 2 runtime
failure. SPANFORGE_THREADS is reserved: it is validated (an integer >= 1,
else exit 2) and has no other effect; every command runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .corpus import CorpusSpec, Dataset, DistractorPolicy, Vocab, generate_corpus, read_examples_jsonl
from .corpus import write_csv, write_json, write_lines
from .encoder import EncoderConfig, ModelParams, load_checkpoint, save_checkpoint
from .losses import LossConfig
from .metrics import EvalReport
from .mining import MiningStrategy
from .spandecode import read_candidate_store
from .trainer import TrainConfig, collect_candidates, finetune, run_eval, train_base


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract wants 1
        raise UsageError(message)


DEFAULT_AXIS_VALUES = {
    "tau": ["1", "2", "4", "8", "10", "12", "20"],
    "alpha": ["0.1", "0.3", "0.5", "0.7", "0.9"],
    "z_size": ["1", "5", "10", "20", "50"],
    "mining": ["most_similar:1", "most_similar:10", "most_similar:20", "top1", "random"],
}


def parse_kv_file(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--config expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


CORPUS_KEYS = {
    "vocab_size": int,
    "num_examples": int,
    "passage_len": int,
    "answer_len_min": int,
    "answer_len_max": int,
    "prefix_overlap_count": int,
    "suffix_overlap_count": int,
    "full_decoys": int,
    "seed": int,
    "num_dev": int,
    "num_test": int,
}


def _typed(kv: dict[str, str], keys: dict[str, type], what: str) -> dict:
    """``kv`` converted by ``keys``; refuses an unknown key, and a value that
    does not convert, naming the key."""
    unknown = set(kv) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    typed = {}
    for key, value in kv.items():
        try:
            typed[key] = keys[key](value)
        except ValueError:
            raise ValueError(f"{what} key {key}: cannot read {value!r} as {keys[key].__name__}") from None
    return typed


def _take(typed: dict, *keys: str) -> dict:
    """Remove and return the entries of ``typed`` under ``keys`` that were given."""
    return {key: typed.pop(key) for key in keys if key in typed}


def corpus_spec_from_kv(kv: dict[str, str]) -> CorpusSpec:
    typed = _typed(kv, CORPUS_KEYS, "corpus")
    policy = DistractorPolicy(**_take(typed, "prefix_overlap_count", "suffix_overlap_count", "full_decoys"))
    lo, hi = CorpusSpec.answer_len_range
    lo, hi = typed.pop("answer_len_min", lo), typed.pop("answer_len_max", hi)
    return CorpusSpec(answer_len_range=(lo, hi), distractors=policy, **typed)


TRAIN_KEYS = {
    "d_model": int,
    "d_ff": int,
    "max_len": int,
    "tau": float,
    "alpha": float,
    "k_frozen": int,
    "k_dynamic": int,
    "mining_variant": str,
    "mining_theta": int,
    "lr": float,
    "beta1": float,
    "beta2": float,
    "eps": float,
    "weight_decay": float,
    "epochs": int,
    "batch_size": int,
    "checkpoint_every": int,
    "eval_every": int,
    "seed": int,
    "warmup": float,
    "max_answer_len": int,
    "question_max_len": int,
    "objective": str,
    "z_match": str,
    "z_refresh_every": int,
    "remine_every": int,
    "probe_count": int,
    "probe_top_n": int,
    "z_store": str,
}


def train_config_from_kv(kv: dict[str, str], vocab_size: int) -> tuple[TrainConfig, dict[str, str]]:
    """Build a TrainConfig from flat keys; returns leftover path-like keys."""
    typed = _typed(kv, TRAIN_KEYS, "train")
    extras = {"z_store": typed.pop("z_store", "")}
    strategy = _take(typed, "mining_variant", "mining_theta")
    loss = LossConfig(
        mining=MiningStrategy(**{key.removeprefix("mining_"): val for key, val in strategy.items()}),
        **_take(typed, "tau", "alpha", "k_frozen", "k_dynamic"),
    )
    encoder = EncoderConfig(vocab_size, num_hard_weights=loss.k_frozen, **_take(typed, "d_model", "d_ff", "max_len"))
    b1, b2 = TrainConfig.betas
    betas = (typed.pop("beta1", b1), typed.pop("beta2", b2))
    return TrainConfig(encoder=encoder, loss=loss, betas=betas, **typed), extras


EVAL_KEYS = {"max_answer_len": int, "question_max_len": int, "vocab": str}


def _config_layers(args, path: str | None) -> dict[str, str]:
    """A command's keys, later layers winning: the KEY=VALUE file at ``path``,
    then ``--config`` pairs, then ``--seed`` where the command has one. The
    pairs are parsed first, so a malformed one is a usage error before any
    file is read."""
    overrides = parse_overrides(args.config)
    kv = parse_kv_file(path) if path else {}
    kv.update(overrides)
    if getattr(args, "seed", None) is not None:
        kv["seed"] = str(args.seed)
    return kv


def _from_checkpoint(args) -> tuple[TrainConfig, dict[str, str], Dataset, ModelParams]:
    """``collect`` and ``train``: the layered config with the checkpoint's
    encoder, its extras, the corpus and the checkpoint's parameters."""
    kv = _config_layers(args, args.base)
    ds = Dataset.load(Path(args.data))
    cfg, extras = train_config_from_kv(kv, len(ds.vocab))
    enc_cfg, params = load_checkpoint(args.ckpt)
    return replace(cfg, encoder=enc_cfg), extras, ds, params


def _dev_report(params: ModelParams, cfg: TrainConfig, ds: Dataset, out: Path, what: str) -> int:
    report = run_eval(params, cfg, ds.dev, ds.vocab)
    report.save_json(out / "dev_report.json")
    print(f"{what} done: dev em={report.em:.4f} f1={report.f1:.4f}")
    return 0


def _threads_cap() -> int:
    raw = os.environ.get("SPANFORGE_THREADS", "")
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"SPANFORGE_THREADS must be an integer >= 1, got {raw!r}")
    if cap < 1:
        raise ValueError(f"SPANFORGE_THREADS must be >= 1, got {cap}")
    return cap


def _cmd_gen(args) -> int:
    spec = corpus_spec_from_kv(_config_layers(args, args.spec))
    ds = generate_corpus(spec)
    out = Path(args.out)
    ds.save(out)
    sizes = {name: len(getattr(ds, name)) for name in ("train", "dev", "test")}
    # every spec field, save that a split's size sits under "splits" rather than as num_<split>
    meta = {key: value for key, value in asdict(spec).items() if key.removeprefix("num_") not in sizes}
    write_json(out / "corpus_meta.json", {**meta, "splits": sizes}, sort_keys=True)
    print(f"wrote {'/'.join(map(str, sizes.values()))} examples to {out}")
    return 0


def _cmd_train_base(args) -> int:
    kv = _config_layers(args, args.base)
    ds = Dataset.load(Path(args.data))
    cfg, _ = train_config_from_kv(kv, len(ds.vocab))
    out = Path(args.out)
    params, _ = train_base(cfg, ds.train, ds.vocab, dev_examples=ds.dev, out_dir=out)
    return _dev_report(params, cfg, ds, out, "base training")


def _cmd_collect(args) -> int:
    cfg, _, ds, params = _from_checkpoint(args)
    out = Path(args.out)
    _, summary = collect_candidates(params, cfg, ds.train, ds.vocab, out / "candidates.jsonl")
    print(f"collected {summary['count']} candidate sets (k={summary['k']}); recall@1={summary['recall_at']['1']:.4f}")
    return 0


def _cmd_train(args) -> int:
    cfg, extras, ds, params = _from_checkpoint(args)
    out = Path(args.out)
    if cfg.objective == "combined":
        store_path = Path(extras["z_store"]) if extras["z_store"] else Path(args.ckpt).parent / "candidates.jsonl"
        if not store_path.exists():
            raise FileNotFoundError(f"candidate store not found at {store_path}; run collect first or set z_store=")
        store = read_candidate_store(store_path)
    else:
        store = {}
    tuned, _ = finetune(cfg, ds.train, ds.vocab, store, params, dev_examples=ds.dev, out_dir=out)
    return _dev_report(tuned, cfg, ds, out, "finetune")


def _cmd_eval(args) -> int:
    encoding = _typed(_config_layers(args, None), EVAL_KEYS, "eval")
    enc_cfg, params = load_checkpoint(args.ckpt)
    data_path = Path(args.data)
    examples = read_examples_jsonl(data_path)
    vocab = Vocab.load(Path(encoding.pop("vocab", data_path.parent / "vocab.txt")))
    k_list = tuple(int(k) for k in args.k.split(","))
    cfg = TrainConfig(encoder=enc_cfg, **encoding)
    report = run_eval(params, cfg, examples, vocab, k_list=k_list)
    out_csv = Path(args.out)
    report.save_csv(out_csv)
    report.save_json(out_csv.with_suffix(".json"))
    print(f"eval: em={report.em:.4f} f1={report.f1:.4f} over {len(report.records)} examples")
    return 0


AXIS_KEYS = {"z_size": "k_frozen"}  # every other axis but mining is its own key


def _axis_overrides(axis: str, value: str) -> dict[str, str]:
    if axis != "mining":
        return {AXIS_KEYS.get(axis, axis): value}
    variant, colon, theta = value.partition(":")
    if variant == "most_similar":  # most_similar[:theta]; any other value goes to MiningStrategy as is
        return {"mining_variant": variant, "mining_theta": theta if colon else "1"}
    return {"mining_variant": value}


def _cmd_sweep(args) -> int:
    kv = _config_layers(args, args.base)
    values = list(dict.fromkeys(args.values.split(","))) if args.values else DEFAULT_AXIS_VALUES[args.axis]
    seeds = list(dict.fromkeys(int(s) for s in args.seeds.split(","))) if args.seeds else [0]
    ds = Dataset.load(Path(args.data))
    base_cfg, _ = train_config_from_kv(kv, len(ds.vocab))
    # every value's config is built before any training, so a bad value is refused first
    configs = [
        (value, train_config_from_kv({**kv, **_axis_overrides(args.axis, value)}, len(ds.vocab))[0]) for value in values
    ]
    out = Path(args.out)

    # one shared base checkpoint so axis effects are not confounded
    base_params, _ = train_base(base_cfg, ds.train, ds.vocab)
    save_checkpoint(out / "base.ckpt", base_cfg.encoder, base_params)

    rows = []
    for value, cfg in configs:
        records, _ = collect_candidates(base_params, cfg, ds.train, ds.vocab)
        store = {r["id"]: r for r in records}
        for seed in seeds:
            run_cfg = replace(cfg, seed=seed)
            run_dir = out / f"{args.axis}_{value.replace(':', '_')}" / f"seed_{seed}"
            tuned, _ = finetune(run_cfg, ds.train, ds.vocab, store, base_params, out_dir=run_dir)
            report = run_eval(tuned, run_cfg, ds.test, ds.vocab)
            report.save_json(run_dir / "report.json")
            report.save_csv(run_dir / "report.csv")
            write_json(run_dir / "meta.json", {"axis": args.axis, "value": value, "seed": seed}, sort_keys=True)
            rows.append({"value": value, "seed": seed, "em": report.em, "f1": report.f1})
            print(f"{args.axis}={value} seed={seed}: test em={report.em:.4f} f1={report.f1:.4f}")

    _write_aggregate(out / f"sweep_{args.axis}", args.axis, rows)
    return 0


def _write_aggregate(base_path: Path, axis: str, rows: list[dict]) -> None:
    by_value: dict[str, list[dict]] = {}
    for row in rows:
        by_value.setdefault(row["value"], []).append(row)
    means = {
        v: {
            "em": sum(r["em"] for r in rs) / len(rs),
            "f1": sum(r["f1"] for r in rs) / len(rs),
        }
        for v, rs in by_value.items()
    }
    per_seed = ([axis, row["value"], row["seed"], repr(row["em"]), repr(row["f1"])] for row in rows)
    per_value = ([axis, value, "mean", repr(agg["em"]), repr(agg["f1"])] for value, agg in means.items())
    write_csv(base_path.with_suffix(".csv"), [["axis", "value", "seed", "em", "f1"], *per_seed, *per_value])
    best = max(means, key=lambda v: means[v]["f1"])
    worst = min(means, key=lambda v: means[v]["f1"])
    lines = [
        f"| {axis} | mean em | mean f1 |",
        "|---|---|---|",
    ]
    for value, agg in means.items():
        lines.append(f"| {value} | {agg['em']:.4f} | {agg['f1']:.4f} |")
    lines.append("")
    lines.append(f"best {axis}={best} (f1 {means[best]['f1']:.4f}), worst {axis}={worst} (f1 {means[worst]['f1']:.4f})")
    write_lines(base_path.with_suffix(".txt"), lines)


def _cmd_report(args) -> int:
    rows = []
    missing = []
    for run_dir in args.run_dirs:
        rd = Path(run_dir)
        report_path = rd / "report.json"
        if not report_path.exists():
            missing.append(str(rd))
            continue
        report = EvalReport.load_json(report_path)
        meta_path = rd / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
        rows.append(
            {
                "value": str(meta.get("value", rd.name)),
                "seed": meta.get("seed", ""),
                "em": report.em,
                "f1": report.f1,
            }
        )
    if missing:
        for m in missing:
            print(f"missing report.json in {m}", file=sys.stderr)
        return 2
    _write_aggregate(Path(args.out), "value", rows)
    print(Path(args.out).with_suffix(".txt").read_text(encoding="utf-8"))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="spanforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=True, config=True):
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--spec", default=None, help="corpus spec file (KEY=VALUE lines)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train-base", help="train the base model on span cross-entropy")
    p.add_argument("--base", default=None, help="train config file")
    p.add_argument("--data", required=True, help="corpus directory")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_train_base)

    p = sub.add_parser("collect", help="decode and store frozen candidate sets")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base", default=None)
    common(p, seed=False)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("train", help="finetune with the combined objective")
    p.add_argument("--base", default=None)
    p.add_argument("--ckpt", required=True, help="base checkpoint to start from")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="examples JSONL file")
    p.add_argument("--k", default="1,3,5,10")
    p.add_argument("--out", required=True, help="aggregate CSV path")
    common(p, seed=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run one analysis axis from a shared base checkpoint")
    p.add_argument("--axis", required=True, choices=sorted(DEFAULT_AXIS_VALUES))
    p.add_argument("--base", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--seeds", default=None, help="comma-separated finetune seeds")
    p.add_argument("--out", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="aggregate EvalReports from run directories")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", required=True, help="output path stem (.csv/.txt added)")
    common(p, seed=False, config=False)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        _threads_cap()
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures map to exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
