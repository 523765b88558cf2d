"""Byte-identity manifest of spanforge's outputs over a fixed CLI and API matrix.

Runs the matrix below in a temporary directory and writes a manifest that
maps each file's path (relative to that directory) to its sha256 and size.
Two trees give the same outputs exactly when their manifests are equal, so a
change that must not move any result runs this at its parent and at itself:

    PYTHONPATH=/path/to/parent/src python scripts/identity.py --out parent.json
    PYTHONPATH=src python scripts/identity.py --against parent.json

``--against MANIFEST`` prints each path whose entry differs from MANIFEST's,
or that only one side has, and exits 1 when there is any.

The matrix: ``gen``, then ``gen`` twice more, each under its own ``--seed``, once
with 120-token passages and once with no distractors, so most tokens drawn
are filler; ``train-base`` with dev evaluation and step checkpoints
(so its run log carries probe and eval records); ``collect``; ``train`` under
the default config, with ``z_refresh_every`` and ``z_match=text``, with
``objective=ce``, with ``alpha`` at 0 and at 1, with random mining, with
``mining_theta=3`` and with top1 mining whose negatives are reused for two
steps (``remine_every=2``); ``eval`` twice; ``sweep`` over the alpha axis, then over
each other axis for one epoch (mining at top1 and random, z_size at 2 and 4,
tau at 1 and 10), then ``report``;
and, through the API, ``run_eval`` and ``collect_candidates`` on a
``max_len`` that cuts more golds. The passage outgrows ``max_len``, so
training skips an example whose gold is cut and evaluation scores one, and
the train split spans three 32-example decoding chunks. A last API case runs
both on one ragged 32-example chunk: passages of 24 to 120 tokens beside one
of 2 tokens, whose 3 legal spans are fewer than the eval k of 10, so top-k
selection keeps whole rows and pads. Each command's stdout is kept as a file
too. A run takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from spanforge.cli import run
from spanforge.corpus import CorpusSpec, Dataset, DistractorPolicy, generate_corpus
from spanforge.encoder import EncoderConfig, init_params, load_checkpoint
from spanforge.losses import LossConfig
from spanforge.trainer import TrainConfig, collect_candidates, run_eval

CORPUS_CFG = """\
vocab_size=60
num_examples=104
passage_len=16
answer_len_min=1
answer_len_max=2
prefix_overlap_count=1
suffix_overlap_count=1
full_decoys=1
seed=5
num_dev=8
num_test=8
"""

TRAIN_CFG = """\
d_model=8
d_ff=12
max_len=20
k_frozen=4
k_dynamic=8
lr=0.005
epochs=2
batch_size=12
checkpoint_every=2
eval_every=3
max_answer_len=3
"""

MATRIX = [
    ("gen", ["gen", "--spec", "corpus.cfg", "--out", "data"]),
    # filler-heavy passages, where nearly every draw is a filler token
    ("gen_long", ["gen", "--spec", "corpus.cfg", "--out", "data_long", "--seed", "11", "--config", "passage_len=120"]),
    (
        "gen_plain",
        ["gen", "--spec", "corpus.cfg", "--out", "data_plain", "--seed", "12", "--config", "prefix_overlap_count=0",
         "--config", "suffix_overlap_count=0", "--config", "full_decoys=0"],
    ),
    ("train_base", ["train-base", "--base", "train.cfg", "--data", "data", "--out", "base", "--seed", "2"]),
    ("collect", ["collect", "--ckpt", "base/base.ckpt", "--base", "train.cfg", "--data", "data", "--out", "base"]),
    (
        "ft_default",
        ["train", "--base", "train.cfg", "--ckpt", "base/base.ckpt", "--data", "data", "--out", "ft_default"],
    ),
    (
        "ft_refresh",
        ["train", "--base", "train.cfg", "--ckpt", "base/base.ckpt", "--data", "data", "--out", "ft_refresh",
         "--config", "z_refresh_every=2", "--config", "z_match=text", "--config", "remine_every=2", "--seed", "4"],
    ),
    (
        "ft_ce",
        ["train", "--base", "train.cfg", "--ckpt", "base/base.ckpt", "--data", "data", "--out", "ft_ce",
         "--config", "objective=ce"],
    ),
    # each side of the combined objective alone, and the other mining variants
    *(
        (f"ft_{name}", ["train", "--base", "train.cfg", "--ckpt", "base/base.ckpt", "--data", "data",
                        "--out", f"ft_{name}", "--config", pair])
        for name, pair in (("alpha0", "alpha=0"), ("alpha1", "alpha=1"), ("random", "mining_variant=random"),
                           ("theta3", "mining_theta=3"))
    ),
    (
        "ft_top1_remine",
        ["train", "--base", "train.cfg", "--ckpt", "base/base.ckpt", "--data", "data", "--out", "ft_top1_remine",
         "--config", "mining_variant=top1", "--config", "remine_every=2"],
    ),
    (
        "eval_test",
        ["eval", "--ckpt", "ft_default/finetuned.ckpt", "--data", "data/test.jsonl", "--out", "eval/test.csv"],
    ),
    (
        "eval_train",
        ["eval", "--ckpt", "ft_refresh/finetuned.ckpt", "--data", "data/train.jsonl", "--k", "1,2,4",
         "--out", "eval/train.csv", "--config", "question_max_len=1", "--config", "max_answer_len=2"],
    ),
    (
        "sweep",
        ["sweep", "--axis", "alpha", "--values", "0.2,0.8", "--seeds", "0,1", "--base", "train.cfg", "--data", "data",
         "--out", "sweep", "--config", "epochs=1"],
    ),
    # the other axes, each a one-epoch sweep of two values
    *(
        (f"sweep_{axis}", ["sweep", "--axis", axis, "--values", values, "--base", "train.cfg", "--data", "data",
                           "--out", f"sweep_{axis}", "--config", "epochs=1"])
        for axis, values in (("mining", "top1,random"), ("z_size", "2,4"), ("tau", "1,10"))
    ),
    (
        "report",
        ["report", "sweep/alpha_0.2/seed_0", "sweep/alpha_0.2/seed_1", "sweep/alpha_0.8/seed_0",
         "sweep/alpha_0.8/seed_1", "--out", "sweep/report"],
    ),
]


def run_matrix(root: Path) -> None:
    """Every command of the matrix, run in ``root``; raises on a nonzero exit."""
    (root / "corpus.cfg").write_text(CORPUS_CFG, encoding="utf-8")
    (root / "train.cfg").write_text(TRAIN_CFG, encoding="utf-8")
    (root / "stdout").mkdir()
    cwd = os.getcwd()
    os.chdir(root)  # relative paths keep the temporary directory out of every output
    try:
        for name, argv in MATRIX:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(argv)
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
            Path("stdout", f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")
        api_calls(Path("."))
    finally:
        os.chdir(cwd)


def api_calls(root: Path) -> None:
    """run_eval and collect_candidates under a max_len that truncates some golds."""
    ds = Dataset.load(root / "data")
    enc_cfg, params = load_checkpoint(root / "ft_default" / "finetuned.ckpt")
    cfg = TrainConfig(encoder=replace(enc_cfg, max_len=16), max_answer_len=4, z_match="text")
    out = root / "api"
    out.mkdir()
    run_eval(params, cfg, ds.train, ds.vocab, k_list=(1, 3, 7)).save_json(out / "eval_train.json")
    collect_candidates(params, cfg, ds.train, ds.vocab, out / "candidates.jsonl")
    ragged_chunk(out)


def ragged_chunk(out: Path) -> None:
    """run_eval and collect_candidates on one chunk of ragged passages, one
    of them with fewer legal spans than the eval k."""
    by_len = []
    for plen in (24, 48, 72, 96, 120):
        ds = generate_corpus(CorpusSpec(vocab_size=60, num_examples=9, passage_len=plen, seed=plen, num_dev=1, num_test=1))
        by_len.append([replace(ex, id=f"p{plen}-{ex.id}") for ex in ds.train])
    examples = [ex for same_rank in zip(*by_len) for ex in same_rank]  # lengths 24, 48, ..., 120, 24, ...
    tiny = CorpusSpec(vocab_size=60, num_examples=3, passage_len=2, answer_len_range=(1, 1),
                      distractors=DistractorPolicy(0, 0, 0), seed=2, num_dev=1, num_test=1)
    chunk = [replace(ex, id=f"p2-{ex.id}") for ex in generate_corpus(tiny).train] + examples[:31]
    enc_cfg = EncoderConfig(vocab_size=len(ds.vocab), d_model=8, d_ff=12, max_len=128)
    cfg = TrainConfig(encoder=enc_cfg, loss=LossConfig(k_frozen=3), max_answer_len=4)
    params = init_params(enc_cfg, seed=3)
    run_eval(params, cfg, chunk, ds.vocab).save_json(out / "eval_ragged.json")
    collect_candidates(params, cfg, chunk, ds.vocab, out / "candidates_ragged.jsonl")


def manifest(root: Path) -> dict[str, dict]:
    entries = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        entries[path.relative_to(root).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return entries


def differences(ours: dict[str, dict], theirs: dict[str, dict]) -> list[str]:
    lines = []
    for path in sorted(set(ours) | set(theirs)):
        if path not in theirs:
            lines.append(f"only here: {path}")
        elif path not in ours:
            lines.append(f"only in the other manifest: {path}")
        elif ours[path] != theirs[path]:
            lines.append(f"differs: {path} (size {theirs[path]['size']} -> {ours[path]['size']})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the manifest (JSON) here; default stdout")
    parser.add_argument("--against", help="a manifest to compare with; prints each differing file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="spanforge_identity_") as tmp:
        run_matrix(Path(tmp))
        entries = manifest(Path(tmp))

    text = json.dumps(entries, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif not args.against:
        sys.stdout.write(text)
    if args.against:
        theirs = json.loads(Path(args.against).read_text(encoding="utf-8"))
        diff = differences(entries, theirs)
        for line in diff:
            print(line)
        print(f"{len(entries)} files, {len(diff)} differing")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
