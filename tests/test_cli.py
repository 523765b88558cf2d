import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

from spanforge.cli import (
    DEFAULT_AXIS_VALUES,
    _axis_overrides,
    corpus_spec_from_kv,
    parse_kv_file,
    run,
    train_config_from_kv,
)
from spanforge.corpus import CorpusSpec, DistractorPolicy, Vocab
from spanforge.encoder import EncoderConfig, init_params, save_checkpoint
from spanforge.metrics import EvalReport
from spanforge.mining import MiningStrategy
from spanforge.trainer import TrainConfig


CORPUS_CFG = """
# tiny corpus for cli tests
vocab_size=60
num_examples=36
passage_len=14
answer_len_min=1
answer_len_max=2
prefix_overlap_count=1
suffix_overlap_count=1
full_decoys=1
seed=3
num_dev=6
num_test=6
"""

TRAIN_CFG = """
d_model=8
d_ff=12
max_len=20
k_frozen=4
k_dynamic=8
alpha=0.5
tau=10.0
lr=0.005
epochs=2
batch_size=8
checkpoint_every=0
seed=0
max_answer_len=3
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "corpus.cfg").write_text(CORPUS_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    assert run(["gen", "--spec", str(root / "corpus.cfg"), "--out", str(root / "data")]) == 0
    return root


class TestGen:
    def test_outputs_exist(self, workdir):
        data = workdir / "data"
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.txt", "corpus_meta.json"):
            assert (data / name).exists()

    def test_idempotent(self, workdir, tmp_path):
        assert run(["gen", "--spec", str(workdir / "corpus.cfg"), "--out", str(tmp_path / "again")]) == 0
        a = (workdir / "data" / "train.jsonl").read_bytes()
        b = (tmp_path / "again" / "train.jsonl").read_bytes()
        assert a == b

    def test_seed_flag_changes_data(self, workdir, tmp_path):
        assert run(["gen", "--spec", str(workdir / "corpus.cfg"), "--seed", "99", "--out", str(tmp_path / "s99")]) == 0
        assert (tmp_path / "s99" / "train.jsonl").read_bytes() != (workdir / "data" / "train.jsonl").read_bytes()

    def test_corpus_meta_bytes(self, workdir):
        # every CorpusSpec field of the non-default CORPUS_CFG, the split sizes under "splits"
        assert (workdir / "data" / "corpus_meta.json").read_bytes() == (
            b'{"answer_len_range": [1, 2], "distractors": {"full_decoys": 1, "prefix_overlap_count": 1, '
            b'"suffix_overlap_count": 1}, "num_examples": 36, "passage_len": 14, "seed": 3, '
            b'"splits": {"dev": 6, "test": 6, "train": 24}, "vocab_size": 60}\n'
        )


class TestPipeline:
    def test_full_chain(self, workdir):
        data = str(workdir / "data")
        base_dir = workdir / "base"
        assert run(["train-base", "--base", str(workdir / "train.cfg"), "--data", data, "--out", str(base_dir)]) == 0
        assert (base_dir / "base.ckpt").exists()

        assert (
            run(
                [
                    "collect",
                    "--ckpt", str(base_dir / "base.ckpt"),
                    "--base", str(workdir / "train.cfg"),
                    "--data", data,
                    "--out", str(base_dir),
                ]
            )
            == 0
        )
        assert (base_dir / "candidates.jsonl").exists()
        assert (base_dir / "candidates.summary.json").exists()

        tuned_dir = workdir / "tuned"
        assert (
            run(
                [
                    "train",
                    "--base", str(workdir / "train.cfg"),
                    "--ckpt", str(base_dir / "base.ckpt"),
                    "--data", data,
                    "--out", str(tuned_dir),
                ]
            )
            == 0
        )
        assert (tuned_dir / "finetuned.ckpt").exists()

        report_csv = workdir / "report.csv"
        assert (
            run(
                [
                    "eval",
                    "--ckpt", str(tuned_dir / "finetuned.ckpt"),
                    "--data", str(Path(data) / "test.jsonl"),
                    "--k", "1,3,5",
                    "--out", str(report_csv),
                ]
            )
            == 0
        )
        rows = list(csv.reader(report_csv.open()))
        assert rows[0] == ["k", "em", "f1"]
        assert [r[0] for r in rows[1:]] == ["1", "3", "5"]
        ems = [float(r[1]) for r in rows[1:]]
        assert all(a <= b for a, b in zip(ems, ems[1:]))
        assert report_csv.with_suffix(".json").exists()

    def test_eval_honours_question_max_len(self, workdir, tmp_path):
        from spanforge.corpus import Vocab, read_examples_jsonl
        from spanforge.encoder import load_checkpoint
        from spanforge.trainer import TrainConfig, run_eval

        data = workdir / "data"
        assert run(["train-base", "--base", str(workdir / "train.cfg"), "--data", str(data), "--out", str(tmp_path)]) == 0
        ckpt = tmp_path / "base.ckpt"
        report_csv = tmp_path / "report.csv"
        assert (
            run(
                [
                    "eval",
                    "--ckpt", str(ckpt),
                    "--data", str(data / "test.jsonl"),
                    "--k", "1,3",
                    "--out", str(report_csv),
                    "--config", "question_max_len=1",
                ]
            )
            == 0
        )
        enc_cfg, params = load_checkpoint(ckpt)
        examples = read_examples_jsonl(data / "test.jsonl")
        vocab = Vocab.load(data / "vocab.txt")
        expected = run_eval(params, TrainConfig(encoder=enc_cfg, question_max_len=1), examples, vocab, k_list=(1, 3))
        default = run_eval(params, TrainConfig(encoder=enc_cfg), examples, vocab, k_list=(1, 3))
        got = EvalReport.load_json(report_csv.with_suffix(".json"))
        assert got.em == expected.em
        assert got.records == expected.records
        assert got.records != default.records

    def test_eval_reports_a_repeated_k_once(self, workdir, tmp_path):
        data = workdir / "data"
        enc_cfg = EncoderConfig(vocab_size=len(Vocab.load(data / "vocab.txt")), d_model=8, d_ff=12, max_len=20)
        save_checkpoint(tmp_path / "init.ckpt", enc_cfg, init_params(enc_cfg, seed=0))
        report_csv = tmp_path / "report.csv"
        argv = ["eval", "--ckpt", str(tmp_path / "init.ckpt"), "--data", str(data / "test.jsonl"), "--k", "1,1,3"]
        assert run([*argv, "--out", str(report_csv)]) == 0
        assert [r[0] for r in csv.reader(report_csv.open())] == ["k", "1", "3"]
        assert list(json.loads(report_csv.with_suffix(".json").read_text())["aggregates"]["topk_em"]) == ["1", "3"]

    def test_ce_objective_needs_no_store(self, workdir, tmp_path):
        base_dir = workdir / "base"
        assert (
            run(
                [
                    "train",
                    "--base", str(workdir / "train.cfg"),
                    "--ckpt", str(base_dir / "base.ckpt"),
                    "--data", str(workdir / "data"),
                    "--out", str(tmp_path / "ce"),
                    "--config", "objective=ce",
                ]
            )
            == 0
        )


class TestSweepAndReport:
    def test_alpha_sweep_and_report(self, workdir, tmp_path):
        sweep_dir = tmp_path / "sweep"
        assert (
            run(
                [
                    "sweep",
                    "--axis", "alpha",
                    "--base", str(workdir / "train.cfg"),
                    "--data", str(workdir / "data"),
                    "--values", "0.1,0.9",
                    "--seeds", "0,1",
                    "--out", str(sweep_dir),
                ]
            )
            == 0
        )
        agg = sweep_dir / "sweep_alpha.csv"
        rows = list(csv.DictReader(agg.open()))
        data_rows = [r for r in rows if r["seed"] != "mean"]
        assert len(data_rows) == 4
        mean_rows = {r["value"]: float(r["em"]) for r in rows if r["seed"] == "mean"}
        for value in ("0.1", "0.9"):
            per_seed = [float(r["em"]) for r in data_rows if r["value"] == value]
            assert mean_rows[value] == pytest.approx(sum(per_seed) / len(per_seed))
        # per-run reports agree with the aggregate
        for r in data_rows:
            report = EvalReport.load_json(sweep_dir / f"alpha_{r['value']}" / f"seed_{r['seed']}" / "report.json")
            assert float(r["em"]) == pytest.approx(report.em)
        assert (sweep_dir / "sweep_alpha.txt").exists()

        run_dirs = [str(p) for p in sorted(sweep_dir.glob("alpha_*/seed_*"))]
        out_stem = tmp_path / "agg"
        assert run(["report", *run_dirs, "--out", str(out_stem)]) == 0
        assert out_stem.with_suffix(".csv").exists()

    def test_repeated_values_and_seeds_run_once(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--axis", "alpha", "--base", str(workdir / "train.cfg"), "--data", str(workdir / "data")]
        assert run([*argv, "--values", "0.5,0.1,0.5", "--seeds", "1,1", "--out", str(out)]) == 0
        rows = [r[:3] for r in csv.reader((out / "sweep_alpha.csv").open())]
        assert rows == [
            ["axis", "value", "seed"],
            ["alpha", "0.5", "1"],
            ["alpha", "0.1", "1"],
            ["alpha", "0.5", "mean"],
            ["alpha", "0.1", "mean"],
        ]
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if " seed=" in line]
        assert printed == ["alpha=0.5 seed=1", "alpha=0.1 seed=1"]

    @pytest.mark.parametrize(
        "axis, values",
        [("alpha", "0.5,abc"), ("mining", "random:3"), ("mining", "most_similarity"), ("mining", "most_similar_top1")],
    )
    def test_bad_value_refused_before_training(self, workdir, tmp_path, axis, values):
        out = tmp_path / "sweep"
        argv = ["sweep", "--axis", axis, "--base", str(workdir / "train.cfg"), "--data", str(workdir / "data")]
        assert run([*argv, "--values", values, "--out", str(out)]) == 2
        assert not (out / "base.ckpt").exists()

    @pytest.mark.parametrize(
        "value, strategy",
        [
            ("most_similar", MiningStrategy("most_similar", 1)),
            ("most_similar:2", MiningStrategy("most_similar", 2)),
            ("top1", MiningStrategy("top1")),
            ("random", MiningStrategy("random")),
        ],
    )
    def test_mining_axis_overrides(self, value, strategy):
        base = {"k_frozen": "4", "alpha": "0.3"}
        cfg, _ = train_config_from_kv({**base, **_axis_overrides("mining", value)}, vocab_size=50)
        expected, _ = train_config_from_kv(base, vocab_size=50)
        assert cfg == replace(expected, loss=replace(expected.loss, mining=strategy))

    def test_report_missing_dir_exit_2(self, tmp_path):
        empty = tmp_path / "empty_run"
        empty.mkdir()
        assert run(["report", str(empty), "--out", str(tmp_path / "x")]) == 2


class TestUsageErrors:
    def test_unknown_subcommand_exit_1(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self):
        assert run(["gen"]) == 1

    def test_bad_config_pair_exit_1(self, workdir):
        assert run(["gen", "--spec", str(workdir / "corpus.cfg"), "--out", "/tmp/x", "--config", "oops"]) == 1

    @pytest.mark.parametrize("command", ["gen", "train-base", "collect", "train", "eval", "sweep"])
    def test_bad_config_pair_before_any_file(self, command, tmp_path):
        missing = str(tmp_path / "missing")
        inputs = {
            "gen": ["--spec", missing],
            "train-base": ["--base", missing, "--data", missing],
            "collect": ["--ckpt", missing, "--data", missing],
            "train": ["--ckpt", missing, "--data", missing],
            "eval": ["--ckpt", missing, "--data", missing],
            "sweep": ["--axis", "tau", "--data", missing],
        }[command]
        assert run([command, *inputs, "--out", str(tmp_path / "o"), "--config", "oops"]) == 1

    def test_eval_unreadable_value_names_the_key(self, tmp_path, capsys):
        argv = ["eval", "--ckpt", str(tmp_path / "c"), "--data", str(tmp_path / "d"), "--out", str(tmp_path / "o.csv")]
        assert run([*argv, "--config", "max_answer_len=x"]) == 2
        assert "eval key max_answer_len: cannot read 'x' as int" in capsys.readouterr().err
        assert run([*argv, "--config", "nope=1"]) == 2
        assert "unknown eval keys: ['nope']" in capsys.readouterr().err

    def test_runtime_failure_exit_2(self, tmp_path):
        assert run(["train-base", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2

    def test_bad_threads_env_exit_2(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("SPANFORGE_THREADS", "zero")
        assert run(["gen", "--spec", str(workdir / "corpus.cfg"), "--out", str(tmp_path / "t")]) == 2

    def test_threads_env_ok(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("SPANFORGE_THREADS", "4")
        assert run(["gen", "--spec", str(workdir / "corpus.cfg"), "--out", str(tmp_path / "t2")]) == 0


class TestConfigParsing:
    def test_kv_file_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nvocab_size=50\nseed=1\n")
        assert parse_kv_file(p) == {"vocab_size": "50", "seed": "1"}

    def test_unknown_corpus_key_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus keys"):
            corpus_spec_from_kv({"nope": "1"})

    def test_unknown_train_key_rejected(self):
        with pytest.raises(ValueError, match="unknown train keys"):
            train_config_from_kv({"nope": "1"}, vocab_size=50)

    @pytest.mark.parametrize("key, value", [("lr", "fast"), ("epochs", "1.5")])
    def test_unreadable_train_value_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"train key {key}: cannot read {value!r}"):
            train_config_from_kv({key: value}, vocab_size=50)

    def test_unreadable_corpus_value_names_the_key(self):
        with pytest.raises(ValueError, match="corpus key seed: cannot read 'x'"):
            corpus_spec_from_kv({"seed": "x"})

    def test_train_config_mapping(self):
        cfg, extras = train_config_from_kv(
            {"tau": "2.5", "alpha": "0.3", "k_frozen": "7", "mining_variant": "top1", "z_store": "/x.jsonl"},
            vocab_size=99,
        )
        assert cfg.loss.tau == 2.5 and cfg.loss.alpha == 0.3
        assert cfg.loss.k_frozen == 7 and cfg.encoder.num_hard_weights == 7
        assert cfg.loss.mining.variant == "top1"
        assert extras["z_store"] == "/x.jsonl"

    def test_empty_kv_gives_dataclass_defaults(self):
        assert corpus_spec_from_kv({}) == CorpusSpec()
        cfg, extras = train_config_from_kv({}, vocab_size=99)
        assert cfg == TrainConfig(encoder=EncoderConfig(vocab_size=99))
        assert extras == {"z_store": ""}

    def test_partial_kv_keeps_other_defaults(self):
        spec = corpus_spec_from_kv({"answer_len_max": "3", "full_decoys": "1"})
        assert spec.answer_len_range == (CorpusSpec().answer_len_range[0], 3)
        assert spec.distractors == DistractorPolicy(full_decoys=1)
        cfg, _ = train_config_from_kv({"beta2": "0.9", "mining_theta": "2"}, vocab_size=99)
        assert cfg.betas == (TrainConfig.betas[0], 0.9)
        assert cfg.loss.mining == MiningStrategy(theta=2)

    def test_sweep_spec_defaults(self):
        assert DEFAULT_AXIS_VALUES["tau"] == ["1", "2", "4", "8", "10", "12", "20"]
        assert DEFAULT_AXIS_VALUES["alpha"] == ["0.1", "0.3", "0.5", "0.7", "0.9"]
        assert DEFAULT_AXIS_VALUES["z_size"] == ["1", "5", "10", "20", "50"]
        assert run(["sweep", "--axis", "bogus", "--data", "data", "--out", "out"]) == 1
