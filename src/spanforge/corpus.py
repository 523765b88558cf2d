"""Synthetic QA corpora with controlled answer-boundary ambiguity, SQuAD v1.1
ingestion, vocabulary handling, and input-sequence encoding.

Synthetic examples are key/value lookup problems: the question names a key
token, the passage embeds that key immediately followed by its value span
(the gold answer), plus configurable distractor structure:

* decoy facts: other key/value pairs competing for the span heads,
* prefix distractors: extra occurrences of the answer's first token,
* suffix distractors: extra occurrences of the answer's last token.

Token pools (keys / values / filler) are disjoint, so the planted counts are
exact and can be verified by exhaustive scan. For single-token answers the
first and last token coincide; only the prefix count is planted then, and the
suffix guarantee collapses into it.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3


class CorpusError(ValueError):
    """Raised for infeasible corpus specs and malformed input files."""


@dataclass(frozen=True)
class Span:
    """Inclusive (start, end) token indices plus the resolved text."""

    start: int
    end: int
    text: str

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    @property
    def positions(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class SpanIndex:
    """Spans as two parallel int arrays of inclusive (start, end) positions,
    with no text; ``len`` is the number of spans."""

    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class Example:
    """One (question, passage, gold answer span) training/eval unit."""

    id: str
    question: tuple[str, ...]
    passage: tuple[str, ...]
    gold: Span

    def __post_init__(self):
        object.__setattr__(self, "question", tuple(self.question))
        object.__setattr__(self, "passage", tuple(self.passage))
        if not 0 <= self.gold.start <= self.gold.end < len(self.passage):
            raise ValueError(f"{self.id}: gold span outside passage")
        resolved = " ".join(self.passage[self.gold.start : self.gold.end + 1])
        if resolved != self.gold.text:
            raise ValueError(f"{self.id}: gold text {self.gold.text!r} != passage slice {resolved!r}")


@dataclass(frozen=True)
class EncodedExample:
    """[CLS] question [SEP] passage [SEP] layout: ``token_ids`` holds the real
    tokens only, no padding.

    Regions are inclusive (first, last) position pairs in sequence
    coordinates. ``gold_in_sequence`` is None, and ``usable`` False, when
    truncation cut the gold span.

    Passage tokens are non-empty and hold no whitespace (construction
    refuses others), so two spans have equal ``normalize``d text exactly when
    their windows of ``passage_keys`` are equal.

    Construction also refuses ids that are empty, not 1-d or negative, then
    keeps ``length`` and ``max_token_id`` (the largest id) and makes the ids
    read-only, so a forward checks an encoding only against its model.
    """

    id: str
    token_ids: np.ndarray
    question_region: tuple[int, int]
    passage_region: tuple[int, int]
    gold_in_sequence: Span | None
    passage_tokens: tuple[str, ...]
    length: int = field(init=False, repr=False, compare=False)
    max_token_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if " ".join(self.passage_tokens).split() != list(self.passage_tokens):
            bad = next(tok for tok in self.passage_tokens if tok.split() != [tok])
            raise CorpusError(f"{self.id}: passage token {bad!r} is empty or holds whitespace")
        ids = np.array(self.token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise CorpusError(f"{self.id}: token ids must be 1-d and non-empty, got shape {ids.shape}")
        lowest = int(np.minimum.reduce(ids))
        if lowest < 0:
            raise CorpusError(f"{self.id}: negative token id {lowest}")
        ids.setflags(write=False)
        object.__setattr__(self, "token_ids", ids)
        object.__setattr__(self, "length", ids.size)
        object.__setattr__(self, "max_token_id", int(np.maximum.reduce(ids)))

    @property
    def usable(self) -> bool:
        """Whether the gold span survived truncation."""
        return self.gold_in_sequence is not None

    @cached_property
    def passage_keys(self) -> np.ndarray:
        """One int per passage token, equal for two tokens exactly when their
        lowercased forms are equal. Built on first read: only text matching
        and mining read it."""
        ids: dict[str, int] = {}
        return np.array([ids.setdefault(tok.lower(), len(ids)) for tok in self.passage_tokens], dtype=np.int64)

    @cached_property
    def token_groups(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The positions grouped by token id, for the token-embedding
        gradient; built on first read, which only ``backward`` makes.

        Returns ``(uniq, order, sizes)``. ``uniq`` holds the distinct ids,
        the most frequent first. ``order`` lists the positions rank by
        rank: each id's first occurrence in ``uniq`` order, then each second
        occurrence, and so on. Rank r takes the next ``sizes[r]`` entries,
        which belong to ``uniq[: sizes[r]]``.
        """
        where: dict[int, list[int]] = {}
        for pos, tok in enumerate(self.token_ids.tolist()):
            if tok in where:
                where[tok].append(pos)
            else:
                where[tok] = [pos]
        groups = sorted(where.values(), key=len, reverse=True)
        order, sizes = [], []
        for rank in range(len(groups[0])):
            while len(groups[-1]) <= rank:
                groups.pop()
            order += [positions[rank] for positions in groups]
            sizes.append(len(groups))
        order = np.array(order)
        return self.token_ids[order[: sizes[0]]], order, tuple(sizes)


@dataclass(frozen=True)
class DistractorPolicy:
    prefix_overlap_count: int = 2
    suffix_overlap_count: int = 2
    full_decoys: int = 2

    def __post_init__(self):
        if min(self.prefix_overlap_count, self.suffix_overlap_count, self.full_decoys) < 0:
            raise ValueError("distractor counts must be non-negative")


@dataclass(frozen=True)
class CorpusSpec:
    vocab_size: int = 200
    num_examples: int = 3000
    passage_len: int = 48
    answer_len_range: tuple[int, int] = (1, 4)
    distractors: DistractorPolicy = field(default_factory=DistractorPolicy)
    seed: int = 0
    num_dev: int = 500
    num_test: int = 500

    def __post_init__(self):
        lo, hi = self.answer_len_range
        if not 1 <= lo <= hi:
            raise CorpusError("answer_len_range must satisfy 1 <= min <= max")
        if hi > self.passage_len:
            raise CorpusError("max answer length exceeds passage length")
        if self.num_examples <= self.num_dev + self.num_test:
            raise CorpusError("num_examples must exceed num_dev + num_test")
        if self.vocab_size <= len(SPECIAL_TOKENS) + 8:
            raise CorpusError("vocab_size too small for the token pools")

    @property
    def num_train(self) -> int:
        return self.num_examples - self.num_dev - self.num_test


class Vocab:
    """Token <-> id mapping; ids 0..3 are the reserved special tokens."""

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise CorpusError("vocabulary must start with [PAD], [UNK], [CLS], [SEP]")
        if len(set(tokens)) != len(tokens):
            raise CorpusError("duplicate tokens in vocabulary")
        self._tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """``id`` of each token, in order."""
        return list(map(self._index.get, tokens, repeat(UNK_ID)))

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def save(self, path: str | Path) -> None:
        write_lines(path, self._tokens)

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([ln for ln in lines if ln != ""])


@dataclass(frozen=True)
class _Pools:
    question_word: str
    keys: tuple[str, ...]
    values_by_key: dict[str, tuple[str, ...]]
    filler: tuple[str, ...]


VALUES_PER_KEY = 6


def build_vocab(spec: CorpusSpec) -> tuple[Vocab, _Pools]:
    """Deterministic vocabulary split into question-word/key/value/filler pools.

    Each key owns a disjoint block of value tokens; a fact's value span draws
    only from its key's block. Keys, value blocks and filler are mutually
    disjoint, which keeps the planted boundary-token counts exact.
    """
    content = spec.vocab_size - len(SPECIAL_TOKENS)
    n_keys = max(2, content // (2 + VALUES_PER_KEY))
    n_values = n_keys * VALUES_PER_KEY
    n_filler = content - 1 - n_keys - n_values
    if n_filler < 2:
        raise CorpusError("vocab_size leaves too few filler tokens")
    lo, hi = spec.answer_len_range
    if VALUES_PER_KEY < hi:
        raise CorpusError("per-key value block too small for the answer length range")
    if n_keys < 1 + spec.distractors.full_decoys:
        raise CorpusError("key pool too small for the decoy count")
    keys = tuple(f"k{i:03d}" for i in range(n_keys))
    values = [f"v{i:03d}" for i in range(n_values)]
    pools = _Pools(
        question_word="what",
        keys=keys,
        values_by_key={
            k: tuple(values[i * VALUES_PER_KEY : (i + 1) * VALUES_PER_KEY]) for i, k in enumerate(keys)
        },
        filler=tuple(f"f{i:03d}" for i in range(n_filler)),
    )
    tokens = list(SPECIAL_TOKENS) + [pools.question_word] + list(keys) + values + list(pools.filler)
    return Vocab(tokens), pools


def _generate_example(rng: np.random.Generator, spec: CorpusSpec, pools: _Pools, ex_id: str) -> Example:
    lo, hi = spec.answer_len_range
    pol = spec.distractors
    key = pools.keys[int(rng.integers(len(pools.keys)))]
    own = pools.values_by_key[key]
    ans_len = int(rng.integers(lo, hi + 1))
    answer = [own[i] for i in rng.choice(len(own), size=ans_len, replace=False)]

    # Decoy facts use distinct keys and draw from their own value blocks,
    # which are disjoint from the answer's, so boundary counts stay exact.
    other_keys = [k for k in pools.keys if k != key]
    decoy_keys = [other_keys[i] for i in rng.choice(len(other_keys), size=pol.full_decoys, replace=False)]
    blocks: list[list[str]] = [[key] + answer]
    for dk in decoy_keys:
        dlen = int(rng.integers(lo, hi + 1))
        dpool = pools.values_by_key[dk]
        dvals = [dpool[i] for i in rng.choice(len(dpool), size=dlen, replace=False)]
        blocks.append([dk] + dvals)

    # Planted boundary-token occurrences. Single-token answers collapse both
    # boundaries onto one token; only the prefix count is planted then.
    n_prefix = pol.prefix_overlap_count
    n_suffix = pol.suffix_overlap_count if ans_len >= 2 else 0
    blocks.extend([answer[0]] for _ in range(n_prefix))
    blocks.extend([answer[-1]] for _ in range(n_suffix))

    total = sum(len(b) for b in blocks)
    if total > spec.passage_len:
        raise CorpusError(
            f"{ex_id}: answer plus distractors need {total} tokens, passage holds {spec.passage_len}"
        )

    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]
    free = spec.passage_len - total
    gaps = rng.multinomial(free, [1.0 / (len(blocks) + 1)] * (len(blocks) + 1)).tolist()
    # One draw of all the filler consumes the stream as ``free`` scalar
    # draws would, in the same order, so the corpus keeps its bytes.
    filler = [pools.filler[i] for i in rng.integers(len(pools.filler), size=free).tolist()]

    passage: list[str] = []
    gold_start = -1
    taken = 0
    for gap, block in zip(gaps, blocks):
        passage.extend(filler[taken : taken + gap])
        taken += gap
        if block[0] == key:
            gold_start = len(passage) + 1
        passage.extend(block)
    passage.extend(filler[taken:])

    gold = Span(gold_start, gold_start + ans_len - 1, " ".join(answer))
    return Example(id=ex_id, question=(pools.question_word, key), passage=tuple(passage), gold=gold)


@dataclass
class Dataset:
    train: list[Example]
    dev: list[Example]
    test: list[Example]
    vocab: Vocab

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        for name in ("train", "dev", "test"):
            write_examples_jsonl(out / f"{name}.jsonl", getattr(self, name))
        self.vocab.save(out / "vocab.txt")

    @classmethod
    def load(cls, in_dir: str | Path) -> "Dataset":
        d = Path(in_dir)
        return cls(
            train=read_examples_jsonl(d / "train.jsonl"),
            dev=read_examples_jsonl(d / "dev.jsonl"),
            test=read_examples_jsonl(d / "test.jsonl"),
            vocab=Vocab.load(d / "vocab.txt"),
        )


def generate_corpus(spec: CorpusSpec) -> Dataset:
    """Generate disjoint train/dev/test splits, deterministic in spec.seed."""
    vocab, pools = build_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    splits: dict[str, list[Example]] = {}
    for name, prefix, count in (
        ("train", "tr", spec.num_train),
        ("dev", "dv", spec.num_dev),
        ("test", "te", spec.num_test),
    ):
        splits[name] = [
            _generate_example(rng, spec, pools, f"{prefix}{i:05d}") for i in range(count)
        ]
    return Dataset(train=splits["train"], dev=splits["dev"], test=splits["test"], vocab=vocab)


def example_to_dict(ex: Example) -> dict:
    return {
        "id": ex.id,
        "question": list(ex.question),
        "passage": list(ex.passage),
        "answer": {"start": ex.gold.start, "end": ex.gold.end, "text": ex.gold.text},
    }


def example_from_dict(obj: dict) -> Example:
    ans = obj["answer"]
    return Example(
        id=obj["id"],
        question=tuple(obj["question"]),
        passage=tuple(obj["passage"]),
        gold=Span(int(ans["start"]), int(ans["end"]), ans["text"]),
    )


def write_examples_jsonl(path: str | Path, examples: Iterable[Example]) -> None:
    write_jsonl(path, map(example_to_dict, examples))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_args) -> Iterator[IO]:
    """A file opened for writing (``mode`` "w" or "wb") in place of ``path``,
    whose missing parent directories are created first.

    The bytes go to a temporary file beside ``path``, which replaces ``path``
    (``os.replace``) only when the block exits cleanly. If the block raises,
    the temporary file is removed and ``path`` keeps its old contents, or stays
    absent.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """UTF-8 text, each of ``lines`` followed by a line feed, replacing
    ``path`` whole. Every text file of the package is written here or by
    ``write_csv``."""
    with atomic_write(path, encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_json(path: str | Path, value, sort_keys: bool = False) -> None:
    """``value`` as one line of JSON."""
    write_lines(path, [json.dumps(value, sort_keys=sort_keys)])


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """JSON Lines: one JSON value per line."""
    write_lines(path, map(json.dumps, records))


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """UTF-8 CSV, each row followed by a line feed, replacing ``path`` whole."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def read_jsonl(path: str | Path, what: str, error: type[ValueError] = ValueError) -> Iterator[tuple[str, object]]:
    """("path:line", value) for each non-blank line of a JSON Lines file;
    refuses a line that is not JSON with ``error`` naming the path and line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: {what} record is not JSON ({exc})") from None
            yield f"{path}:{lineno}", value


def read_examples_jsonl(path: str | Path) -> list[Example]:
    """The examples of a JSON Lines file; refuses a line that is not an
    example record with a CorpusError naming the path and the line."""
    out = []
    for where, obj in read_jsonl(path, "example", CorpusError):
        try:
            out.append(example_from_dict(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{where}: bad example record ({type(exc).__name__}: {exc})") from None
    return out


def _token_boundaries(text: str) -> tuple[list[str], list[int], list[int]]:
    """The tokens of ``text.split()`` with their character start/end
    (exclusive) offsets."""
    found = list(re.finditer(r"\S+", text))
    return [m.group() for m in found], [m.start() for m in found], [m.end() for m in found]


def load_squad_json(path: str | Path) -> tuple[list[Example], int]:
    """Read a SQuAD v1.1 file into whitespace-token examples.

    Character offsets are converted to token offsets; QAs whose answer does
    not align with token boundaries are dropped and counted. Returns
    (examples, dropped_count). Raises CorpusError with the path to the
    offending node on schema violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "data" not in obj:
        raise CorpusError(f"{path}: missing top-level 'data' array")

    examples: list[Example] = []
    dropped = 0
    for ai, article in enumerate(obj["data"]):
        paragraphs = article.get("paragraphs")
        if paragraphs is None:
            raise CorpusError(f"{path}: data[{ai}]: missing 'paragraphs'")
        for pi, para in enumerate(paragraphs):
            where = f"data[{ai}].paragraphs[{pi}]"
            if "context" not in para or "qas" not in para:
                raise CorpusError(f"{path}: {where}: missing 'context' or 'qas'")
            tokens, starts, ends = _token_boundaries(para["context"])
            start_idx = {s: i for i, s in enumerate(starts)}
            end_idx = {e: i for i, e in enumerate(ends)}
            for qi, qa in enumerate(para["qas"]):
                node = f"{where}.qas[{qi}]"
                if "question" not in qa or "id" not in qa or not qa.get("answers"):
                    raise CorpusError(f"{path}: {node}: missing question/id/answers")
                ans = qa["answers"][0]
                if "text" not in ans or "answer_start" not in ans:
                    raise CorpusError(f"{path}: {node}.answers[0]: missing text/answer_start")
                a_start = int(ans["answer_start"])
                a_end = a_start + len(str(ans["text"]).rstrip())
                s = start_idx.get(a_start)
                e = end_idx.get(a_end)
                if s is None or e is None or e < s:
                    dropped += 1
                    continue
                gold = Span(s, e, " ".join(tokens[s : e + 1]))
                examples.append(
                    Example(
                        id=str(qa["id"]),
                        question=tuple(str(qa["question"]).split()),
                        passage=tuple(tokens),
                        gold=gold,
                    )
                )
    return examples, dropped


def encode(example: Example, vocab: Vocab, max_len: int, question_max_len: int = 64) -> EncodedExample:
    """Lay out [CLS] question [SEP] passage [SEP] in at most ``max_len``
    tokens, truncating, and re-index the gold.

    The question is truncated first to its own cap; the passage then fills the
    remaining budget. If truncation cuts the gold span the encoding is flagged
    unusable rather than silently mislabelled. A kept passage token that is
    empty or holds whitespace is refused with a CorpusError naming the example.
    """
    if question_max_len < 0:
        raise CorpusError(f"question_max_len must be >= 0, got {question_max_len}")
    q = list(example.question[:question_max_len])
    budget = max_len - len(q) - 3
    if budget < 1:
        raise CorpusError(
            f"max_len={max_len} cannot hold the specials plus one passage token "
            f"(question length {len(q)})"
        )
    p = example.passage[:budget]

    q_region = (1, len(q))  # first > last when the question is empty
    p_first = len(q) + 2
    p_region = (p_first, p_first + len(p) - 1)

    gold_seq = None
    if example.gold.end < len(p):
        gold_seq = Span(example.gold.start + p_first, example.gold.end + p_first, example.gold.text)

    return EncodedExample(
        id=example.id,
        token_ids=np.array([CLS_ID, *vocab.ids(q), SEP_ID, *vocab.ids(p), SEP_ID], dtype=np.int64),
        question_region=q_region,
        passage_region=p_region,
        gold_in_sequence=gold_seq,
        passage_tokens=p,
    )


def decode(enc: EncodedExample, vocab: Vocab) -> tuple[list[str], list[str]]:
    """Recover (question tokens, kept passage tokens) from an encoding."""
    q0, q1 = enc.question_region
    p0, p1 = enc.passage_region
    ids = enc.token_ids
    question = [vocab.token(int(i)) for i in ids[q0 : q1 + 1]]
    passage = [vocab.token(int(i)) for i in ids[p0 : p1 + 1]]
    return question, passage


def span_text(enc: EncodedExample, start: int, end: int) -> str:
    """Resolve the text of a sequence-coordinate span inside the passage region."""
    p0, p1 = enc.passage_region
    if not (p0 <= start <= end <= p1):
        raise ValueError(f"{enc.id}: span ({start}, {end}) outside passage region {enc.passage_region}")
    return " ".join(enc.passage_tokens[start - p0 : end - p0 + 1])
