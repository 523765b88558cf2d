"""Every writer of a checkpoint, candidate store, eval report, run log,
vocabulary or example file replaces its file whole: a write that raises
part-way leaves the old file as it was and no temporary file behind, and a
write into a missing directory creates it. No module under ``src/spanforge/``
writes a file any other way, and only the writers beside ``atomic_write``
and ``save_checkpoint`` call it."""

import ast
from pathlib import Path

import numpy as np
import pytest

from spanforge.corpus import SPECIAL_TOKENS, Example, Span, Vocab, atomic_write, write_examples_jsonl, write_lines
from spanforge.encoder import EncoderConfig, init_params, save_checkpoint
from spanforge.metrics import EvalReport
from spanforge.spandecode import write_candidate_store
from spanforge.trainer import RunLog

OLD = b"old contents\n"


def records_then_failure():
    yield {"id": "a", "spans": [], "gold_rank": None}
    raise RuntimeError("stopped part-way")


def examples_then_failure():
    yield Example(id="a", question=("what", "k"), passage=("v",), gold=Span(0, 0, "v"))
    raise RuntimeError("stopped part-way")


def bad_checkpoint(path):
    cfg = EncoderConfig(vocab_size=8, d_model=2, d_ff=2, max_len=4, num_hard_weights=2)
    params = init_params(cfg, seed=0)
    params.u = np.array(["not a float", "x"])  # the last field, after the others are written
    save_checkpoint(path, cfg, params)


def bad_report():
    return EvalReport(records=[{"id": "a"}, {"id": object()}], em=0.0, f1=0.0, topk={1: 0.0}, k_list=(1,))


def bad_runlog(path):
    log = RunLog()
    log.add(kind="setup")
    log.add(kind="step", loss=object())
    log.save(path)


WRITERS = {
    "checkpoint": (bad_checkpoint, ValueError),
    "candidate_store": (lambda path: write_candidate_store(path, records_then_failure()), RuntimeError),
    "report_json": (lambda path: bad_report().save_json(path), TypeError),
    "report_csv": (lambda path: EvalReport([], 0.0, 0.0, {1: 0.5}, (1, 3)).save_csv(path), KeyError),
    "runlog": (bad_runlog, TypeError),
    "vocab": (lambda path: Vocab([*SPECIAL_TOKENS, "a", 5]).save(path), TypeError),
    "examples_jsonl": (lambda path: write_examples_jsonl(path, examples_then_failure()), RuntimeError),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, name):
    write, error = WRITERS[name]
    path = tmp_path / "target"
    path.write_bytes(OLD)
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_into_a_missing_directory_leaves_no_file(tmp_path, name):
    write, error = WRITERS[name]
    with pytest.raises(error):
        write(tmp_path / "new" / "target")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_write_into_a_missing_directory_creates_it(tmp_path):
    path = tmp_path / "a" / "b" / "target.txt"
    write_lines(path, ["x", "y"])
    assert path.read_bytes() == b"x\ny\n"
    assert [p.name for p in path.parent.iterdir()] == ["target.txt"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as fh:
            fh.write("partial")
            raise RuntimeError("stopped part-way")
    assert list(tmp_path.iterdir()) == []


def test_clean_write_replaces_the_file(tmp_path):
    path = tmp_path / "target.bin"
    path.write_bytes(OLD)
    with atomic_write(path, "wb") as fh:
        fh.write(b"new")
        assert path.read_bytes() == OLD  # nothing is visible before the block exits
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]


SRC = Path(__file__).resolve().parents[1] / "src" / "spanforge"


def plain_writes(source: str) -> list[str]:
    """Each call in ``source`` that opens a file for writing (any mode but a
    constant read mode) or calls ``write_text``/``write_bytes``, outside the
    body of ``atomic_write``; as "line: call"."""
    found = []

    def visit(node, inside_atomic_write):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "atomic_write":
            inside_atomic_write = True
        if isinstance(node, ast.Call) and not inside_atomic_write:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes"):
                found.append(f"{node.lineno}: {name}")
            elif name == "open":
                args = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), args[0] if args else None)
                reads = mode is None or (isinstance(mode, ast.Constant) and not set("wax+") & set(str(mode.value)))
                if not reads:
                    found.append(f"{node.lineno}: open")
        for child in ast.iter_child_nodes(node):
            visit(child, inside_atomic_write)

    visit(ast.parse(source), False)
    return found


def test_checker_finds_plain_writes():
    source = """
def atomic_write(path, mode="w"):
    with open(path + ".tmp", mode.replace("w", "x")) as fh:
        yield fh

def ok(path):
    open(path), open(path, "rb"), open(path, mode="r"), path.open()

def bad(path, mode):
    open(path, "w"), open(path, mode="a"), open(path, mode), path.open("wb")
    path.write_text("x"), path.write_bytes(b"x")
"""
    assert plain_writes(source) == ["10: open", "10: open", "10: open", "10: open", "11: write_text", "11: write_bytes"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_modules_write_only_through_atomic_write(module):
    assert plain_writes((SRC / module).read_text(encoding="utf-8")) == []


def atomic_write_callers(source: str) -> set[str]:
    """The names of the functions in ``source`` whose bodies call
    ``atomic_write`` ("<module>" for a call outside any function)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "atomic_write":
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


WRITER_OWNERS = {("corpus.py", name) for name in ("write_lines", "write_json", "write_jsonl", "write_csv")}


def test_only_the_writers_call_atomic_write():
    callers = {(p.name, f) for p in SRC.glob("*.py") for f in atomic_write_callers(p.read_text(encoding="utf-8"))}
    assert ("encoder.py", "save_checkpoint") in callers
    assert callers <= WRITER_OWNERS | {("encoder.py", "save_checkpoint")}
