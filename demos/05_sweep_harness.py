"""Drive the CLI sweep harness over the mixing-weight axis on a tiny corpus.

Each (value, seed) run finetunes from one shared base checkpoint so the axis
effect is not confounded by base-model variance. The same machinery serves
the temperature, frozen-set-size and mining-strategy axes. Everything is
written to a temporary directory that is removed at the end.
"""

import csv
import tempfile
from pathlib import Path

from spanforge.cli import run

with tempfile.TemporaryDirectory(prefix="spanforge_sweep_") as tmp:
    root = Path(tmp)
    (root / "corpus.cfg").write_text(
        "vocab_size=80\nnum_examples=160\npassage_len=16\nanswer_len_min=1\nanswer_len_max=2\n"
        "prefix_overlap_count=1\nsuffix_overlap_count=1\nfull_decoys=1\nseed=5\nnum_dev=20\nnum_test=20\n"
    )
    (root / "train.cfg").write_text(
        "d_model=16\nd_ff=24\nmax_len=24\nk_frozen=5\nk_dynamic=10\nlr=0.005\nepochs=3\n"
        "batch_size=16\ncheckpoint_every=0\nseed=0\nmax_answer_len=3\n"
    )

    assert run(["gen", "--spec", str(root / "corpus.cfg"), "--out", str(root / "data")]) == 0
    assert (
        run(
            [
                "sweep",
                "--axis", "alpha",
                "--base", str(root / "train.cfg"),
                "--data", str(root / "data"),
                "--values", "0.1,0.5,0.9",
                "--seeds", "0,1",
                "--out", str(root / "sweep"),
            ]
        )
        == 0
    )

    print("\naggregate rows:")
    with open(root / "sweep" / "sweep_alpha.csv") as fh:
        for row in csv.reader(fh):
            print(" ", ",".join(row))
    print("\nsummary table:")
    print((root / "sweep" / "sweep_alpha.txt").read_text())
