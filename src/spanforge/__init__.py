"""spanforge: two-stage training for extractive span QA at desk scale.

Stage one trains recall by weighting a frozen, gold-guaranteed top-k
candidate set with learnable rank weights; stage two trains precision with an
answer-aware contrastive objective whose hard negatives are re-mined from the
model's own top predictions every step. The encoder is a small
self-contained float64 network with exact hand-derived gradients, verified
against finite differences.
"""

from .corpus import (
    CorpusSpec,
    Dataset,
    DistractorPolicy,
    Example,
    Span,
    Vocab,
    encode,
    generate_corpus,
    load_squad_json,
)
from .encoder import EncoderConfig, ModelParams, forward, init_params, load_checkpoint, save_checkpoint
from .losses import LossConfig, ce_loss, combined_loss, contrastive_loss, hard_loss, mml_loss
from .metrics import EvalReport, evaluate, exact_match, f1_overlap, normalize, topk_em
from .mining import MiningStrategy, select_hard_negatives
from .spandecode import PredictionSet, ScoredSpan, build_frozen_set, topk_spans
from .trainer import TrainConfig, collect_candidates, finetune, run_eval, train_base

__version__ = "0.1.0"
