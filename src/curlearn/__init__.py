"""Difficulty-scored curriculum sampling with a desk-scale training harness.

The library turns per-example class probabilities into confidence-margin
difficulty scores, builds epoch schedules under six curriculum strategies
plus Random/Length baselines, and runs a small reproducible fine-tuning
and evaluation protocol around them.
"""

__version__ = "0.1.0"

from .dataset_io import token_lengths
from .samplers import Strategy, make_plan, rank_weights
from .scoring import (ClassDistribution, difficulty_score, normalize_restricted,
                      rank_examples, score_dataset, score_histogram)
from .trainer import few_shot_select

__all__ = [
    "ClassDistribution", "Strategy", "difficulty_score", "few_shot_select", "make_plan",
    "normalize_restricted", "rank_examples", "rank_weights", "score_dataset",
    "score_histogram", "token_lengths",
]
