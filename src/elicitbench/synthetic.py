"""Synthetic elicitors with controllable miscalibration.

Each synthetic question has a latent center; the recorded ground truth is
the center plus Gaussian sampling deviation with known spread, and the
elicitor's point estimate is the center plus bias plus its own estimation
noise. The reported interval is the true central 95% width shrunk by a
factor, so width_shrink = 1 is an honest forecaster and width_shrink = 4 a
severely overconfident one; refusal_rate is the chance of a clarification
reply instead of numbers. Everything is deterministic per (seed,
question_id), so suites are byte-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

from .corpus import (CIFamily, GroundTruth, Question, TargetKind, Z_95, binomial_truth,
                     question_id_for)
from .elicitation import (CONTINUOUS_INSTRUCTION, PERCENT_INSTRUCTION, EffortLevel,
                          ElicitationRecord, ModelSpec, TransportStatus, build_request)
from .errors import ConfigError
from .extraction import Triplet, Units, canonical_triplet_text
from .jsonlio import config_hash, derive_seed, write_jsonl

CLARIFICATION_TEXT = (
    "Could you clarify which population and time period you mean? "
    "I need more context before giving numbers."
)

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass(frozen=True)
class SyntheticSuiteConfig:
    """One synthetic suite: its questions and the elicitor that answers them."""

    n_questions: int = 400
    seed: int = 0
    sigma_true: float = 5.0
    mu_center: float = 100.0
    mu_spread: float = 20.0
    bias: float = 0.0
    width_shrink: float = 1.0
    noise_sd: float = 0.0
    refusal_rate: float = 0.0
    proportion_fraction: float = 0.0
    proportion_n: int = 1000
    dataset_id: str = "synthetic"
    model_id: str = "synthetic"
    effort: str = "low"

    def __post_init__(self) -> None:
        # Each range check is written so that NaN fails it too.
        if self.n_questions < 1:
            raise ConfigError("n_questions must be >= 1")
        if not 0.0 <= self.proportion_fraction <= 1.0:
            raise ConfigError("proportion_fraction must be in [0, 1]")
        if not self.width_shrink > 0.0:
            raise ConfigError(f"width_shrink must be > 0, got {self.width_shrink}")
        if not self.noise_sd >= 0.0:
            raise ConfigError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not 0.0 <= self.refusal_rate <= 1.0:
            raise ConfigError("refusal_rate must be in [0, 1]")
        if not self.sigma_true > 0.0:
            raise ConfigError(f"sigma_true must be > 0, got {self.sigma_true}")
        if not math.isfinite(self.bias):
            raise ConfigError(f"bias must be finite, got {self.bias}")


def _truth_deviation(seed: int, question_id: str, sigma_true: float) -> float:
    return Random(derive_seed(seed, "truth-dev", question_id)).gauss(0.0, sigma_true)


def respond(config: SyntheticSuiteConfig, question: Question) -> str:
    """The suite's deterministic reply: a labeled triplet or a clarification sentence."""
    rng = Random(derive_seed(config.seed, "respond", question.question_id))
    if rng.random() < config.refusal_rate:
        return CLARIFICATION_TEXT
    noise = rng.gauss(0.0, config.noise_sd) if config.noise_sd > 0.0 else 0.0
    half = Z_95 * config.sigma_true / config.width_shrink
    if question.kind is TargetKind.PROPORTION:
        # Percent-scale path: center on the recorded truth, clip to [0, 100].
        value = min(100.0, max(0.0, question.truth.value + config.bias + noise))
        lower = max(0.0, value - half)
        upper = min(100.0, value + half)
        units = Units.PERCENT
    else:
        center = question.truth.value - _truth_deviation(
            config.seed, question.question_id, config.sigma_true
        )
        value = center + config.bias + noise
        lower, upper = value - half, value + half
        units = Units.DATASET
    return canonical_triplet_text(Triplet(value=value, lower=lower, upper=upper, units=units))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def make_questions(config: SyntheticSuiteConfig) -> list[Question]:
    """Deterministic synthetic questions with known truth spread.

    The first floor(proportion_fraction * n) questions are percent-kind with
    a logit-normal truth (schema exercise only); the rest are continuous with
    truth = latent center + Normal(0, sigma_true).
    """
    n_prop = int(math.floor(config.proportion_fraction * config.n_questions))
    questions = []
    for i in range(config.n_questions):
        kind = TargetKind.PROPORTION if i < n_prop else TargetKind.CONTINUOUS
        params = {"index": str(i)}
        qid = question_id_for(f"{config.dataset_id}-{kind.value}", params)
        if kind is TargetKind.PROPORTION:
            theta = Random(derive_seed(config.seed, "prop-theta", qid)).gauss(_logit(0.3), 0.8)
            truth = binomial_truth(round(config.proportion_n * _sigmoid(theta)), config.proportion_n)
            prompt = (f"What percentage of the synthetic population has trait #{i}? "
                      + PERCENT_INSTRUCTION)
        else:
            center = Random(derive_seed(config.seed, "center", qid)).gauss(
                config.mu_center, config.mu_spread
            )
            value = center + _truth_deviation(config.seed, qid, config.sigma_true)
            half = Z_95 * config.sigma_true
            truth = GroundTruth(value=value, lower=value - half, upper=value + half,
                                n=1000, family=CIFamily.GAUSSIAN)
            prompt = (f"Estimate synthetic quantity #{i} in its native units. "
                      + CONTINUOUS_INSTRUCTION)
        questions.append(
            Question(question_id=qid, dataset_id=config.dataset_id, params=params,
                     prompt=prompt, kind=kind, truth=truth)
        )
    return questions


def make_suite(config: SyntheticSuiteConfig, out_dir: str | Path) -> dict:
    """Write corpus.jsonl and transcript.jsonl in the production schemas.

    Timestamps are fixed to the epoch so repeat runs are byte-identical.
    Returns a manifest dict with paths, counts, and the config hash.
    """
    out_dir = Path(out_dir)
    cfg_hash = config_hash(config)
    questions = make_questions(config)

    corpus_path = out_dir / "corpus.jsonl"
    write_jsonl(corpus_path, "corpus.v1", cfg_hash, questions)

    # The elicitor is a non-reasoning model without tools: `elicit` would send it these payloads.
    spec = ModelSpec(model_id=config.model_id, endpoint_url="", effort_mode=None)

    def transcript_rows():
        for q in questions:
            yield ElicitationRecord(
                question_id=q.question_id,
                model_id=config.model_id,
                effort=config.effort,
                tools_enabled=False,
                raw_text=respond(config, q),
                request_timestamp=EPOCH_TIMESTAMP,
                latency_ms=0.0,
                attempt_count=1,
                transport_status=TransportStatus.OK,
                request_payload=build_request(q, spec, EffortLevel.NONE),
            )

    transcript_path = out_dir / "transcript.jsonl"
    n_rows = write_jsonl(transcript_path, "transcript.v1", cfg_hash, transcript_rows())
    # names, not paths: manifests must stay byte-identical across directories
    return {
        "config_hash": cfg_hash,
        "seed": config.seed,
        "corpus": corpus_path.name,
        "transcript": transcript_path.name,
        "counts": {"questions": len(questions), "records": n_rows},
    }
