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
from typing import Iterable, Iterator

from .corpus import (CIFamily, GroundTruth, Question, TargetKind, Z_95, binomial_truth,
                     question_id_for)
from .elicitation import (CONTINUOUS_INSTRUCTION, PERCENT_INSTRUCTION, EffortLevel,
                          ElicitationRecord, ModelSpec, TransportStatus, build_request)
from .errors import ConfigError
from .extraction import Triplet, Units, canonical_triplet_text
from .jsonlio import config_hash, derive_seed, jsonl_writer, write_jsonl

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


def respond(config: SyntheticSuiteConfig, question: Question, deviation: float | None) -> str:
    """The suite's deterministic reply: a labeled triplet or a clarification sentence.

    `deviation` is the question's truth deviation as `make_questions` gives
    it with the question (None for a percent-kind question).
    """
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
        center = question.truth.value - deviation
        value = center + config.bias + noise
        lower, upper = value - half, value + half
        units = Units.DATASET
    return canonical_triplet_text(Triplet(value=value, lower=lower, upper=upper, units=units))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def make_questions(config: SyntheticSuiteConfig,
                   indices: Iterable[int]) -> Iterator[tuple[Question, float | None]]:
    """Questions `indices` of the suite with their truth deviations, in order, made one at a time.

    The first floor(proportion_fraction * n) questions are percent-kind with
    a logit-normal truth (schema exercise only) and no deviation (None); the
    rest are continuous with truth = latent center + Normal(0, sigma_true),
    the normal draw being the deviation, which `respond` takes. A question
    depends only on the config and its index.
    """
    n_prop = int(math.floor(config.proportion_fraction * config.n_questions))
    for index in indices:
        kind = TargetKind.PROPORTION if index < n_prop else TargetKind.CONTINUOUS
        params = {"index": str(index)}
        qid = question_id_for(f"{config.dataset_id}-{kind.value}", params)
        deviation = None
        if kind is TargetKind.PROPORTION:
            theta = Random(derive_seed(config.seed, "prop-theta", qid)).gauss(_logit(0.3), 0.8)
            truth = binomial_truth(round(config.proportion_n * _sigmoid(theta)),
                                   config.proportion_n)
            prompt = (f"What percentage of the synthetic population has trait #{index}? "
                      + PERCENT_INSTRUCTION)
        else:
            center = Random(derive_seed(config.seed, "center", qid)).gauss(
                config.mu_center, config.mu_spread
            )
            deviation = Random(derive_seed(config.seed, "truth-dev", qid)).gauss(
                0.0, config.sigma_true
            )
            value = center + deviation
            half = Z_95 * config.sigma_true
            truth = GroundTruth(value=value, lower=value - half, upper=value + half,
                                n=1000, family=CIFamily.GAUSSIAN)
            prompt = (f"Estimate synthetic quantity #{index} in its native units. "
                      + CONTINUOUS_INSTRUCTION)
        yield Question(question_id=qid, dataset_id=config.dataset_id, params=params,
                       prompt=prompt, kind=kind, truth=truth), deviation


def make_suite(config: SyntheticSuiteConfig, out_dir: str | Path) -> dict:
    """Write corpus.jsonl and transcript.jsonl in the production schemas.

    The questions are made in contiguous slices, one per CPU (`slices.cpu_slices`).
    Each slice writes both of its files in one pass over its questions, each
    question made, written and answered in turn: the suite is never held in
    memory. `slices.made_in_slices` has each slice write part files beside
    the outputs and joins them into the outputs, which replace the old ones
    together. A question depends only on the config and its index, so the
    bytes do not depend on the number of slices. Timestamps are fixed to the
    epoch so repeat runs are byte-identical. Returns a manifest dict with
    paths, counts, and the config hash.
    """
    out_dir = Path(out_dir)
    cfg_hash = config_hash(config)
    corpus_path = out_dir / "corpus.jsonl"
    transcript_path = out_dir / "transcript.jsonl"
    # The elicitor is a non-reasoning model without tools: `elicit` would send it these payloads.
    spec = ModelSpec(model_id=config.model_id, endpoint_url="", effort_mode=None)

    def write_slice(indices: range, corpus: Path, transcript: Path) -> None:
        def transcript_rows(write_question):
            for q, deviation in make_questions(config, indices):
                write_question(q)
                yield ElicitationRecord(
                    question_id=q.question_id,
                    model_id=config.model_id,
                    effort=config.effort,
                    tools_enabled=False,
                    raw_text=respond(config, q, deviation),
                    request_timestamp=EPOCH_TIMESTAMP,
                    latency_ms=0.0,
                    attempt_count=1,
                    transport_status=TransportStatus.OK,
                    request_payload=build_request(q, spec, EffortLevel.NONE),
                )

        with jsonl_writer(corpus, "corpus.v1", cfg_hash) as write_question:
            write_jsonl(transcript, "transcript.v1", cfg_hash, transcript_rows(write_question))

    # Imported here, so that only `simulate` loads the fork code (see `slices`).
    from .slices import cpu_slices, made_in_slices
    made_in_slices(cpu_slices(config.n_questions), write_slice, corpus_path, transcript_path)
    # names, not paths: manifests must stay byte-identical across directories
    return {
        "config_hash": cfg_hash,
        "seed": config.seed,
        "corpus": corpus_path.name,
        "transcript": transcript_path.name,
        # one transcript row per question
        "counts": {"questions": config.n_questions, "records": config.n_questions},
    }
