"""Relation-sentence selection.

Scores every sentence of a bridge passage with a linear model over
SentenceFeatures and returns the argmax (lowest index on ties).
``select_all`` selects for a whole batch of (bridge, question) pairs with
one predict call over their stacked sentence rows, built from one
profile per distinct body and question; each result keeps its bridge's
sentences and profiles. Batches that share a text-to-profile mapping
profile each text once between them: ``train`` passes one to selector
training and to the selection behind its router labels. ``select`` is a
batch of one, and every protocol selects all its queries in one batch.
A sentence's score does not depend on its batch, since ``predict_proba``
takes one dot product per row. A selection abstains exactly when its
bridge has no sentence.
Oracle labels come from title containment; training expands each
annotated passage into per-sentence binary rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Passage, _field, _read_jsonl
from .linear_model import (
    LinearModel,
    TrainConfig,
    predict_proba,
    train,
    with_feature_names,
)
from .text_analysis import (
    SENTENCE_FEATURE_NAMES,
    BridgeProfile,
    TextProfile,
    profile_bridge,
    profile_text,
    sentence_rows,
    split_sentences,
    title_sentence,
)


class AnnotationError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[str, int, float] | None  # (sentence text, index, confidence)
    bridge: BridgeProfile  # the sentences chosen from, with their profiles
    question: TextProfile

    @property
    def abstained(self) -> bool:
        return self.chosen is None


@dataclass(frozen=True)
class AnnotatedBridge:
    bridge: Passage
    question: str
    gold_sentence_index: int


def oracle_label(bridge: Passage, hop2_title: str) -> int | None:
    """Lowest index of a sentence containing the normalized title, if any."""
    return title_sentence(split_sentences(bridge.body), hop2_title)


def _profiled(pairs, profiles: dict | None = None) -> list[tuple[BridgeProfile, TextProfile]]:
    """Each pair's body and question profiles, read from ``profiles`` and filled into it.

    ``profiles`` maps (profiler, text) to a profile; each text it lacks is
    profiled once, bodies then questions, in first-seen order. Without
    it the batch profiles into a fresh mapping of its own.
    """
    profiles = {} if profiles is None else profiles
    for fn, texts in ((profile_bridge, (b.body for b, _ in pairs)), (profile_text, (q for _, q in pairs))):
        for text in texts:
            if (fn, text) not in profiles:
                profiles[fn, text] = fn(text)
    return [(profiles[profile_bridge, bridge.body], profiles[profile_text, question]) for bridge, question in pairs]


def _expand(annotated: list[AnnotatedBridge], profiles: dict | None) -> tuple[np.ndarray, np.ndarray]:
    rows: list[list[float]] = []
    labels: list[float] = []
    for item, (b, q) in zip(annotated, _profiled([(item.bridge, item.question) for item in annotated], profiles)):
        if not (0 <= item.gold_sentence_index < len(b.sentences)):
            raise AnnotationError(
                f"gold sentence index {item.gold_sentence_index} out of range "
                f"for bridge {item.bridge.id!r} with {len(b.sentences)} sentences"
            )
        rows.extend(sentence_rows(b, q))
        labels.extend(float(i == item.gold_sentence_index) for i in range(len(b.sentences)))
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=float)


def train_selector(
    annotated: list[AnnotatedBridge], cfg: TrainConfig | None = None, profiles: dict | None = None
) -> LinearModel:
    """Per-sentence binary expansion (gold = 1), then linear_model.train.

    ``profiles`` is a text-to-profile mapping shared with later batches (see ``select_all``).
    """
    X, y = _expand(annotated, profiles)
    if X.shape[0] < 2:
        raise AnnotationError("need at least 2 expanded sentence rows")
    model = train(X, y, cfg)
    return with_feature_names(model, SENTENCE_FEATURE_NAMES)


def select_all(
    pairs: Sequence[tuple[Passage, str]], model: LinearModel, profiles: dict | None = None
) -> list[SelectionResult]:
    """Argmax sentence of every (bridge, question) pair, in one predict call.

    Each distinct body is split and profiled once, and each distinct
    question once; every result keeps its pair's profiles. A caller that
    passes one ``profiles`` mapping to several batches profiles each text
    once across them all. The sentence rows of all pairs are stacked into
    one matrix; each pair takes the first maximum of its own segment, so
    the lowest index wins ties. A bridge without sentences abstains.
    """
    profiled = _profiled(pairs, profiles)
    rows = [row for b, q in profiled for row in sentence_rows(b, q)]
    probs = predict_proba(model, rows) if rows else None
    results: list[SelectionResult] = []
    lo = 0
    for b, q in profiled:
        sents = b.sentences
        if not sents:
            results.append(SelectionResult(None, b, q))
            continue
        segment = probs[lo : lo + len(sents)]
        lo += len(sents)
        best_i = int(np.argmax(segment))  # the first maximum: lowest index wins ties
        results.append(SelectionResult((sents[best_i].text, best_i, float(segment[best_i])), b, q))
    return results


def select(bridge: Passage, question: str, model: LinearModel) -> SelectionResult:
    """``select_all`` for one pair."""
    return select_all([(bridge, question)], model)[0]


def load_annotations(
    path: Path | str,
    passages: dict[str, Passage],
    questions: dict[str, str],
) -> list[AnnotatedBridge]:
    """Read annotations.jsonl rows {"bridge_id","question_id","gold_sentence_index"}.

    A line that is not a JSON object, an id that is not a JSON string or
    an index that is not a non-bool integer raises a ``DatasetParseError``
    naming file and line. An unknown id or a negative index raises an
    ``AnnotationError``.
    """
    path = Path(path)
    items: list[AnnotatedBridge] = []
    for lineno, obj in _read_jsonl(path):
        where = f"{path.name}:{lineno}"
        bridge_id = _field(obj, "bridge_id", where)
        question_id = _field(obj, "question_id", where)
        idx = _field(obj, "gold_sentence_index", where, kind=int)
        if bridge_id not in passages:
            raise AnnotationError(f"{where}: unknown bridge id {bridge_id!r}")
        if question_id not in questions:
            raise AnnotationError(f"{where}: unknown question id {question_id!r}")
        if idx < 0:
            raise AnnotationError(f"{where}: bad gold_sentence_index {idx}")
        items.append(AnnotatedBridge(bridge=passages[bridge_id], question=questions[question_id],
                                     gold_sentence_index=idx))
    return items
