"""Relation-sentence selection.

Scores every sentence of a bridge passage with a linear model over
SentenceFeatures and returns the argmax (lowest index on ties).
``select_all`` selects for a whole batch of (bridge, question) pairs with
one predict call over their stacked sentence rows, built from one
profile per distinct body and question; each result keeps its bridge's
sentences and profiles. ``select`` is a batch of one, and every protocol
selects all its queries in one batch. A sentence's score does not
depend on its batch, since ``predict_proba`` takes one dot product per
row. A selection abstains exactly when its bridge has no sentence.
Oracle labels come from title containment; training expands each
annotated passage into per-sentence binary rows.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Passage
from .linear_model import (
    LinearModel,
    TrainConfig,
    fold_bounds,
    predict_proba,
    train,
    with_feature_names,
)
from .text_analysis import (
    SENTENCE_FEATURE_NAMES,
    BridgeProfile,
    Lexicons,
    TextProfile,
    default_lexicons,
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


def oracle_label(bridge: Passage, hop2_title: str, lex: Lexicons | None = None) -> int | None:
    """Lowest index of a sentence containing the normalized title, if any."""
    return title_sentence(split_sentences(bridge.body, lex), hop2_title)


def _profiled(pairs, lex: Lexicons) -> list[tuple[BridgeProfile, TextProfile]]:
    """Each pair's body and question profiles; each distinct text is profiled once, in first-seen order."""
    bodies = {body: profile_bridge(body, lex) for body in dict.fromkeys(bridge.body for bridge, _ in pairs)}
    questions = {question: profile_text(question, lex) for question in dict.fromkeys(q for _, q in pairs)}
    return [(bodies[bridge.body], questions[question]) for bridge, question in pairs]


def _expand(annotated: list[AnnotatedBridge], lex: Lexicons | None) -> tuple[np.ndarray, np.ndarray]:
    lex = lex or default_lexicons()
    rows: list[list[float]] = []
    labels: list[float] = []
    for item, (b, q) in zip(annotated, _profiled([(item.bridge, item.question) for item in annotated], lex)):
        if not (0 <= item.gold_sentence_index < len(b.sentences)):
            raise AnnotationError(
                f"gold sentence index {item.gold_sentence_index} out of range "
                f"for bridge {item.bridge.id!r} with {len(b.sentences)} sentences"
            )
        rows.extend(sentence_rows(b, q, lex))
        labels.extend(float(i == item.gold_sentence_index) for i in range(len(b.sentences)))
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=float)


def train_selector(
    annotated: list[AnnotatedBridge],
    cfg: TrainConfig | None = None,
    lex: Lexicons | None = None,
) -> LinearModel:
    """Per-sentence binary expansion (gold = 1), then linear_model.train."""
    X, y = _expand(annotated, lex)
    if X.shape[0] < 2:
        raise AnnotationError("need at least 2 expanded sentence rows")
    model = train(X, y, cfg)
    return with_feature_names(model, SENTENCE_FEATURE_NAMES)


def select_all(
    pairs: Sequence[tuple[Passage, str]],
    model: LinearModel,
    lex: Lexicons | None = None,
) -> list[SelectionResult]:
    """Argmax sentence of every (bridge, question) pair, in one predict call.

    Each distinct body is split and profiled once, and each distinct
    question once; every result keeps its pair's profiles. The sentence
    rows of all pairs are stacked into one matrix; each pair takes the
    first maximum of its own segment, so the lowest index wins ties. A
    bridge without sentences abstains.
    """
    lex = lex or default_lexicons()
    profiled = _profiled(pairs, lex)
    rows = [row for b, q in profiled for row in sentence_rows(b, q, lex)]
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


def select(
    bridge: Passage,
    question: str,
    model: LinearModel,
    lex: Lexicons | None = None,
) -> SelectionResult:
    """``select_all`` for one pair."""
    return select_all([(bridge, question)], model, lex)[0]


def selector_accuracy(
    annotated: list[AnnotatedBridge],
    model: LinearModel | None = None,
    k: int = 5,
    cfg: TrainConfig | None = None,
    lex: Lexicons | None = None,
) -> float:
    """Fraction of passages whose argmax matches the annotated index.

    With an explicit model the given model is scored as-is. Without one,
    the estimate is out-of-fold: passages are split into contiguous folds
    and each is scored by a selector trained on the other folds.
    """
    if not annotated:
        raise AnnotationError("no annotated passages")
    if model is not None:
        return _argmax_hits(annotated, model, lex) / len(annotated)
    n = len(annotated)
    if n < k:
        raise AnnotationError(f"need at least k={k} annotated passages, got {n}")
    hits = 0
    for lo, hi in fold_bounds(n, k):
        held_out = annotated[lo:hi]
        rest = annotated[:lo] + annotated[hi:]
        fold_model = train_selector(rest, cfg, lex)
        hits += _argmax_hits(held_out, fold_model, lex)
    return hits / n


def _argmax_hits(items: list[AnnotatedBridge], model: LinearModel, lex: Lexicons | None) -> int:
    results = select_all([(item.bridge, item.question) for item in items], model, lex=lex)
    return sum(
        not r.abstained and r.chosen[1] == item.gold_sentence_index for r, item in zip(results, items)
    )


def load_annotations(
    path: Path | str,
    passages: dict[str, Passage],
    questions: dict[str, str],
) -> list[AnnotatedBridge]:
    """Read annotations.jsonl rows {"bridge_id","question_id","gold_sentence_index"}."""
    items: list[AnnotatedBridge] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnnotationError(f"{Path(path).name}:{lineno}: invalid JSON ({exc.msg})") from exc
            bridge_id = str(obj.get("bridge_id", ""))
            question_id = str(obj.get("question_id", ""))
            if bridge_id not in passages:
                raise AnnotationError(f"{Path(path).name}:{lineno}: unknown bridge id {bridge_id!r}")
            if question_id not in questions:
                raise AnnotationError(f"{Path(path).name}:{lineno}: unknown question id {question_id!r}")
            idx = obj.get("gold_sentence_index")
            if not isinstance(idx, int) or idx < 0:
                raise AnnotationError(f"{Path(path).name}:{lineno}: bad gold_sentence_index")
            items.append(
                AnnotatedBridge(
                    bridge=passages[bridge_id],
                    question=questions[question_id],
                    gold_sentence_index=idx,
                )
            )
    return items
