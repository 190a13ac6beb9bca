import json
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_router.corpus import DatasetParseError, Passage
from regime_router.selector import (
    AnnotatedBridge,
    AnnotationError,
    load_annotations,
    oracle_label,
    select,
    select_all,
    train_selector,
)


def bridge(pid: str, body: str) -> Passage:
    return Passage(id=pid, title=f"title {pid}", body=body)


THREE_SENT = (
    "Dust settled over the archive hall. "
    "Kara Voss married the keeper of Aurora Station in Old Harbor. "
    "The morning trains ran late again."
)


def annotated_pool(n: int = 20) -> list[AnnotatedBridge]:
    items = []
    for i in range(n):
        body = (
            f"Nothing much happened in district {i}. "
            f"Mora Quill founded Relay Point {i} before the war. "
            f"Rain kept the couriers indoors."
        )
        items.append(
            AnnotatedBridge(
                bridge=bridge(f"b{i}", body),
                question=f"Who founded the relay point in district {i}?",
                gold_sentence_index=1,
            )
        )
    return items


# ---------------------------------------------------------------------------
# oracle_label


def test_oracle_label_finds_title_sentence():
    b = bridge("b1", THREE_SENT)
    assert oracle_label(b, "Aurora Station") == 1
    assert oracle_label(b, "aurora   STATION") == 1  # normalized match
    assert oracle_label(b, "Harbor Line") is None


def test_oracle_label_lowest_index_on_repeats():
    b = bridge("b2", "Aurora Station opened. Aurora Station closed. Nothing else.")
    assert oracle_label(b, "Aurora Station") == 0


def test_oracle_label_empty_title():
    assert oracle_label(bridge("b3", THREE_SENT), "   ") is None


# ---------------------------------------------------------------------------
# training and selection


def test_train_selector_picks_relation_sentence():
    items = annotated_pool()
    model = train_selector(items)
    result = select(
        bridge("bx", THREE_SENT),
        "Who married the keeper of the station?",
        model,
    )
    assert not result.abstained
    text, idx, conf = result.chosen
    assert idx == 1
    assert "Kara Voss" in text
    assert 0.0 <= conf <= 1.0


def test_select_empty_body_abstains():
    model = train_selector(annotated_pool())
    result = select(bridge("be", "   "), "Who?", model)
    assert result.abstained
    assert result.chosen is None


def test_select_tie_breaks_to_lowest_index():
    # With no weight on position, identical sentences score identically.
    trained = train_selector(annotated_pool())
    blind = replace(trained, weights=trained.weights[:2] + (0.0,) + trained.weights[3:])
    dup = "Mora Quill founded Relay Point A before the war."
    body = f"Rain kept the couriers indoors. {dup} {dup} Rain kept the couriers indoors."
    result = select(bridge("bdup", body), "Who founded the relay point?", blind)
    assert result.chosen[:2] == (dup, 1)
    assert result == select(bridge("bdup", body), "Who founded the relay point?", blind)


@lru_cache(maxsize=1)
def pool_model():
    return train_selector(annotated_pool())


_WORDS = (
    "Kara", "Voss", "Mora", "Quill", "Aurora", "Station", "Old", "Harbor", "Relay", "Point",
    "married", "founded", "wrote", "the", "keeper", "of", "to", "in", "1871", "rain", "couriers",
)
# Sentences of varied length, entity density and relation verbs, so that
# every selector feature moves and the scores use all five weights.
_sentences = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=12).map(
    lambda words: " ".join(words).capitalize() + "."
)
_bodies = st.one_of(
    st.sampled_from(("", "   ", "\n\t")),  # no sentences: abstains
    st.lists(st.one_of(_sentences, st.just("Dr. Smith wrote to J. K. Rowling.")), min_size=1, max_size=6).map(
        " ".join
    ),
)
_questions = st.lists(st.sampled_from(_WORDS), max_size=6).map(lambda words: "Who " + " ".join(words) + "?")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_bodies, _questions), max_size=8))
def test_select_all_equals_per_bridge_select(items):
    model = pool_model()
    pairs = [(bridge(f"b{i}", body), question) for i, (body, question) in enumerate(items)]
    batch = select_all(pairs, model)
    one_by_one = [select(b, question, model) for b, question in pairs]
    # Bit for bit: the chosen text, its index and its confidence.
    assert batch == one_by_one


def test_select_all_of_nothing():
    assert select_all([], pool_model()) == []


def test_train_selector_rejects_bad_index():
    items = [
        AnnotatedBridge(bridge=bridge("b0", "One sentence only."), question="Q?", gold_sentence_index=3)
    ]
    with pytest.raises(AnnotationError, match="out of range"):
        train_selector(items)


def test_train_selector_needs_rows():
    with pytest.raises(AnnotationError):
        train_selector([])


# ---------------------------------------------------------------------------
# load_annotations


def write_annotations(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_annotations_round_trip(tmp_path):
    passages = {"b1": bridge("b1", THREE_SENT)}
    questions = {"q1": "Who married the keeper?"}
    path = tmp_path / "ann.jsonl"
    write_annotations(
        path, [{"bridge_id": "b1", "question_id": "q1", "gold_sentence_index": 1}]
    )
    items = load_annotations(path, passages, questions)
    assert len(items) == 1
    assert items[0].bridge.id == "b1"
    assert items[0].question == "Who married the keeper?"
    assert items[0].gold_sentence_index == 1


def test_load_annotations_skips_blank_lines(tmp_path):
    passages = {"b1": bridge("b1", THREE_SENT)}
    questions = {"q1": "Q?"}
    path = tmp_path / "ann.jsonl"
    path.write_text(
        '{"bridge_id": "b1", "question_id": "q1", "gold_sentence_index": 0}\n\n',
        encoding="utf-8",
    )
    assert len(load_annotations(path, passages, questions)) == 1


@pytest.mark.parametrize(
    "row, message",
    [
        ({"bridge_id": "ghost", "question_id": "q1", "gold_sentence_index": 0}, "unknown bridge"),
        ({"bridge_id": "b1", "question_id": "ghost", "gold_sentence_index": 0}, "unknown question"),
        ({"bridge_id": "b1", "question_id": "q1", "gold_sentence_index": -1}, "bad gold_sentence_index"),
    ],
)
def test_load_annotations_rejects_bad_rows(tmp_path, row, message):
    passages = {"b1": bridge("b1", THREE_SENT)}
    questions = {"q1": "Q?"}
    path = tmp_path / "ann.jsonl"
    write_annotations(path, [row])
    with pytest.raises(AnnotationError, match=message):
        load_annotations(path, passages, questions)


def test_load_annotations_invalid_json(tmp_path):
    # A line that does not parse is a parse error, as in queries.jsonl.
    path = tmp_path / "ann.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(DatasetParseError, match="ann.jsonl:1: invalid JSON"):
        load_annotations(path, {}, {})
