"""Shared synthetic worlds with hand-built vectors.

Both worlds use explicit basis directions so every retrieval outcome is
decided by construction, not by a trained encoder:

routing world (50 queries)
    Even queries are comparisons: the question vector equals the gold
    passage vector, so Q-only retrieval already succeeds. Odd queries are
    compositional: the question barely overlaps the gold passage while six
    distractors sit closer, so Q-only fails, but the relation sentence
    points straight at the gold passage and the 0.75/0.25 fusion flips the
    ranking. Feature separation (comparison word vs. new entities in the
    relation sentence) makes the router's job learnable.

knockout world (100 queries)
    Two-sentence bridges whose relation sentence carries the only gold
    alignment: the full body and the relation sentence both rank gold
    first, while the body with that sentence removed scores gold at zero
    against distractors with strictly positive residual alignment.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from regime_router.corpus import Dataset, Passage, Query, validate_dataset
from regime_router.embedding_store import (
    VectorStore,
    passage_key,
    question_key,
    text_key,
)
from regime_router.cli import enumerate_embedding_ids
from regime_router.selector import AnnotatedBridge


def rgrv1_bytes(store: VectorStore) -> bytes:
    """The legacy RGRV1 layout of ``store``: magic, u32 dim, then per sorted
    (id, mode) a u16 id length, the id, the mode byte and the f32 vector."""
    out = [b"RGRV1", struct.pack("<I", store.dim)]
    for text_id, mode in sorted(store.keys()):
        id_bytes = text_id.encode("utf-8")
        out += [struct.pack("<H", len(id_bytes)), id_bytes, bytes([{"query": 0, "doc": 1}[mode]])]
        out.append(store.get(text_id, mode).astype("<f4").tobytes())
    return b"".join(out)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


FILLER_TEMPLATES = (
    "the ledger entry {tag} says little else of note.",
    "it was copied twice and then shelved near entry {tag}.",
    "nothing further survives in the margin for {tag}.",
)


def _build_store(ds: Dataset, dim: int, qvec, pvec, textvec, default) -> VectorStore:
    entries = {}
    for sid, text, mode in enumerate_embedding_ids(ds):
        if sid.startswith("q::"):
            entries[(sid, mode)] = qvec[sid]
        elif sid.startswith("p::"):
            entries[(sid, mode)] = pvec[sid]
        else:
            entries[(sid, mode)] = textvec.get(text, default)
    return VectorStore(dim, entries)


@pytest.fixture(scope="session")
def routing_world():
    return build_routing_world()


def build_routing_world(n: int = 50):
    dim = 8
    e = np.eye(dim)
    queries: list[Query] = []
    passages: dict[str, Passage] = {}
    annotations: list[AnnotatedBridge] = []
    qvec: dict[str, np.ndarray] = {}
    pvec: dict[str, np.ndarray] = {}
    textvec: dict[str, np.ndarray] = {}

    for i in range(n):
        comparison = i % 2 == 0
        qid = f"q{i:03d}"
        gold_id = f"gold{i:03d}"
        bridge_id = f"br{i:03d}"
        title = f"Aurora Station {i}"

        if comparison:
            question = f"Did {title} open earlier or later than the harbor line?"
            rel_sentence = f"{title} was founded before the harbor was built."
            qtype = "comparison"
        else:
            question = "Which vault keeps the relic carried over from the old harbor?"
            rel_sentence = f"Kara Voss married the keeper of {title} in Old Harbor."
            qtype = "compositional"

        fillers = [t.format(tag=f"{i}-{j}") for j, t in enumerate(FILLER_TEMPLATES[:2])]
        gold_idx = i % 3
        sents = fillers[:]
        sents.insert(gold_idx, rel_sentence)
        body = " ".join(s.capitalize() if s[0].islower() else s for s in sents)
        # Re-derive the exact sentence texts after capitalization so the
        # annotation index and textvec keys match the splitter's output.
        final_sents = [s.capitalize() if s[0].islower() else s for s in sents]

        passages[bridge_id] = Passage(id=bridge_id, title=f"Bridge {i}", body=body)
        passages[gold_id] = Passage(
            id=gold_id, title=title, body=f"The terminus records nothing else for {i}."
        )
        pool = [gold_id]
        for j in range(6):
            did = f"d{i:03d}_{j}"
            passages[did] = Passage(
                id=did,
                title=f"Distractor {i} {j}",
                body=f"Nothing of consequence is recorded here for slot {i} {j}.",
            )
            pool.append(did)

        queries.append(
            Query(
                id=qid,
                question=question,
                qtype=qtype,
                bridge_id=bridge_id,
                gold_id=gold_id,
                pool_ids=tuple(pool),
                hop2_title=title,
            )
        )
        annotations.append(
            AnnotatedBridge(
                bridge=passages[bridge_id], question=question, gold_sentence_index=gold_idx
            )
        )

        if comparison:
            qvec[question_key(qid)] = e[0]
            pvec[passage_key(gold_id)] = e[0]
            dvec = _unit(0.3 * e[0] + np.sqrt(1 - 0.09) * e[2])
            textvec[final_sents[gold_idx]] = e[3]
        else:
            qv = 0.2 * e[0] + np.sqrt(1 - 0.04) * e[1]
            qvec[question_key(qid)] = qv
            pvec[passage_key(gold_id)] = e[0]
            dvec = 0.45 * qv + np.sqrt(1 - 0.2025) * e[2]
            textvec[final_sents[gold_idx]] = e[0]
        for j in range(6):
            pvec[passage_key(f"d{i:03d}_{j}")] = dvec
        pvec[passage_key(bridge_id)] = e[5]
        for s in final_sents:
            textvec.setdefault(s, e[4])

    ds = Dataset(name="routing_world", queries=tuple(queries), passages=passages)
    validate_dataset(ds)
    store = _build_store(ds, dim, qvec, pvec, textvec, default=e[5])
    return ds, store, annotations


@pytest.fixture(scope="session")
def knockout_world():
    return build_knockout_world()


@pytest.fixture(scope="session")
def margin_world():
    return build_margin_world()


def build_margin_world(n: int = 12):
    """Queries whose distractor pools have real variance.

    The routing world repeats one distractor vector per query (zero pool
    sigma), which the margin pipeline rightly flags degenerate. Margin,
    regime-agreement, and mixture tests need pools where sigma > 0, with
    the question side separating comparisons and the relation sentence
    separating compositionals.
    """
    dim = 8
    e = np.eye(dim)
    queries: list[Query] = []
    passages: dict[str, Passage] = {}
    annotations: list[AnnotatedBridge] = []
    entries: dict[tuple[str, str], np.ndarray] = {}

    for i in range(n):
        comparison = i % 2 == 0
        qid = f"m{i:02d}"
        gold_id = f"mg{i:02d}"
        bridge_id = f"mb{i:02d}"
        title = f"Beacon Hall {i}"
        filler = f"Little else is written about precinct {i}."
        if comparison:
            question = f"Did {title} open earlier or later than the ferry line?"
            rel = f"{title} was founded before the ferry pier."
            qv = e[0]
            # Orthogonal to gold but grazing the distractors' e2 component:
            # the sentence side anti-separates, so both the margin delta
            # and the AUC delta point at the question side.
            relvec = _unit(0.1 * e[2] + np.sqrt(1 - 0.01) * e[3])
            coeffs = (0.2, 0.3, 0.4)
        else:
            question = "Which vault keeps the relic carried from the old ferry?"
            rel = f"Kara Voss married the keeper of {title} at the ferry."
            qv = 0.2 * e[0] + np.sqrt(0.96) * e[1]
            relvec = e[0]
            coeffs = (0.4, 0.45, 0.5)
        body = f"{filler} {rel}"
        passages[bridge_id] = Passage(id=bridge_id, title=f"MB {i}", body=body)
        passages[gold_id] = Passage(id=gold_id, title=title, body=f"Registry line {i}.")
        pool = [gold_id]
        entries[(question_key(qid), "query")] = qv
        entries[(passage_key(gold_id), "doc")] = e[0]
        entries[(text_key(rel), "query")] = relvec
        entries[(text_key(filler), "query")] = e[4]
        for j, c in enumerate(coeffs):
            did = f"md{i:02d}_{j}"
            passages[did] = Passage(id=did, title=f"MD {i} {j}", body=f"Idle {i} {j}.")
            pool.append(did)
            base = e[0] if comparison else qv
            entries[(passage_key(did), "doc")] = _unit(c * base + np.sqrt(1 - c * c) * e[2])
        queries.append(
            Query(
                id=qid,
                question=question,
                qtype="comparison" if comparison else "compositional",
                bridge_id=bridge_id,
                gold_id=gold_id,
                pool_ids=tuple(pool),
                hop2_title=title,
            )
        )
        annotations.append(
            AnnotatedBridge(bridge=passages[bridge_id], question=question, gold_sentence_index=1)
        )

    ds = Dataset(name="margin_world", queries=tuple(queries), passages=passages)
    validate_dataset(ds)
    # Only the keys the margin pipeline touches; no full enumeration here.
    store = VectorStore(dim, entries)
    return ds, store, annotations


def build_knockout_world(n: int = 100, n_distractors: int = 8, seed: int = 11):
    dim = 4
    e = np.eye(dim)
    rng = np.random.default_rng(seed)
    queries: list[Query] = []
    passages: dict[str, Passage] = {}
    annotations: list[AnnotatedBridge] = []
    qvec: dict[str, np.ndarray] = {}
    pvec: dict[str, np.ndarray] = {}
    textvec: dict[str, np.ndarray] = {}

    for i in range(n):
        qid = f"kq{i:03d}"
        gold_id = f"kg{i:03d}"
        bridge_id = f"kb{i:03d}"
        title = f"Relay Point {i}"
        rel_sentence = f"The charter of {title} was written by Mora Quill."
        filler = f"Dust gathered on shelf {i} all season."
        body = f"{filler} {rel_sentence}"

        passages[bridge_id] = Passage(id=bridge_id, title=f"Knock Bridge {i}", body=body)
        passages[gold_id] = Passage(
            id=gold_id, title=title, body=f"A terse registry line for point {i}."
        )
        pool = [gold_id]
        for j in range(n_distractors):
            did = f"kd{i:03d}_{j}"
            passages[did] = Passage(
                id=did, title=f"Knock Distractor {i} {j}", body=f"Idle text {i} {j}."
            )
            pool.append(did)
            a = rng.uniform(0.1, 0.7)
            c = rng.uniform(0.05, 0.2)
            d = rng.uniform(0.1, 0.5)
            pvec[passage_key(did)] = _unit(a * e[0] + c * e[1] + d * e[2])

        queries.append(
            Query(
                id=qid,
                question=f"Who wrote the charter kept at the relay {i}?",
                qtype="compositional",
                bridge_id=bridge_id,
                gold_id=gold_id,
                pool_ids=tuple(pool),
                hop2_title=title,
            )
        )
        annotations.append(
            AnnotatedBridge(bridge=passages[bridge_id], question=queries[-1].question,
                            gold_sentence_index=1)
        )

        qvec[question_key(qid)] = e[3]
        pvec[passage_key(gold_id)] = e[0]
        pvec[passage_key(bridge_id)] = e[2]
        textvec[rel_sentence] = e[0]
        textvec[filler] = e[1]
        textvec[body] = _unit(0.9 * e[0] + 0.1 * e[1])

    ds = Dataset(name="knockout_world", queries=tuple(queries), passages=passages)
    validate_dataset(ds)
    store = _build_store(ds, dim, qvec, pvec, textvec, default=e[2])
    return ds, store, annotations
