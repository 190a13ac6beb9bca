"""Seeded two-hop worlds with both retrieval regimes planted.

A world is a dataset the CLI reads (queries.jsonl, passages.jsonl), the
annotations the selector trains on, and a plan that tells the stand-in
provider (``standin.py``) which texts carry meaning. Vectors live on
three planted axes plus noise orthogonal to them:

    e0  answer axis      gold passages, the relation sentence
    e1  confuser axis    distractors; B-dominant questions lean on it
    e2  background axis  distractors, bridge bodies

Every outcome that the benchmark checks is decided by construction:

* Q-dominant queries (comparison, bridge_comparison) name the hop-2
  title in the question, and the question points at e0, so Q-only
  retrieval ranks the gold first.
* B-dominant queries (compositional, inference) ask a generic question
  with no title. It leans on e1, where at least five pool distractors
  sit closer than the gold, so Q-only misses. The title sits in one
  bridge sentence only. On compositional bridges that sentence points
  at e0 strongly enough that the fused score (alpha = 0.25) ranks the
  gold first; on inference bridges it is too weak, so Union misses too.
* Trap queries (qtype other) look like B-dominant ones: the same
  generic questions, the title only in the bridge. Their pools hold no
  hard distractor, so Q-only finds the gold, but the relation sentence
  points away from it and lifts at least five distractors above it
  under Union. A router that sends them to Union loses them, so eval
  has losses as well as wins.

Distractors come from one shared corpus, so pools overlap across
queries, and consecutive queries may share a bridge and its gold. Every
sentence ends on a word or a number before the next capital, and
abbreviations or initials appear only inside a sentence, so the
sentence boundaries are unambiguous.

The corpus and the 881 training queries come from a fixed stream
(TRAIN_SEED), so ``train`` gets the same inputs under every seed: the
selector's solver fails to converge on some training splits (see
CHANGES.md), and a step that fails on some seeds only cannot be
measured run after run. The seed draws every later query.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

PREFIXES = {"query": "query: ", "doc": "passage: "}
TRAIN_QUERIES = 881  # the paper's training size, cross-fitted in 5 contiguous folds
TRAIN_SEED = 0  # seeds the corpus and the training split of every world

# Planted coefficients on (e0, e1, e2). The margins between planted
# scores are at least 0.05, against noise of about 0.003 per score.
PLAN_GOLD = (1.0, 0.0, 0.0)
PLAN_Q_QUESTION = (1.0, 0.3, 0.0)
PLAN_B_QUESTION = (0.45, 0.75, 0.0)
PLAN_REL_STRONG = (1.0, 0.0, 0.0)
PLAN_REL_WEAK = (0.3, 0.0, 0.95)
PLAN_REL_MISLEADING = (0.0, 0.5, 0.866)
PLAN_BODY = (0.8, 0.0, 0.6)
# Distractor classes by e1 coefficient, with their share of the corpus.
HARD = (0.7, 0.9)  # beat the gold of a B-dominant question under Q
MID = (0.35, 0.5)  # lose to that gold under Q, beat it under a misleading fusion
LOW = (0.0, 0.3)
HARD_SHARE, MID_SHARE = 0.3, 0.2
MIN_HARD = 5  # k of recall@k: a missed gold ranks below at least this many

SHARE_Q_DOMINANT = 0.45  # of queries
SHARE_COMPARISON = 2 / 3  # of Q-dominant queries; the rest are bridge_comparison
# Bridge kinds: the relation sentence points at the gold (compositional),
# weakly at it (inference) or away from it (trap).
BRIDGE_KINDS = (("compositional", 0.65), ("inference", 0.15), ("trap", 0.2))
REL_PLANS = {"compositional": PLAN_REL_STRONG, "inference": PLAN_REL_WEAK, "trap": PLAN_REL_MISLEADING}


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one world; the seed is passed separately."""

    queries: int
    tail: int  # trailing queries held back from the cold embed
    pool: int  # passages per query pool, gold included
    corpus: int  # shared distractor passages
    dim: int
    sentences: tuple[int, int]  # bridge sentences, inclusive range
    long_text: bool  # fillers with abbreviations, initials and multi-word names
    queries_per_bridge: int = 1  # consecutive queries sharing one bridge and one gold

    def key(self, seed: int) -> str:
        blob = json.dumps({**asdict(self), "seed": seed, "version": 3}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Vocabulary


_TITLE_SYL = ("ka", "lo", "mi", "re", "su", "ta", "vo", "ne", "di", "ra", "po", "ze", "fu", "le", "sa", "bo")
_NAME_SYL = ("an", "el", "or", "us", "im", "ex", "al", "en", "ir", "om", "ut", "ar")
_KINDS = ("Abbey", "Station", "Archive", "Harbor", "Gallery", "Tower", "Bridge", "Lyceum")
_PLACES = ("harbor", "valley", "quarry", "market", "ferry", "chapel", "mill", "orchard")
_THINGS = ("vault", "ledger", "relic", "charter", "bell", "map", "seal", "lamp")
_ROLES = ("keeper", "warden", "founder", "steward", "clerk")
_VERBS = ("guard", "restore", "move", "keep")
_FIRST = ("Ada", "Bram", "Cora", "Dane", "Elsa", "Finn", "Greta", "Hugo", "Ines", "Jory", "Kai", "Lena")
_SURNAME_ROOTS = ("Voss", "Quill", "Brennan", "Okafor", "Lind", "Marsh", "Tolle", "Ashby", "Crane", "Dorn")
_INITIALS = "ABCDEFGHJKLMNPRSTW"


def _word(index: int, syllables: tuple[str, ...], length: int) -> str:
    """A capitalized word spelling ``index`` in base len(syllables).

    Title words are consonant-vowel syllables and end in a vowel; name
    words are vowel-consonant syllables and end in a consonant. A title
    word therefore never ends a name, and a title never matches inside
    another passage's text.
    """
    parts = []
    for _ in range(length):
        index, r = divmod(index, len(syllables))
        parts.append(syllables[r])
    return "".join(parts).capitalize()


class _Text:
    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def pick(self, items):
        return items[int(self.rng.integers(len(items)))]

    def year(self) -> int:
        return int(self.rng.integers(1720, 1990))

    def person(self, long_text: bool) -> str:
        surname = self.pick(_SURNAME_ROOTS) + _word(int(self.rng.integers(144)), _NAME_SYL, 2).lower()
        if not long_text:
            return f"{self.pick(_FIRST)} {surname}"
        form = int(self.rng.integers(4))
        if form == 0:
            return f"Dr. {self.pick(_FIRST)} {surname}"
        if form == 1:
            return f"{self.pick(_INITIALS)}. {self.pick(_INITIALS)}. {surname}"
        if form == 2:
            return f"Mrs. {self.pick(_FIRST)} {self.pick(_INITIALS)}. {surname}"
        return f"{self.pick(_FIRST)} {surname} of St. {self.pick(_SURNAME_ROOTS)}"

    def filler(self, long_text: bool) -> str:
        p = self.person(long_text)
        place = self.pick(_PLACES)
        year = self.year()
        if not long_text:
            forms = (
                f"The ledger for the {place} says little else of note in {year}.",
                f"It was copied twice and then shelved near the {place} by {year}.",
                f"Nothing further survives in the margin about the {place} after {year}.",
            )
            return self.pick(forms)
        q = self.person(True)
        forms = (
            f"{p} catalogued the {place} records with {q} in {year}.",
            f"In {year} the U.S. survey team under {p} mapped the old {place}.",
            f"Notes by {p} mention the {place} and a visit by {q}.",
            f"The St. {self.pick(_SURNAME_ROOTS)} society kept a copy of the {place} plan until {year}.",
            f"Visitors such as {p} praised the {place}, e.g. its stone walls and small gate.",
            f"{p} was born near the {place} in {year}.",
            f"A letter from {p} to {q} describes the {place} at length.",
        )
        return self.pick(forms)


def _relation_sentence(text: _Text, title: str, long_text: bool) -> str:
    p = text.person(long_text)
    year = text.year()
    forms = (
        f"{title} was founded by {p} in {year}.",
        f"The charter of {title} was written by {p}.",
        f"{p} married the keeper of {title} in {year}.",
        f"{title} is located beside the old {text.pick(_PLACES)}.",
    )
    return text.pick(forms)


def _question(text: _Text, kind: str, title: str, bridge_title: str) -> str:
    if kind == "comparison":
        return f"Did {title} open earlier or later than {bridge_title}?"
    if kind == "bridge_comparison":
        return f"Are {title} and {bridge_title} both in the same district?"
    # Generic questions (B-dominant and trap) name no entity, so identical strings
    # recur across queries, as duplicate questions do in real datasets.
    return (
        f"Which {text.pick(_THINGS)} did the {text.pick(_ROLES)} of the "
        f"{text.pick(_PLACES)} {text.pick(_VERBS)}?"
    )


# ---------------------------------------------------------------------------
# Generation


def _plan_key(text: str, mode: str) -> str:
    return hashlib.sha256((PREFIXES[mode] + text).encode("utf-8")).hexdigest()[:24]


def _unit_plan(coeffs) -> list[float]:
    norm = math.sqrt(sum(c * c for c in coeffs))
    return [c / norm for c in coeffs]


def generate(spec: WorldSpec, seed: int) -> dict:
    """The whole world in memory: passages, queries, truth, plan, annotations."""
    if spec.tail < 1 or spec.queries - spec.tail < TRAIN_QUERIES:
        raise ValueError("a world needs the 881 training queries ahead of the tail")
    if spec.tail % spec.queries_per_bridge:
        raise ValueError("the tail must hold whole bridges")
    rng = np.random.default_rng(TRAIN_SEED)
    seeded = np.random.default_rng(seed)
    text = _Text(rng)
    plan: dict[str, list[float]] = {}
    passages: dict[str, dict] = {}

    n_hard, n_mid = int(spec.corpus * HARD_SHARE), int(spec.corpus * MID_SHARE)
    hard_ids, mid_ids, low_ids = [], [], []
    for j in range(spec.corpus):
        pid = f"d{j:05d}"
        ids, span = (hard_ids, HARD) if j < n_hard else (mid_ids, MID) if j < n_hard + n_mid else (low_ids, LOW)
        c = float(rng.uniform(*span))
        title = f"{_word(j, _NAME_SYL, 5)} {text.pick(_KINDS)}"
        body = text.filler(spec.long_text)
        passages[pid] = {"id": pid, "title": title, "body": body}
        plan[_plan_key(f"{title}\n{body}", "doc")] = _unit_plan((0.0, c, math.sqrt(1 - c * c)))
        ids.append(pid)
    if min(len(hard_ids), len(mid_ids)) < MIN_HARD or len(low_ids) < spec.pool - 1:
        raise ValueError("corpus too small for the pool")
    kinds, kind_shares = zip(*BRIDGE_KINDS)

    queries, truth, annotations = [], {}, []
    for b in range(-(-spec.queries // spec.queries_per_bridge)):
        if b * spec.queries_per_bridge >= TRAIN_QUERIES:
            rng = text.rng = seeded
        gold_id, bridge_id = f"g{b:05d}", f"b{b:05d}"
        title = f"{_word(b, _TITLE_SYL, 4)} {text.pick(_KINDS)}"
        bridge_title = f"{_word(b, _NAME_SYL, 4)} {text.pick(_KINDS)}"
        b_kind = kinds[int(rng.choice(len(kinds), p=kind_shares))]

        n_sent = int(rng.integers(spec.sentences[0], spec.sentences[1] + 1))
        rel_index = int(rng.integers(n_sent))
        rel = _relation_sentence(text, title, spec.long_text)
        sentences = [rel if s == rel_index else text.filler(spec.long_text) for s in range(n_sent)]
        body = " ".join(sentences)
        gold_body = f"{title} appears in the {text.pick(_PLACES)} registry from {text.year()} onward."
        passages[gold_id] = {"id": gold_id, "title": title, "body": gold_body}
        passages[bridge_id] = {"id": bridge_id, "title": bridge_title, "body": body}
        plan[_plan_key(f"{title}\n{gold_body}", "doc")] = _unit_plan(PLAN_GOLD)
        plan[_plan_key(rel, "query")] = _unit_plan(REL_PLANS[b_kind])
        plan[_plan_key(body, "query")] = _unit_plan(PLAN_BODY)

        for i in range(b * spec.queries_per_bridge, min((b + 1) * spec.queries_per_bridge, spec.queries)):
            qid = f"q{i:05d}"
            if rng.random() < SHARE_Q_DOMINANT:
                regime = "Q"
                kind = "comparison" if rng.random() < SHARE_COMPARISON else "bridge_comparison"
            else:
                regime, kind = ("T", "other") if b_kind == "trap" else ("B", b_kind)
            question = _question(text, kind, title, bridge_title)
            plan[_plan_key(question, "query")] = _unit_plan(PLAN_Q_QUESTION if regime == "Q" else PLAN_B_QUESTION)

            # A trap's pool has no hard distractor, so its generic question
            # finds the gold, and at least five mid ones that the misleading
            # relation sentence lifts above it.
            n_close = int(rng.integers(MIN_HARD, max(MIN_HARD + 2, (spec.pool - 1) // 3) + 1))
            pool = list(rng.choice(mid_ids if regime == "T" else hard_ids, size=n_close, replace=False))
            rest = low_ids if regime == "T" else mid_ids + low_ids
            pool += list(rng.choice(rest, size=spec.pool - 1 - len(pool), replace=False))
            pool.append(gold_id)
            queries.append({
                "id": qid, "question": question, "qtype": kind, "bridge_id": bridge_id,
                "gold_id": gold_id, "pool_ids": [str(p) for p in rng.permutation(pool)],
                "hop2_title": title,
            })
            truth[qid] = {"kind": kind, "regime": regime, "sentences": sentences, "rel_index": rel_index}
            if i < TRAIN_QUERIES:
                annotations.append({"bridge_id": bridge_id, "question_id": qid, "gold_sentence_index": rel_index})

    return {"passages": passages, "queries": queries, "truth": truth, "plan": plan, "annotations": annotations}


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _write_dataset(root: Path, queries: list[dict], passages: dict[str, dict]) -> None:
    """The queries plus the shared corpus and the passages they reference."""
    root.mkdir(parents=True)
    keep = {pid for pid in passages if pid.startswith("d")}
    for q in queries:
        keep.update((q["gold_id"], q["bridge_id"]))
    _write_jsonl(root / "queries.jsonl", queries)
    _write_jsonl(root / "passages.jsonl", (p for pid, p in passages.items() if pid in keep))


def materialize(spec: WorldSpec, seed: int, cache_root: Path) -> Path:
    """Generate the world once per (spec, seed) and return its directory.

    The directory holds ``full`` (every query), ``head`` (all but the
    tail), ``train`` (the first 881 queries), ``annotations.jsonl``,
    ``plan.json`` and ``truth.json``. It appears atomically, so an
    interrupted generation never leaves a partial world behind.
    """
    final = cache_root / spec.key(seed)
    if final.exists():
        return final
    world = generate(spec, seed)
    tmp = cache_root / f".{final.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    queries, passages = world["queries"], world["passages"]
    _write_dataset(tmp / "full", queries, passages)
    _write_dataset(tmp / "head", queries[: spec.queries - spec.tail], passages)
    _write_dataset(tmp / "train", queries[:TRAIN_QUERIES], passages)
    _write_jsonl(tmp / "annotations.jsonl", world["annotations"])
    (tmp / "plan.json").write_text(json.dumps(world["plan"]), encoding="utf-8")
    (tmp / "truth.json").write_text(json.dumps(world["truth"]), encoding="utf-8")
    (tmp / "spec.json").write_text(json.dumps({**asdict(spec), "seed": seed}), encoding="utf-8")
    try:
        tmp.rename(final)
    except OSError:  # another run finished the same world first
        shutil.rmtree(tmp, ignore_errors=True)
    return final
