"""Deterministic surface-text analysis.

Tokenization, sentence splitting, a capitalization-based proper-noun
heuristic, the P1/P2 predicate proxies, and feature extraction for the
router and the sentence selector. Everything here is pure and
dependency-light by design: no tagger, no learned components.

Lexicons ship as plain-text files (one term per line) under
``regime_router/data``; ``default_lexicons`` reads them once, and the
functions here take an optional ``Lexicons`` in their place.

``split_sentences`` jumps between runs of terminal punctuation with one
regex and applies the boundary rules per run. One private scan yields a
text's word surfaces and sentence-initial flags; ``tokenize`` wraps it,
and the span rules of ``proper_noun_spans`` live in one helper. Feature
rows are read from profiles built without Token objects: lowercased
words, entity surfaces and the count of tokens inside entity spans.
``profile_bridge`` splits a body once and profiles each sentence from
its own words: a sentence splits back to itself, so only its first word
is sentence-initial, and that word is a lone initial unless it recurs.
A sentence's profile lowercases its words once, steps between its
capitalized words and joins lowercased words into entity surfaces.
Nothing is memoized; a batch profiles each distinct text once and keeps
the profiles, and the by-text extractors (``sentence_features``,
``router_features``) give the same values.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Container, Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_TERMINAL_RUN_RE = re.compile(r"[.?!]+")

REGIME_Q_DOMINANT = "Q_dominant"
REGIME_B_DOMINANT = "B_dominant"
REGIME_UNCOVERED = "uncovered"

ROUTER_FEATURE_NAMES = (
    "q_comparison_word",
    "q_ynstart",
    "q_entity_count",
    "b_new_entity_count",
    "b_rel_frac",
)
SENTENCE_FEATURE_NAMES = (
    "new_entity_count",
    "has_relation_verb",
    "position_frac",
    "length_tokens",
    "ne_density",
)


def _load_terms(name: str) -> frozenset[str]:
    text = resources.files("regime_router.data").joinpath(name).read_text(encoding="utf-8")
    return frozenset(line.strip().lower() for line in text.splitlines() if line.strip())


@dataclass(frozen=True)
class Lexicons:
    """The five term lists the heuristics consume, all lowercase."""

    comparison: frozenset[str]
    ynstart: frozenset[str]
    relation_verbs: frozenset[str]
    span_stopwords: frozenset[str]
    abbreviations: frozenset[str]


@lru_cache(maxsize=1)
def default_lexicons() -> Lexicons:
    """The lexicons shipped under ``regime_router/data``."""
    return Lexicons(
        comparison=_load_terms("comparison_words.txt"),
        ynstart=_load_terms("ynstart_words.txt"),
        relation_verbs=_load_terms("relation_verbs.txt"),
        span_stopwords=_load_terms("span_stopwords.txt"),
        abbreviations=_load_terms("abbreviations.txt"),
    )


@dataclass(frozen=True)
class Sentence:
    text: str
    start: int
    end: int


class Token(NamedTuple):
    surface: str
    start: int
    end: int
    sentence_initial: bool


@dataclass(frozen=True)
class TokenizedText:
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class EntitySpan:
    """A run of capitalized tokens; token indices are inclusive."""

    first_token: int
    last_token: int
    surface: str

    @property
    def token_count(self) -> int:
        return self.last_token - self.first_token + 1


@dataclass(frozen=True)
class PredicateAssignment:
    p1: bool
    p2: bool
    regime: str


@dataclass(frozen=True)
class RouterFeatures:
    q_comparison_word: int
    q_ynstart: int
    q_entity_count: int
    b_new_entity_count: int
    b_rel_frac: float

    def as_vector(self) -> list[float]:
        return [float(v) for v in vars(self).values()]


@dataclass(frozen=True)
class SentenceFeatures:
    new_entity_count: int
    has_relation_verb: int
    position_frac: float
    length_tokens: int
    ne_density: float

    def as_vector(self) -> list[float]:
        return [float(v) for v in vars(self).values()]


def _abbreviation_before(text: str, dot_index: int, abbreviations: frozenset[str]) -> bool:
    # Collect the word (letters and internal dots) immediately left of the dot.
    j = dot_index
    while j > 0 and (text[j - 1].isalpha() or text[j - 1] == "."):
        j -= 1
    word = text[j:dot_index].rstrip(".")
    if not word:
        return False
    if len(word) == 1 and word.isalpha() and word.isupper():
        return True  # initials such as "J." in "J. Smith"
    return word.lower() in abbreviations


def _split(text: str, lex: Lexicons) -> tuple[Sentence, ...]:
    sentences: list[Sentence] = []
    n = len(text)

    def emit(seg_start: int, seg_end: int) -> None:
        # str.lstrip and str.rstrip strip exactly the characters for which isspace() holds.
        seg = text[seg_start:seg_end].lstrip()
        lo = seg_end - len(seg)
        seg = seg.rstrip()
        if seg:
            sentences.append(Sentence(text=seg, start=lo, end=lo + len(seg)))

    start = 0
    for run in _TERMINAL_RUN_RE.finditer(text):
        i, end = run.span()
        # Look past the punctuation run for whitespace then a capital.
        k = end
        while k < n and text[k].isspace():
            k += 1
        if k >= n:
            boundary = True
        elif k == end:
            boundary = False  # no whitespace between punctuation and next char
        elif not text[k].isupper():
            boundary = False
        elif end - i == 1 and text[i] == "." and _abbreviation_before(text, i, lex.abbreviations):
            boundary = False
        else:
            boundary = True
        if boundary:
            emit(start, end)
            start = end
    emit(start, n)
    return tuple(sentences)


def split_sentences(text: str, lex: Lexicons | None = None) -> list[Sentence]:
    """Split on ``.?!`` followed by whitespace+capital or end of text.

    An abbreviation guard suppresses period boundaries after known
    abbreviations and single-letter initials. Returned spans cover every
    non-whitespace character exactly once; no sentence is empty.
    """
    return list(_split(text, lex or default_lexicons()))


def _scan(text: str, lex: Lexicons) -> tuple[list[str], list[int], set[int]]:
    """Word surfaces, their start offsets and the indices of sentence-initial words.

    A word is sentence-initial when it is the first word at or after the
    start of some sentence.
    """
    surfaces: list[str] = []
    starts: list[int] = []
    for m in _WORD_RE.finditer(text):
        surfaces.append(m.group())
        starts.append(m.start())
    n = len(starts)
    return surfaces, starts, {i for sent in _split(text, lex) if (i := bisect_left(starts, sent.start)) < n}


def tokenize(text: str, lex: Lexicons | None = None) -> TokenizedText:
    """Word tokenization with char spans and sentence-initial flags."""
    surfaces, starts, initial = _scan(text, lex or default_lexicons())
    return TokenizedText(
        tokens=tuple(
            Token(surface, start, start + len(surface), k in initial)
            for k, (surface, start) in enumerate(zip(surfaces, starts))
        )
    )


def _entity_runs(surfaces: list[str], words: Sequence[str], stopwords: frozenset[str],
                 initial: Container[int], later: Container[str]) -> list[tuple[int, int]]:
    """The span rules of ``proper_noun_spans``, as half-open token-index runs.

    ``words`` are the lowercased surfaces, ``initial`` holds the indices of
    the sentence-initial words and ``later`` the surfaces at the other
    indices. The loop jumps between capitalized words.
    """
    caps = [s[:1].isupper() for s in surfaces]  # capitalized; an empty surface is not
    n = len(caps)
    caps += (False, True)  # sentinels: every run ends by n, and no run starts past it
    runs: list[tuple[int, int]] = []
    i = caps.index(True)
    while i < n:
        if words[i] in stopwords:
            i = caps.index(True, i + 1)
            continue
        j = caps.index(False, i)  # one past the run
        if j > i + 1 or i not in initial or surfaces[i] in later:  # else a lone sentence-initial word
            runs.append((i, j))
        i = caps.index(True, j)
    return runs


def proper_noun_spans(t: TokenizedText, lex: Lexicons | None = None) -> list[EntitySpan]:
    """Maximal runs of capitalized tokens, filtered by the span rules.

    A sentence-initial capitalized token is excluded unless its run
    continues with another capitalized token or the same surface recurs
    capitalized at a non-initial position elsewhere. Stopword tokens
    ("The", "A", question words, ...) never start a span, though they may
    continue one.
    """
    lex = lex or default_lexicons()
    surfaces = [tok.surface for tok in t.tokens]
    initial = {k for k, tok in enumerate(t.tokens) if tok.sentence_initial}
    later = {s for k, s in enumerate(surfaces) if k not in initial}
    return [
        EntitySpan(first_token=i, last_token=j - 1, surface=" ".join(surfaces[i:j]))
        for i, j in _entity_runs(surfaces, [s.lower() for s in surfaces], lex.span_stopwords, initial, later)
    ]


def span_surfaces(spans: list[EntitySpan]) -> set[str]:
    """Distinct normalized surfaces; the unit of entity counting."""
    return {normalize_text(s.surface) for s in spans}


def normalize_text(s: str) -> str:
    """Lowercase and collapse whitespace; the match normalization for P1/P2."""
    return " ".join(s.lower().split())


def p1_proxy(question: str, hop2_title: str) -> bool:
    """True iff the normalized hop-2 title is a substring of the question."""
    title = normalize_text(hop2_title)
    if not title:
        return False
    return title in normalize_text(question)


def title_sentence(sentences: Sequence[Sentence], hop2_title: str) -> int | None:
    """Lowest index of a sentence containing the normalized title, if any."""
    title = normalize_text(hop2_title)
    hits = (i for i, sent in enumerate(sentences) if title in normalize_text(sent.text))
    return next(hits, None) if title else None


def p2_proxy(bridge_body: str, hop2_title: str, lex: Lexicons | None = None) -> bool:
    """True iff some single sentence of the bridge contains the title."""
    return title_sentence(split_sentences(bridge_body, lex), hop2_title) is not None


def assign_regime(p1: bool, p2: bool) -> PredicateAssignment:
    """Predicate-to-regime mapping: p1 wins; p2 qualifies; else uncovered."""
    if p1:
        regime = REGIME_Q_DOMINANT
    elif p2:
        regime = REGIME_B_DOMINANT
    else:
        regime = REGIME_UNCOVERED
    return PredicateAssignment(p1=p1, p2=p2, regime=regime)


class TextProfile(NamedTuple):
    """What the feature extractors read of one text; the token count is len(words)."""

    words: tuple[str, ...]  # lowercased token surfaces, in order
    entities: frozenset[str]  # span_surfaces of the proper-noun spans
    entity_tokens: int  # tokens inside those spans


class BridgeProfile(NamedTuple):
    """A bridge body split once: its sentences, their profiles and its word count."""

    sentences: tuple[Sentence, ...]
    profiles: tuple[TextProfile, ...]
    word_count: int


def _profile(surfaces: list[str], stopwords: frozenset[str],
             initial: Container[int], later: Container[str]) -> TextProfile:
    """The profile of a text's words; ``initial`` and ``later`` as for ``_entity_runs``.

    Each word is lowercased once, and an entity's surface is the join of
    its lowercased words, which equals its ``normalize_text``.
    """
    words = tuple(map(str.lower, surfaces))
    runs = _entity_runs(surfaces, words, stopwords, initial, later)
    return TextProfile(words, frozenset(" ".join(words[i:j]) for i, j in runs), sum(j - i for i, j in runs))


def profile_text(text: str, lex: Lexicons | None = None) -> TextProfile:
    """The profile of a text of any number of sentences, from one full scan."""
    lex = lex or default_lexicons()
    surfaces, _, initial = _scan(text, lex)
    return _profile(surfaces, lex.span_stopwords, initial, {s for k, s in enumerate(surfaces) if k not in initial})


def profile_bridge(body: str, lex: Lexicons | None = None) -> BridgeProfile:
    """Split a body once and profile each sentence from its own words.

    A sentence splits back to itself, so its first word is its only
    sentence-initial one and the rest are its ``later`` words; no word
    crosses a sentence boundary.
    """
    lex = lex or default_lexicons()
    sentences = _split(body, lex)
    words = [_WORD_RE.findall(sent.text) for sent in sentences]
    profiles = tuple(_profile(w, lex.span_stopwords, (0,), w[1:]) for w in words)
    return BridgeProfile(sentences, profiles, sum(map(len, words)))


def _router_values(q: TextProfile, b: TextProfile, body_words: int, lex: Lexicons) -> tuple:
    brel_len = len(b.words)
    return (
        int(not lex.comparison.isdisjoint(q.words)),
        int(bool(q.words) and q.words[0] in lex.ynstart),
        len(q.entities),
        len(b.entities - q.entities),
        0.0 if brel_len == 0 or body_words == 0 else min(1.0, brel_len / body_words),
    )


def router_row(question: TextProfile, b_rel: TextProfile | None, body_words: int,
               lex: Lexicons | None = None) -> list[float]:
    """``router_features(...).as_vector()`` from profiles; None is an empty B_rel."""
    b_rel = b_rel or TextProfile((), frozenset(), 0)
    return [float(v) for v in _router_values(question, b_rel, body_words, lex or default_lexicons())]


def router_features(question: str, b_rel: str, bridge_body: str, lex: Lexicons | None = None) -> RouterFeatures:
    """The five router features, all computable from surface text alone."""
    lex = lex or default_lexicons()
    # tokenize makes exactly one token per _WORD_RE match.
    body_words = len(_WORD_RE.findall(bridge_body))
    return RouterFeatures(*_router_values(profile_text(question, lex), profile_text(b_rel, lex), body_words, lex))


def _sentence_values(s: TextProfile, q: TextProfile, index: int, total: int, lex: Lexicons) -> tuple:
    length = len(s.words)
    return (
        len(s.entities - q.entities),
        int(not lex.relation_verbs.isdisjoint(s.words)),
        index / max(total - 1, 1),
        length,
        0.0 if length == 0 else min(1.0, s.entity_tokens / length),
    )


def sentence_rows(bridge: BridgeProfile, question: TextProfile, lex: Lexicons | None = None) -> list[list[float]]:
    """``sentence_features(...).as_vector()`` of every sentence of a profiled bridge."""
    lex = lex or default_lexicons()
    total = len(bridge.profiles)
    return [[float(v) for v in _sentence_values(s, question, i, total, lex)] for i, s in enumerate(bridge.profiles)]


def sentence_features(sent: str, question: str, index: int, total: int,
                      lex: Lexicons | None = None) -> SentenceFeatures:
    """The five selector features for one sentence of a bridge passage."""
    if total < 1 or not (0 <= index < total):
        raise ValueError(f"index {index} out of range for total {total}")
    lex = lex or default_lexicons()
    return SentenceFeatures(*_sentence_values(profile_text(sent, lex), profile_text(question, lex), index, total, lex))
