import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regime_router.text_analysis import (
    REGIME_B_DOMINANT,
    REGIME_Q_DOMINANT,
    REGIME_UNCOVERED,
    ROUTER_FEATURE_NAMES,
    EntitySpan,
    Lexicons,
    RouterFeatures,
    Sentence,
    SentenceFeatures,
    TextProfile,
    Token,
    TokenizedText,
    assign_regime,
    default_lexicons,
    normalize_text,
    p1_proxy,
    p2_proxy,
    profile_bridge,
    profile_text,
    proper_noun_spans,
    router_features,
    router_row,
    sentence_features,
    sentence_rows,
    span_surfaces,
    split_sentences,
    tokenize,
)


# ---------------------------------------------------------------------------
# Sentence splitting


def texts(sents):
    return [s.text for s in sents]


def test_split_basic():
    got = split_sentences("First thing happened. Then another. Done now.")
    assert texts(got) == ["First thing happened.", "Then another.", "Done now."]


def test_split_question_and_exclaim():
    got = split_sentences("Was it here? It was! Truly.")
    assert texts(got) == ["Was it here?", "It was!", "Truly."]


def test_split_abbreviation_no_break():
    got = split_sentences("Dr. Smith arrived late. The meeting had started.")
    assert texts(got) == ["Dr. Smith arrived late.", "The meeting had started."]


def test_split_initials_no_break():
    got = split_sentences("J. K. Rowling wrote it. Everyone read it.")
    assert texts(got) == ["J. K. Rowling wrote it.", "Everyone read it."]


def test_split_lowercase_after_period_no_break():
    assert texts(split_sentences("Version 2. 1 shipped quietly.")) == [
        "Version 2. 1 shipped quietly."
    ]


def test_split_trailing_fragment_kept():
    got = split_sentences("A full sentence here. and a trailing fragment")
    assert got[-1].text.endswith("trailing fragment")


def test_split_empty_and_whitespace():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_split_multi_terminal_run():
    got = split_sentences("What?! Really?! Yes.")
    assert texts(got) == ["What?!", "Really?!", "Yes."]


def test_split_spans_index_source_text():
    text = "  One here.   Two there. "
    for sent in split_sentences(text):
        assert text[sent.start : sent.end] == sent.text


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_split_partitions_non_whitespace(text):
    sents = split_sentences(text)
    rebuilt = "".join(text[s.start : s.end] for s in sents)
    assert "".join(rebuilt.split()) == "".join(text.split())
    for s in sents:
        assert s.text == text[s.start : s.end]
        assert s.text == s.text.strip()
        assert s.text


# ---------------------------------------------------------------------------
# Tokens and entity spans


def test_tokenize_offsets_and_initial_flags():
    toks = tokenize("Rivers flow south. Stones stay put.").tokens
    assert [t.surface for t in toks] == ["Rivers", "flow", "south", "Stones", "stay", "put"]
    assert [t.sentence_initial for t in toks] == [True, False, False, True, False, False]


def test_entity_multi_token_span():
    spans = proper_noun_spans(tokenize("They toured New York Harbor at dawn."))
    assert [sp.surface for sp in spans] == ["New York Harbor"]
    assert spans[0].token_count == 3


def test_entity_stopword_cannot_start_but_may_continue():
    spans = proper_noun_spans(tokenize("He visited The Hague yesterday."))
    # "The" is a stopword: it cannot open a span, so only "Hague" remains.
    assert [sp.surface for sp in spans] == ["Hague"]
    spans2 = proper_noun_spans(tokenize("We read Of Mice And Men twice."))
    assert all(not sp.surface.lower().startswith("of ") for sp in spans2)


def test_entity_lone_sentence_initial_excluded():
    assert proper_noun_spans(tokenize("Dust covered the shelf.")) == []


def test_entity_sentence_initial_kept_when_recurring():
    spans = proper_noun_spans(tokenize("Kara left early. People asked Kara why."))
    surfaces = [sp.surface for sp in spans]
    assert surfaces.count("Kara") == 2


def test_entity_sentence_initial_kept_in_multi_token_span():
    spans = proper_noun_spans(tokenize("Kara Voss left early."))
    assert [sp.surface for sp in spans] == ["Kara Voss"]


def test_normalize_text():
    assert normalize_text("  Aurora   STATION\n7 ") == "aurora station 7"


# ---------------------------------------------------------------------------
# Regime predicates (the four-row truth table)


def test_regime_truth_table():
    assert assign_regime(True, True).regime == REGIME_Q_DOMINANT
    assert assign_regime(True, False).regime == REGIME_Q_DOMINANT
    assert assign_regime(False, True).regime == REGIME_B_DOMINANT
    assert assign_regime(False, False).regime == REGIME_UNCOVERED


def test_p1_proxy_containment():
    assert p1_proxy("Did Aurora Station open early?", "Aurora Station")
    assert not p1_proxy("Which vault keeps the relic?", "Aurora Station")
    assert not p1_proxy("Anything at all?", "")


def test_p2_proxy_needs_title_within_one_sentence():
    body = "Filler first. The charter of Aurora Station was early."
    assert p2_proxy(body, "Aurora Station")
    assert not p2_proxy("Aurora alone. Station alone.", "Aurora Station")


# ---------------------------------------------------------------------------
# Router features


def test_router_features_comparison_question():
    f = router_features(
        "Did Aurora Station open earlier or later than the harbor line?",
        "Aurora Station was founded before the harbor was built.",
        "Noise first. Aurora Station was founded before the harbor was built.",
    )
    assert f.q_comparison_word == 1
    assert f.q_ynstart == 1
    assert f.q_entity_count == 1
    assert f.b_new_entity_count == 0
    assert 0.0 < f.b_rel_frac <= 1.0


def test_router_features_compositional_question():
    f = router_features(
        "Which vault keeps the relic carried over from the old harbor?",
        "Kara Voss married the keeper of Aurora Station in Old Harbor.",
        "Kara Voss married the keeper of Aurora Station in Old Harbor. Extra words here.",
    )
    assert f.q_comparison_word == 0
    assert f.q_ynstart == 0
    assert f.q_entity_count == 0
    assert f.b_new_entity_count == 3
    assert 0.0 < f.b_rel_frac <= 1.0


def test_router_features_empty_brel():
    f = router_features("Did it work?", "", "Some body text here.")
    assert f.b_new_entity_count == 0
    assert f.b_rel_frac == 0.0


def test_router_feature_vector_order():
    f = router_features("Did it differ?", "Mora Quill wrote it.", "Mora Quill wrote it.")
    assert len(f.as_vector()) == len(ROUTER_FEATURE_NAMES)
    assert f.as_vector()[0] == 1.0  # comparison slot first


# ---------------------------------------------------------------------------
# Sentence features


def test_sentence_features_values():
    f = sentence_features(
        "Kara Voss married the keeper of Aurora Station.",
        "Which vault keeps the relic?",
        index=1,
        total=3,
    )
    assert f.new_entity_count == 2
    assert f.has_relation_verb == 1
    assert f.position_frac == 0.5
    assert f.length_tokens == 8
    assert 0.0 < f.ne_density <= 1.0


def test_sentence_features_single_sentence_position():
    f = sentence_features("Only one here.", "A question?", index=0, total=1)
    assert f.position_frac == 0.0


def test_sentence_features_index_validation():
    with pytest.raises(ValueError):
        sentence_features("Text.", "Q?", index=2, total=2)
    with pytest.raises(ValueError):
        sentence_features("Text.", "Q?", index=0, total=0)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120), st.text(max_size=120))
def test_feature_ranges_hold_on_arbitrary_text(question, brel):
    f = router_features(question, brel, brel or "x")
    assert f.q_comparison_word in (0, 1)
    assert f.q_ynstart in (0, 1)
    assert f.q_entity_count >= 0
    assert f.b_new_entity_count >= 0
    assert 0.0 <= f.b_rel_frac <= 1.0
    s = sentence_features(brel, question, index=0, total=2)
    assert s.has_relation_verb in (0, 1)
    assert 0.0 <= s.position_frac <= 1.0
    assert 0.0 <= s.ne_density <= 1.0
    assert s.length_tokens >= 0


# ---------------------------------------------------------------------------
# Lexicon overrides


def test_lexicon_override():
    lex = Lexicons(**{**vars(default_lexicons()), "comparison": frozenset({"zorblike"})})
    f = router_features("Is it zorblike?", "", "Body.", lex)
    assert f.q_comparison_word == 1
    assert router_features("Is it zorblike?", "", "Body.").q_comparison_word == 0


def test_span_surfaces_normalizes():
    spans = proper_noun_spans(tokenize("They saw Aurora  Station there. Aurora Station shone."))
    assert "aurora station" in span_surfaces(spans)


def test_custom_lexicons_get_their_own_profiles():
    custom = Lexicons(
        **{**vars(default_lexicons()), "relation_verbs": frozenset({"zorbed"}), "span_stopwords": frozenset({"kara"})}
    )
    sent = "Kara Voss zorbed the keeper. Kara Voss founded it."
    question = "Who zorbed the keeper?"
    # Same text under each lexicon, in both orders of first use.
    for first, second in ((None, custom), (custom, None)):
        a = sentence_features(sent, question, 0, 2, first)
        b = sentence_features(sent, question, 0, 2, second)
        assert a != b
    default = sentence_features(sent, question, 0, 2)
    mine = sentence_features(sent, question, 0, 2, custom)
    assert (default.has_relation_verb, mine.has_relation_verb) == (1, 1)
    # "Kara" may not start a span under the custom stopwords: "Voss" alone is the entity.
    assert default.ne_density == 4 / 9 and mine.ne_density == 2 / 9
    assert sentence_features("He zorbed it.", "Q?", 0, 1).has_relation_verb == 0
    assert sentence_features("He zorbed it.", "Q?", 0, 1, custom).has_relation_verb == 1


# ---------------------------------------------------------------------------
# Features against a reference that re-tokenizes every text on every call


def reference_router_features(question, b_rel, bridge_body, lex):
    q_toks = reference_tokenize(question, lex)
    lowered = [tok.surface.lower() for tok in q_toks.tokens]
    q_comparison = int(any(w in lex.comparison for w in lowered))
    q_ynstart = int(bool(lowered) and lowered[0] in lex.ynstart)
    q_surfaces = span_surfaces(reference_proper_noun_spans(q_toks, lex))
    b_toks = reference_tokenize(b_rel, lex)
    b_surfaces = span_surfaces(reference_proper_noun_spans(b_toks, lex))
    brel_len = len(b_toks.tokens)
    body_len = len(reference_tokenize(bridge_body, lex).tokens)
    frac = 0.0 if brel_len == 0 or body_len == 0 else min(1.0, brel_len / body_len)
    return RouterFeatures(
        q_comparison_word=q_comparison,
        q_ynstart=q_ynstart,
        q_entity_count=len(q_surfaces),
        b_new_entity_count=len(b_surfaces - q_surfaces),
        b_rel_frac=frac,
    )


def reference_sentence_features(sent, question, index, total, lex):
    s_toks = reference_tokenize(sent, lex)
    spans = reference_proper_noun_spans(s_toks, lex)
    q_surfaces = span_surfaces(reference_proper_noun_spans(reference_tokenize(question, lex), lex))
    length = len(s_toks.tokens)
    covered = sum(sp.token_count for sp in spans)
    return SentenceFeatures(
        new_entity_count=len(span_surfaces(spans) - q_surfaces),
        has_relation_verb=int(any(tok.surface.lower() in lex.relation_verbs for tok in s_toks.tokens)),
        position_frac=index / max(total - 1, 1),
        length_tokens=length,
        ne_density=0.0 if length == 0 else min(1.0, covered / length),
    )


_PIECES = (
    "Dr.", "Mr.", "St.", "U.S.", "e.g.", "vs.", "J.", "K.", "J. K.",
    "Kara Voss", "Mora Quill", "New York Harbor", "The Hague", "Aurora Station", "Old Harbor",
    "Kara", "The", "Which", "Did", "Is", "Was",
    "founded", "married", "wrote", "born", "different", "earlier", "or", "versus",
    "the", "keeper", "of", "harbor", "in", "1871", "it", "and",
    ".", "?", "!", "?!", ",", "  ", "\n", "Über", "naïve", "école",
)
_sentences = st.lists(st.sampled_from(_PIECES), max_size=14).map(" ".join)
_texts = st.one_of(
    st.just(""),
    _sentences,
    st.lists(_sentences, min_size=1, max_size=4).map(". ".join),
    _sentences.map(lambda s: f"{s}. {s}. {s}"),  # repeated sentences
)


@settings(max_examples=300, deadline=None)
@given(_texts, _texts, _texts, st.integers(1, 6), st.data())
def test_features_match_the_retokenizing_reference(question, b_rel, body, total, data):
    lex = default_lexicons()
    index = data.draw(st.integers(0, total - 1))
    # Twice each: a call must not change what a later one returns.
    for _ in range(2):
        assert router_features(question, b_rel, body, lex) == reference_router_features(question, b_rel, body, lex)
        assert sentence_features(b_rel, question, index, total, lex) == reference_sentence_features(
            b_rel, question, index, total, lex
        )
        assert sentence_features(body, b_rel, index, total) == reference_sentence_features(
            body, b_rel, index, total, lex
        )


# ---------------------------------------------------------------------------
# The splitter, tokenizer and span rules against a frozen reference
#
# The functions below are the character-by-character splitter, the
# Token-building tokenizer and the span rules as they stood before the
# shared scan, kept verbatim (renamed) so that the regex splitter and
# the shared scan are checked against code that shares nothing with them.

_REFERENCE_WORD_RE = re.compile(r"\w+", re.UNICODE)
_REFERENCE_TERMINALS = ".?!"


def _reference_abbreviation_before(text: str, dot_index: int, abbreviations: frozenset[str]) -> bool:
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


def reference_split_sentences(text: str, lex: Lexicons | None = None) -> list[Sentence]:
    """Split on ``.?!`` followed by whitespace+capital or end of text.

    An abbreviation guard suppresses period boundaries after known
    abbreviations and single-letter initials. Returned spans cover every
    non-whitespace character exactly once; no sentence is empty.
    """
    lex = lex or default_lexicons()
    sentences: list[Sentence] = []
    n = len(text)

    def emit(seg_start: int, seg_end: int) -> None:
        lo, hi = seg_start, seg_end
        while lo < hi and text[lo].isspace():
            lo += 1
        while hi > lo and text[hi - 1].isspace():
            hi -= 1
        if lo < hi:
            sentences.append(Sentence(text=text[lo:hi], start=lo, end=hi))

    start = 0
    i = 0
    while i < n:
        if text[i] not in _REFERENCE_TERMINALS:
            i += 1
            continue
        j = i
        while j + 1 < n and text[j + 1] in _REFERENCE_TERMINALS:
            j += 1
        # Look past the punctuation run for whitespace then a capital.
        k = j + 1
        while k < n and text[k].isspace():
            k += 1
        if k >= n:
            boundary = True
        elif k == j + 1:
            boundary = False  # no whitespace between punctuation and next char
        elif not text[k].isupper():
            boundary = False
        elif text[i] == "." and i == j and _reference_abbreviation_before(text, i, lex.abbreviations):
            boundary = False
        else:
            boundary = True
        if boundary:
            emit(start, j + 1)
            start = j + 1
        i = j + 1
    emit(start, n)
    return sentences


def reference_tokenize(text: str, lex: Lexicons | None = None) -> TokenizedText:
    """Word tokenization with char spans and sentence-initial flags."""
    sentences = reference_split_sentences(text, lex)
    starts = [s.start for s in sentences]
    tokens: list[Token] = []
    si = 0  # next sentence whose initial token is pending
    for m in _REFERENCE_WORD_RE.finditer(text):
        initial = False
        while si < len(starts) and m.start() >= starts[si]:
            initial = True
            si += 1
        tokens.append(Token(m.group(), m.start(), m.end(), initial))
    return TokenizedText(tokens=tuple(tokens))


def _reference_is_capitalized(surface: str) -> bool:
    return bool(surface) and surface[0].isupper()


def reference_proper_noun_spans(t: TokenizedText, lex: Lexicons | None = None) -> list[EntitySpan]:
    """Maximal runs of capitalized tokens, filtered by the span rules.

    A sentence-initial capitalized token is excluded unless its run
    continues with another capitalized token or the same surface recurs
    capitalized at a non-initial position elsewhere. Stopword tokens
    ("The", "A", question words, ...) never start a span, though they may
    continue one.
    """
    lex = lex or default_lexicons()
    toks = t.tokens
    caps = [_reference_is_capitalized(tok.surface) for tok in toks]
    mid_caps = {tok.surface for tok, c in zip(toks, caps) if c and not tok.sentence_initial}
    spans: list[EntitySpan] = []
    i = 0
    while i < len(toks):
        if not caps[i] or toks[i].surface.lower() in lex.span_stopwords:
            i += 1
            continue
        j = i
        while j + 1 < len(toks) and caps[j + 1]:
            j += 1
        lone_initial = toks[i].sentence_initial and j == i and toks[i].surface not in mid_caps
        if not lone_initial:
            spans.append(
                EntitySpan(
                    first_token=i,
                    last_token=j,
                    surface=" ".join(tok.surface for tok in toks[i : j + 1]),
                )
            )
        i = j + 1
    return spans


_SPLIT_PIECES = _PIECES + (
    "...", "?!?", "!!", "Mr.", "a.", "X.", "Ph.D.", "etc.", "No.", "e.g. Rome", "J...", "Dr.?", "Mr..",
    "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "\t", " \n ",
    "Élan", "Ärger", "İstanbul", "ß", "ǅ", "٣", "x", "Q", "ΟΔΟΣ Αθηνών", "Σ",
)
_split_texts = st.one_of(
    st.text(max_size=120),
    st.lists(st.sampled_from(_SPLIT_PIECES), max_size=24).map("".join),
    st.lists(st.sampled_from(_SPLIT_PIECES), max_size=24).map(" ".join),
    st.tuples(st.sampled_from((".", "?!", "!", ". ", " ?")), _sentences).map("".join),  # leading terminals
    st.tuples(_sentences, st.sampled_from(("", ".", "?!", " and a fragment", ". and more"))).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_split_texts, st.booleans())
def test_split_tokenize_and_spans_match_the_frozen_reference(text, custom):
    lex = None
    if custom:  # a lexicon whose abbreviations differ from the default's
        lex = Lexicons(**{**vars(default_lexicons()), "abbreviations": frozenset({"mr", "a", "etc"})})
    want_sents = reference_split_sentences(text, lex)
    want_toks = reference_tokenize(text, lex)
    want_spans = reference_proper_noun_spans(want_toks, lex)
    # Twice each: a call must not change what a later one returns.
    for _ in range(2):
        got = split_sentences(text, lex)
        assert got == want_sents
        got.clear()  # each call owns its list
        assert tokenize(text, lex) == want_toks
        assert proper_noun_spans(tokenize(text, lex), lex) == want_spans


def test_split_reference_cases_match():
    for text in (
        "Dr. Smith arrived. J. K. Rowling wrote it.",
        "What?! Really?! Yes.",
        "?! Leading run. Then more",
        "Tail\u00a0fragment.\u2003Next one.\u3000And a last",
        "No break.here. Break. Here",
        "He met J... Then left. Dr.. Then Mr.? Yes.",
    ):
        assert split_sentences(text) == reference_split_sentences(text)
        assert tokenize(text) == reference_tokenize(text)


# ---------------------------------------------------------------------------
# Per-body profiles against the by-text extractors

_CUSTOM_LEXICONS = (
    {"abbreviations": frozenset({"mr", "a", "etc"})},
    {
        "comparison": frozenset({"or", "keeper"}),
        "ynstart": frozenset({"kara", "which"}),
        "relation_verbs": frozenset({"harbor", "1871"}),
        "span_stopwords": frozenset({"kara", "the", "new"}),
    },
)


@settings(max_examples=400, deadline=None)
@given(_split_texts, _texts, st.sampled_from((None, *_CUSTOM_LEXICONS)))
def test_bridge_profiles_match_the_by_text_features(body, question, custom):
    lex = default_lexicons() if custom is None else Lexicons(**{**vars(default_lexicons()), **custom})
    sents = split_sentences(body, lex)
    for s in sents:  # a sentence cut from a body splits back to itself
        assert split_sentences(s.text, lex) == [Sentence(text=s.text, start=0, end=len(s.text))]
    bridge = profile_bridge(body, lex)
    q = profile_text(question, lex)
    assert list(bridge.sentences) == sents
    assert bridge.word_count == len(tokenize(body, lex).tokens)
    rows = sentence_rows(bridge, q, lex)
    assert len(bridge.profiles) == len(rows) == len(sents)
    for i, (s, profile, row) in enumerate(zip(sents, bridge.profiles, rows)):
        assert profile == profile_text(s.text, lex)
        assert row == sentence_features(s.text, question, i, len(sents), lex).as_vector()
        assert router_row(q, profile, bridge.word_count, lex) == router_features(question, s.text, body, lex).as_vector()
    assert router_row(q, None, bridge.word_count, lex) == router_features(question, "", body, lex).as_vector()


def reference_profile(text: str, lex: Lexicons) -> TextProfile:
    """A text's profile read off the frozen reference's tokens and spans."""
    toks = reference_tokenize(text, lex)
    spans = reference_proper_noun_spans(toks, lex)
    return TextProfile(
        words=tuple(tok.surface.lower() for tok in toks.tokens),
        entities=frozenset(normalize_text(span.surface) for span in spans),
        entity_tokens=sum(span.token_count for span in spans),
    )


@settings(max_examples=400, deadline=None)
@given(_split_texts, st.sampled_from((None, *_CUSTOM_LEXICONS)))
@example("Harbor lights shine on the harbor. Harbor lights shine on the Harbor.", None)  # case-sensitive recurrence
def test_profiles_match_the_frozen_reference(text, custom):
    lex = default_lexicons() if custom is None else Lexicons(**{**vars(default_lexicons()), **custom})
    assert profile_text(text, lex) == reference_profile(text, lex)
    bridge = profile_bridge(text, lex)
    assert list(bridge.sentences) == reference_split_sentences(text, lex)
    assert len(bridge.profiles) == len(bridge.sentences)
    for sent, profile in zip(bridge.sentences, bridge.profiles):
        assert profile == reference_profile(sent.text, lex)
