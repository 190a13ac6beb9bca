import functools
import logging
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import rgrv1_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_router import embedding_store
from regime_router.embedding_store import (
    DimensionMismatchError,
    EmbedProviderConfig,
    EmbeddingClient,
    MissingEmbeddingError,
    NonFiniteVectorError,
    ProviderError,
    TransportError,
    CACHE_MAGIC,
    EncoderIdentity,
    VectorFormatError,
    VectorStore,
    load_vectors,
    passage_key,
    question_key,
    save_vectors,
    score_rows,
    text_key,
)


def test_key_namespaces():
    assert question_key("q7") == "q::q7"
    assert passage_key("p7") == "p::p7"
    k = text_key("some sentence")
    assert k.startswith("t::") and len(k) == 3 + 24
    assert k == text_key("some sentence")
    assert k != text_key("some sentence ")


# ---------------------------------------------------------------------------
# VectorStore


def test_store_normalizes_on_ingest():
    store = VectorStore(3, {("a", "doc"): np.array([3.0, 0.0, 4.0])})
    vec = store.get("a", "doc")
    assert np.isclose(np.linalg.norm(vec), 1.0)
    assert vec[0] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        vec[0] = 2.0  # read-only


def test_store_rejects_bad_vectors():
    with pytest.raises(DimensionMismatchError):
        VectorStore(3, {("a", "doc"): np.array([1.0, 0.0])})
    with pytest.raises(NonFiniteVectorError):
        VectorStore(2, {("a", "doc"): np.array([np.nan, 1.0])})
    with pytest.raises(NonFiniteVectorError):
        VectorStore(2, {("a", "doc"): np.zeros(2)})
    with pytest.raises(VectorFormatError):
        VectorStore(2, {("a", "tag"): np.ones(2)})
    with pytest.raises(DimensionMismatchError):
        VectorStore(0)


def test_store_score_and_missing():
    store = VectorStore(
        2,
        {
            ("q::1", "query"): np.array([1.0, 0.0]),
            ("p::a", "doc"): np.array([1.0, 0.0]),
            ("p::b", "doc"): np.array([0.0, 1.0]),
        },
    )
    scores = store.score("q::1", "query", ["p::a", "p::b"])
    assert scores == pytest.approx([1.0, 0.0])
    assert ("q::1", "query") in store
    assert ("q::1", "doc") not in store
    with pytest.raises(MissingEmbeddingError) as err:
        store.score("q::1", "query", ["p::ghost"])
    assert err.value.text_id == "p::ghost"
    assert err.value.mode == "doc"


def test_store_merged_overrides():
    store = VectorStore(2, {("a", "doc"): np.array([1.0, 0.0])})
    bigger = store.merged({("b", "query"): np.array([0.0, 2.0])})
    assert len(store) == 1
    assert len(bigger) == 2
    assert np.isclose(np.linalg.norm(bigger.get("b", "query")), 1.0)


# ---------------------------------------------------------------------------
# Binary file format


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    entries = {
        (f"id{i}", "doc" if i % 2 else "query"): rng.normal(0, 1, size=16) for i in range(9)
    }
    store = VectorStore(16, entries)
    path = tmp_path / "v.bin"
    save_vectors(store, path)
    again = load_vectors(path)
    assert len(again) == len(store)
    assert again.dim == 16
    for key in store.keys():
        # float32 on disk, renormalized on load: agreement to f32 precision.
        loaded = again.get(*key)
        assert np.isclose(np.linalg.norm(loaded), 1.0)
        assert np.allclose(loaded, store.get(*key), atol=1e-6)


def test_file_records_sorted(tmp_path):
    store = VectorStore(
        2,
        {
            ("zz", "query"): np.array([1.0, 0.0]),
            ("aa", "doc"): np.array([0.0, 1.0]),
        },
    )
    path = tmp_path / "v.bin"
    save_vectors(store, path)
    raw = path.read_bytes()
    assert raw.index(b"aa") < raw.index(b"zz")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 10)
    with pytest.raises(VectorFormatError, match="magic"):
        load_vectors(path)


def test_load_rejects_truncation(tmp_path):
    store = VectorStore(4, {("abc", "query"): np.array([1.0, 0.0, 0.0, 0.0])})
    path = tmp_path / "v.bin"
    save_vectors(store, path)
    raw = path.read_bytes()
    bad = tmp_path / "cut.bin"
    bad.write_bytes(raw[:-3])
    with pytest.raises(VectorFormatError, match="truncat"):
        load_vectors(bad)


# An RGRV2 store without an encoder identity: magic(5) + dim, n, identity length(12) + b"null".
_TABLE = 5 + 12 + 4


def test_load_rejects_unknown_mode_byte(tmp_path):
    store = VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])})
    raw = bytearray(rgrv1_bytes(store))
    # mode byte sits right after magic(5) + dim(4) + idlen(2) + id(2)
    raw[5 + 4 + 2 + 2] = 9
    bad = tmp_path / "mode.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(VectorFormatError, match="mode"):
        load_vectors(bad)


def test_load_rejects_unknown_mode_byte_rgrv2(tmp_path):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(2, {("ab", "query"): np.array([1.0, 0.0]), ("cd", "doc"): np.array([0.0, 1.0])}), path)
    raw = bytearray(path.read_bytes())
    assert raw[_TABLE : _TABLE + 2] == b"\x00\x01"
    raw[_TABLE + 1] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(VectorFormatError, match="unknown mode byte 9 in record 1"):
        load_vectors(path)


def test_failed_save_leaves_old_store(tmp_path):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(2, {("old", "doc"): np.array([1.0, 0.0])}), path)
    before = path.read_bytes()
    # The over-long id fails the save before any byte is written.
    bad = VectorStore(2, {("aa", "doc"): np.array([0.0, 1.0]), ("z" * 70_000, "doc"): np.array([1.0, 1.0])})
    with pytest.raises(VectorFormatError, match="too long"):
        save_vectors(bad, path)
    assert path.read_bytes() == before
    assert list(load_vectors(path).keys()) == [("old", "doc")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.bin"]


def test_load_rejects_duplicate_record(tmp_path):
    store = VectorStore(2, {("ab", "query"): np.array([1.0, 0.0]), ("cd", "doc"): np.array([0.0, 1.0])})
    path = tmp_path / "v.bin"
    raw = rgrv1_bytes(store)
    # The first record, ("ab", "query"): id length, id, mode byte, 2 x f32.
    first = raw[9 : 9 + 2 + 2 + 1 + 4 * 2]
    path.write_bytes(raw + first)
    with pytest.raises(VectorFormatError, match="duplicate record for id 'ab'"):
        load_vectors(path)


def test_load_rejects_duplicate_record_rgrv2(tmp_path):
    store = VectorStore(2, {("ab", "query"): np.array([1.0, 0.0]), ("cd", "query"): np.array([0.0, 1.0])})
    path = tmp_path / "v.bin"
    save_vectors(store, path)
    raw = path.read_bytes()
    assert raw.count(b"cd") == 1
    path.write_bytes(raw.replace(b"cd", b"ab"))
    with pytest.raises(VectorFormatError, match="duplicate record for id 'ab' in mode 'query'"):
        load_vectors(path)


def test_save_writes_an_overridden_key_once(tmp_path):
    store = VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])})
    bigger = store.merged({("ab", "query"): np.array([0.0, 3.0]), ("cd", "doc"): np.array([1.0, 1.0])})
    path = tmp_path / "v.bin"
    save_vectors(bigger, path)
    again = load_vectors(path)
    assert sorted(again.keys()) == [("ab", "query"), ("cd", "doc")]
    assert again.get("ab", "query").tolist() == [0.0, 1.0]
    # Two mode bytes, two id lengths and two 2-byte ids, padded to 8, then 2 x 2 f32.
    assert path.stat().st_size == 32 + 2 * 4 * 2
    legacy = rgrv1_bytes(bigger)
    assert len(legacy) == 9 + 2 * (2 + 2 + 1 + 4 * 2)
    path.write_bytes(legacy)
    assert sorted(load_vectors(path).keys()) == [("ab", "query"), ("cd", "doc")]


def test_load_rejects_invalid_utf8_id(tmp_path):
    path = tmp_path / "v.bin"
    raw = bytearray(rgrv1_bytes(VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])})))
    raw[5 + 4 + 2] = 0xFF  # first byte of the id
    path.write_bytes(bytes(raw))
    with pytest.raises(VectorFormatError, match="offset 11 is not valid UTF-8"):
        load_vectors(path)


def test_load_rejects_invalid_utf8_id_rgrv2(tmp_path):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(2, {("ab", "query"): np.array([1.0, 0.0]), ("\u00e9", "doc"): np.array([0.0, 1.0])}), path)
    raw = bytearray(path.read_bytes())
    ids_at = _TABLE + 2 + 2 * 2
    assert raw[ids_at : ids_at + 4] == "ab\u00e9".encode("utf-8")
    raw[ids_at + 2] = 0xFF  # first byte of the second id
    path.write_bytes(bytes(raw))
    with pytest.raises(VectorFormatError, match="id of record 1 is not valid UTF-8"):
        load_vectors(path)


def test_load_rejects_trailing_bytes_and_bad_padding(tmp_path):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])}), path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00")
    with pytest.raises(VectorFormatError, match="1 trailing bytes"):
        load_vectors(path)
    pad_at = _TABLE + 1 + 2 + 2
    assert raw[pad_at:32] == bytes(32 - pad_at)
    path.write_bytes(raw[:pad_at] + b"\x01" + raw[pad_at + 1 :])
    with pytest.raises(VectorFormatError, match="padding"):
        load_vectors(path)


@pytest.mark.parametrize("identity", [b"{}", b"[1, 2, 3]", b'{"model_name": 1, "query_prefix": "", "doc_prefix": ""}',
                                      b"{nul", b"\xff\xfe\xfd\xfc"])
def test_load_rejects_a_bad_encoder_identity(tmp_path, identity):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])}), path)
    raw = path.read_bytes()
    header = b"RGRV2" + struct.pack("<III", 2, 1, len(identity)) + identity
    table = raw[_TABLE : _TABLE + 5]
    pad = bytes(-(len(header) + len(table)) % 8)
    path.write_bytes(header + table + pad + raw[32:])
    with pytest.raises(VectorFormatError, match="encoder identity"):
        load_vectors(path)


def test_store_keeps_its_encoder_identity(tmp_path):
    ident = EncoderIdentity("embed-small", "query: ", "passage: ")
    store = VectorStore(2, {("ab", "query"): np.array([1.0, 0.0])}, identity=ident)
    path = tmp_path / "v.bin"
    save_vectors(store, path)
    raw = path.read_bytes()
    assert b'{"model_name": "embed-small", "query_prefix": "query: ", "doc_prefix": "passage: "}' in raw
    loaded = load_vectors(path)
    assert loaded.identity == ident
    assert loaded.merged({("cd", "doc"): np.ones(2)}).identity == ident
    assert VectorStore(2).identity is None
    path.write_bytes(rgrv1_bytes(store))
    assert load_vectors(path).identity is None


@pytest.mark.parametrize("dim", [1, 3, 768])
def test_both_layouts_load_bit_identical_rows(tmp_path, dim):
    rng = np.random.default_rng(dim)
    entries = {(f"p::{i}", "doc"): rng.normal(size=dim) * rng.uniform(1e-3, 1e3) for i in range(40)}
    entries.update({(f"q::{i}\u00e9", "query"): rng.normal(size=dim) for i in range(25)})
    entries[("p::3", "query")] = rng.normal(size=dim)
    built = VectorStore(dim, entries)
    save_vectors(built, tmp_path / "v2.bin")
    (tmp_path / "v1.bin").write_bytes(rgrv1_bytes(built))
    new, old = load_vectors(tmp_path / "v2.bin"), load_vectors(tmp_path / "v1.bin")
    assert list(new.keys()) == list(old.keys()) == sorted(entries)
    for key in entries:
        assert new.get(*key).tobytes() == old.get(*key).tobytes()
    # The f32 payload is the same bytes in both files, in the same order.
    v2 = (tmp_path / "v2.bin").read_bytes()
    assert v2[-4 * dim * len(entries) :] == b"".join(
        built.get(*key).astype("<f4").tobytes() for key in sorted(entries)
    )


def test_empty_store_round_trips(tmp_path):
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(5), path)
    again = load_vectors(path)
    assert (len(again), again.dim, again.identity) == (0, 5, None)


@functools.lru_cache(maxsize=2)
def _small_store_bytes(layout: str) -> bytes:
    entries = {
        ("\u00e9t\u00e9", "query"): np.array([1.0, 2.0, 3.0]),
        ("\u00e9t\u00e9", "doc"): np.array([0.0, 1.0, 0.0]),
        ("p::a", "doc"): np.array([-1.0, 0.5, 0.25]),
    }
    store = VectorStore(3, entries, identity=EncoderIdentity("m", "q: ", ""))
    if layout == "RGRV1":
        return rgrv1_bytes(store)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "v.bin"
        save_vectors(store, path)
        return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_damaged_store_loads_or_raises_a_store_error(data):
    raw = bytearray(_small_store_bytes(data.draw(st.sampled_from(["RGRV2", "RGRV1"]), label="layout")))
    if data.draw(st.booleans(), label="cut"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut at")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(st.integers(1, 255), label="mask")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "v.bin"
        path.write_bytes(bytes(raw))
        try:
            store = load_vectors(path)
        except (VectorFormatError, NonFiniteVectorError):
            return
    for key in store.keys():
        assert np.isclose(np.linalg.norm(store.get(*key)), 1.0)


@pytest.mark.parametrize("dim", [2, 32, 768])
def test_rows_and_scores_are_bit_identical_to_per_vector_numpy(tmp_path, dim):
    rng = np.random.default_rng(dim)
    entries = {(f"q{i}", "query"): rng.normal(size=dim) for i in range(10)}
    entries.update({(f"p{i}", "doc"): rng.normal(size=dim) * rng.uniform(1e-3, 1e3) for i in range(150)})
    built = VectorStore(dim, entries)
    save_vectors(built, tmp_path / "v.bin")
    loaded = load_vectors(tmp_path / "v.bin")
    on_disk = {key: built.get(*key).astype("<f4").astype(float) for key in entries}
    docs = [text_id for text_id, mode in entries if mode == "doc"]
    for store, sources in ((built, entries), (loaded, on_disk)):
        for key, vec in sources.items():
            assert np.array_equal(store.get(*key), vec / np.linalg.norm(vec))
        for text_id, mode in entries:
            if mode == "query":
                qv = store.get(text_id, mode)
                expected = [float(np.dot(qv, store.get(doc, "doc"))) for doc in docs]
                assert store.score(text_id, mode, docs).tolist() == expected


@pytest.mark.parametrize("dim", [2, 32, 768])
@pytest.mark.parametrize("chunk_rows", [1, 3, 4])
@pytest.mark.parametrize("n_queries", [1, 3, 12, 13])
def test_score_rows_is_per_pair_dot_at_chunk_edges(monkeypatch, dim, chunk_rows, n_queries):
    # The chunk budget is set to exactly chunk_rows queries' candidates, so
    # one query, one whole chunk, whole multiples and a ragged tail all occur.
    m = 7
    monkeypatch.setattr(embedding_store, "_SCORE_CHUNK_BYTES", chunk_rows * m * dim * 8)
    rng = np.random.default_rng(dim + n_queries)
    entries = {(f"q{i}", "query"): rng.normal(size=dim) for i in range(n_queries)}
    entries.update({(f"p{i}", "doc"): rng.normal(size=dim) * rng.uniform(1e-3, 1e3) for i in range(20)})
    store = VectorStore(dim, entries)
    pools = [[f"p{j}" for j in rng.choice(20, size=m, replace=False)] for _ in range(n_queries)]
    # Two sides: each query's own vector, and the next query's.
    sides = [[f"q{i}" for i in range(n_queries)], [f"q{(i + 1) % n_queries}" for i in range(n_queries)]]
    candidates = np.array([store.rows(pool, "doc") for pool in pools])
    scores = score_rows(store, [store.rows(ids, "query") for ids in sides], candidates)
    assert scores.shape == (2, n_queries, m)
    for k, ids in enumerate(sides):
        for i, (side, pool) in enumerate(zip(ids, pools)):
            qv = store.get(side, "query")
            expected = [float(np.dot(store.get(pid, "doc"), qv)) for pid in pool]
            assert scores[k, i].tolist() == expected
            assert store.score(side, "query", pool).tolist() == expected


def test_store_rows_names_the_missing_key():
    store = VectorStore(2, {("a", "doc"): np.array([1.0, 0.0])})
    assert store.rows(["a", "a"], "doc").tolist() == [0, 0]
    assert store.rows([], "doc").shape == (0,)
    with pytest.raises(MissingEmbeddingError) as err:
        store.rows(["a", "ghost"], "doc")
    assert (err.value.text_id, err.value.mode) == ("ghost", "doc")


def test_load_and_merge_hold_no_more_than_two_matrices(tmp_path):
    n, dim = 400, 768
    rng = np.random.default_rng(0)
    path = tmp_path / "v.bin"
    save_vectors(VectorStore(dim, {(f"p::{i}", "doc"): rng.normal(size=dim) for i in range(n)}), path)
    matrix_bytes = 8 * n * dim
    # Room for the key table, well under an n x dim boolean temporary.
    slack = n * dim // 2
    tracemalloc.start()
    try:
        store = load_vectors(path)
        _, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        store.merged({("extra", "doc"): np.ones(dim)})
        _, merge_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak < path.stat().st_size + matrix_bytes + slack
    assert merge_peak - before < matrix_bytes + 8 * dim + slack


# ---------------------------------------------------------------------------
# Embedding client with a deterministic fake provider


def unit_for(text: str, dim: int = 4) -> list[float]:
    # Hash-free deterministic direction: spread by character sum.
    idx = sum(text.encode()) % dim
    vec = [0.0] * dim
    vec[idx] = 2.0
    vec[(idx + 1) % dim] = 1.0
    return vec


def make_transport(log):
    def transport(url, payload, headers, timeout):
        log.append({"url": url, "payload": payload, "headers": headers})
        return {"vectors": [unit_for(t) for t in payload["input"]]}

    return transport


def client_config(**overrides):
    base = dict(
        endpoint="https://provider.test/embed",
        model_name="embed-small",
        mode_instructions={"query": "search_query: ", "doc": "search_document: "},
        retry_base_delay=0.0,
        parallelism=1,
    )
    base.update(overrides)
    return EmbedProviderConfig(**base)


def test_fetch_applies_mode_prefix_and_normalizes():
    log = []
    client = EmbeddingClient(client_config(), transport=make_transport(log))
    vecs = client.fetch(["alpha", "beta"], "query")
    assert len(vecs) == 2
    assert all(np.isclose(np.linalg.norm(v), 1.0) for v in vecs)
    assert log[0]["payload"]["input"] == ["search_query: alpha", "search_query: beta"]
    assert log[0]["payload"]["mode"] == "query"
    assert client.calls == 1


def test_fetch_batches_by_size():
    log = []
    client = EmbeddingClient(client_config(batch_size=2), transport=make_transport(log))
    client.fetch([f"t{i}" for i in range(5)], "doc")
    assert client.calls == 3
    assert [len(entry["payload"]["input"]) for entry in log] == [2, 2, 1]


def test_fetch_sends_a_repeated_text_once(tmp_path):
    log = []
    cache = tmp_path / "cache.bin"
    client = EmbeddingClient(client_config(batch_size=2), cache_path=cache, transport=make_transport(log))
    vecs = client.fetch(["a", "b", "a", "c", "b", "a"], "doc")
    assert [entry["payload"]["input"] for entry in log] == [
        ["search_document: a", "search_document: b"],
        ["search_document: c"],
    ]
    raw = {t: np.asarray(unit_for(f"search_document: {t}")) for t in "abc"}
    assert [v.tolist() for v in vecs] == [(raw[t] / np.linalg.norm(raw[t])).tolist() for t in "abacba"]
    assert vecs[0] is not vecs[2]  # every position owns its array
    fresh = tmp_path / "fresh.bin"
    EmbeddingClient(client_config(), cache_path=fresh, transport=make_transport([])).fetch(["a", "b", "c"], "doc")
    assert cache.read_bytes() == fresh.read_bytes()


def test_fetch_unknown_mode():
    client = EmbeddingClient(client_config(), transport=make_transport([]))
    with pytest.raises(ValueError, match="mode"):
        client.fetch(["x"], "sideways")


def test_cache_round_trip_and_call_counter(tmp_path):
    cache = tmp_path / "cache.json"
    log = []
    c1 = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport(log))
    c1.fetch(["alpha", "beta"], "query")
    assert c1.calls == 1
    assert cache.exists()

    # Fresh client, same cache: the overlapping text is not re-requested.
    log2 = []
    c2 = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport(log2))
    vecs = c2.fetch(["alpha", "beta", "gamma"], "query")
    assert c2.calls == 1
    assert log2[0]["payload"]["input"] == ["search_query: gamma"]
    assert len(vecs) == 3

    # Fully cached fetch needs no network at all.
    c3 = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport([]))
    c3.fetch(["alpha", "gamma"], "query")
    assert c3.calls == 0


def test_cache_is_mode_and_model_scoped(tmp_path):
    cache = tmp_path / "cache.json"
    log = []
    c1 = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport(log))
    c1.fetch(["alpha"], "query")
    c2 = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport(log))
    c2.fetch(["alpha"], "doc")
    assert c2.calls == 1  # same text, different mode: not a cache hit
    c3 = EmbeddingClient(
        client_config(model_name="embed-large"), cache_path=cache, transport=make_transport(log)
    )
    c3.fetch(["alpha"], "query")
    assert c3.calls == 1  # same text and mode, different model


def test_transport_error_retried_then_succeeds():
    attempts = {"n": 0}

    def flaky(url, payload, headers, timeout):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise TransportError("connection reset")
        return {"vectors": [unit_for(t) for t in payload["input"]]}

    client = EmbeddingClient(client_config(max_retries=3), transport=flaky)
    vecs = client.fetch(["x"], "query")
    assert len(vecs) == 1
    assert client.calls == 3


def test_transport_error_exhausts_retries():
    def dead(url, payload, headers, timeout):
        raise TransportError("no route")

    client = EmbeddingClient(client_config(max_retries=2), transport=dead)
    with pytest.raises(TransportError):
        client.fetch(["x"], "query")
    assert client.calls == 3  # initial try + 2 retries


def test_provider_error_not_retried():
    attempts = {"n": 0}

    def rude(url, payload, headers, timeout):
        attempts["n"] += 1
        raise ProviderError('{"error": "model overloaded"}')

    client = EmbeddingClient(client_config(max_retries=5), transport=rude)
    with pytest.raises(ProviderError, match="overloaded"):
        client.fetch(["x"], "query")
    assert attempts["n"] == 1


def test_count_mismatch_raises_provider_error():
    def short(url, payload, headers, timeout):
        return {"vectors": [unit_for(payload["input"][0])]}

    client = EmbeddingClient(client_config(), transport=short)
    with pytest.raises(ProviderError, match="vectors for"):
        client.fetch(["a", "b"], "query")


@pytest.mark.parametrize(
    "body",
    [[1, 2], "vectors", None, {"data": []}, {"vectors": {"0": [1.0]}}, {"vectors": [{"x": 1.0}, [1.0]]}],
    ids=["list", "string", "null", "no-vectors", "vectors-object", "vector-object"],
)
def test_malformed_body_raises_provider_error(body):
    client = EmbeddingClient(client_config(), transport=lambda url, payload, headers, timeout: body)
    with pytest.raises(ProviderError, match=r"the query batch of 2 inputs starting 'search_query: a'"):
        client.fetch(["a", "b"], "query")


def test_mixed_dimensions_rejected():
    def lumpy(url, payload, headers, timeout):
        return {"vectors": [[1.0, 0.0], [1.0, 0.0, 0.0]]}

    client = EmbeddingClient(client_config(), transport=lumpy)
    with pytest.raises(DimensionMismatchError):
        client.fetch(["a", "b"], "query")


def test_expected_dim_enforced():
    client = EmbeddingClient(client_config(), transport=make_transport([]))
    with pytest.raises(DimensionMismatchError):
        client.fetch(["a"], "query", expected_dim=7)


def test_bearer_token_from_env(monkeypatch):
    log = []
    monkeypatch.setenv("EMBED_TOKEN", "sesame")
    client = EmbeddingClient(
        client_config(auth_env_var="EMBED_TOKEN"), transport=make_transport(log)
    )
    client.fetch(["x"], "query")
    assert log[0]["headers"]["Authorization"] == "Bearer sesame"


def test_cache_write_failure_is_nonfatal(tmp_path, caplog):
    cache = tmp_path / "no_such_dir" / "cache.json"
    client = EmbeddingClient(client_config(), cache_path=cache, transport=make_transport([]))
    with caplog.at_level(logging.WARNING):
        vecs = client.fetch(["x"], "query")
    assert len(vecs) == 1
    assert any("cache write failed" in rec.message for rec in caplog.records)


def test_parallel_fetch_preserves_order(tmp_path):
    texts = [f"text number {i}" for i in range(20)]
    serial = EmbeddingClient(client_config(batch_size=4), transport=make_transport([]))
    parallel = EmbeddingClient(
        client_config(batch_size=4, parallelism=4), transport=make_transport([])
    )
    a = serial.fetch(texts, "doc")
    b = parallel.fetch(texts, "doc")
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


# ---------------------------------------------------------------------------
# Embed cache file


def test_cache_keys_on_exact_string_sent(tmp_path):
    cache = tmp_path / "cache.bin"
    log = []
    a = EmbeddingClient(client_config(mode_instructions={"query": "A:"}), cache_path=cache,
                        transport=make_transport(log))
    a.fetch(["alpha"], "query")
    b = EmbeddingClient(client_config(mode_instructions={"query": "B:"}), cache_path=cache,
                        transport=make_transport(log))
    b.fetch(["alpha"], "query")
    assert b.calls == 1
    assert [entry["payload"]["input"] for entry in log] == [["A:alpha"], ["B:alpha"]]


def failing_on(bad_text, log):
    """A transport that fails every attempt at the batch holding bad_text."""
    good = make_transport(log)

    def transport(url, payload, headers, timeout):
        if bad_text in payload["input"]:
            raise TransportError("connection reset")
        return good(url, payload, headers, timeout)

    return transport


@pytest.mark.parametrize("parallelism", [1, 3])
def test_completed_batches_survive_a_failed_one(tmp_path, parallelism):
    cache = tmp_path / "cache.bin"
    texts = [f"t{i}" for i in range(6)]
    cfg = client_config(batch_size=2, parallelism=parallelism, max_retries=1,
                        mode_instructions={})
    client = EmbeddingClient(cfg, cache_path=cache, transport=failing_on("t4", []))
    with pytest.raises(TransportError):
        client.fetch(texts, "doc")

    log = []
    again = EmbeddingClient(cfg, cache_path=cache, transport=make_transport(log))
    again.fetch(texts, "doc")
    assert [entry["payload"]["input"] for entry in log] == [["t4", "t5"]]


def test_batches_after_a_failed_one_are_kept(tmp_path):
    cache = tmp_path / "cache.bin"
    texts = [f"t{i}" for i in range(6)]
    cfg = client_config(batch_size=2, parallelism=3, max_retries=0, mode_instructions={})
    all_started = threading.Barrier(3, timeout=10)
    fail_first = failing_on("t0", [])

    def transport(url, payload, headers, timeout):
        all_started.wait()  # the first batch fails once the later two are under way
        return fail_first(url, payload, headers, timeout)

    with pytest.raises(TransportError):
        EmbeddingClient(cfg, cache_path=cache, transport=transport).fetch(texts, "doc")

    log = []
    EmbeddingClient(cfg, cache_path=cache, transport=make_transport(log)).fetch(texts, "doc")
    assert [entry["payload"]["input"] for entry in log] == [["t0", "t1"]]


def test_cache_bytes_do_not_depend_on_parallelism(tmp_path):
    # More workers than cores, a short switch interval, and later batches finish first.
    texts = [f"text number {i}" for i in range(48)]

    def reversed_order(url, payload, headers, timeout):
        first = int(payload["input"][0].rsplit(" ", 1)[1])
        time.sleep(0.0005 * (48 - first))
        return {"vectors": [unit_for(t) for t in payload["input"]]}

    serial, parallel = tmp_path / "serial.bin", tmp_path / "parallel.bin"
    EmbeddingClient(client_config(batch_size=2), cache_path=serial, transport=reversed_order).fetch(texts, "doc")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        EmbeddingClient(client_config(batch_size=2, parallelism=8), cache_path=parallel,
                        transport=reversed_order).fetch(texts, "doc")
    finally:
        sys.setswitchinterval(interval)
    assert serial.read_bytes() == parallel.read_bytes()
    again = EmbeddingClient(client_config(), cache_path=parallel, transport=make_transport([]))
    again.fetch(texts, "doc")
    assert again.calls == 0


def test_cache_layout(tmp_path):
    cache = tmp_path / "cache.bin"
    EmbeddingClient(client_config(), cache_path=cache, transport=make_transport([])).fetch(["a", "b"], "doc")
    raw = cache.read_bytes()
    assert raw.startswith(CACHE_MAGIC)
    record = 32 + 4 + 8 * 4
    assert len(raw) == len(CACHE_MAGIC) + 2 * record
    first = raw[len(CACHE_MAGIC):len(CACHE_MAGIC) + record]
    assert int.from_bytes(first[32:36], "little") == 4
    assert np.frombuffer(first[36:], dtype="<f8").tolist() == unit_for("search_document: a")


@pytest.mark.parametrize("content", [b'{"abc|query|embed-small": [1.0, 0.0]}', b"RGRV1\x04\x00\x00\x00", b"rgrc1"])
def test_cache_without_magic_is_rejected_untouched(tmp_path, content):
    cache = tmp_path / "cache.json"
    cache.write_bytes(content)
    with pytest.raises(VectorFormatError, match="magic"):
        EmbeddingClient(client_config(), cache_path=cache, transport=make_transport([]))
    assert cache.read_bytes() == content


def check_cut_cache(path: Path, full: bytes, texts: list[str], cut: int, dim: int) -> None:
    """A cache cut at ``cut`` serves exactly its whole records, then heals on append."""
    record = 32 + 4 + 8 * dim
    whole = max(0, (cut - len(CACHE_MAGIC)) // record)
    path.write_bytes(full[:cut])
    log = []
    client = EmbeddingClient(client_config(batch_size=len(texts)), cache_path=path, transport=make_transport(log))
    client.fetch(texts, "doc")
    sent = [t for entry in log for t in entry["payload"]["input"]]
    assert sent == ["search_document: " + t for t in texts[whole:]]
    if whole < len(texts):
        assert path.read_bytes() == full
    else:
        assert path.read_bytes() == full[:cut]
    healed = EmbeddingClient(client_config(), cache_path=path, transport=make_transport([]))
    healed.fetch(texts, "doc")
    assert healed.calls == 0


def test_truncated_cache_every_offset(tmp_path):
    texts = ["one", "two", "three"]
    path = tmp_path / "cache.bin"
    EmbeddingClient(client_config(), cache_path=path, transport=make_transport([])).fetch(texts, "doc")
    full = path.read_bytes()
    for cut in range(len(full) + 1):
        check_cut_cache(path, full, texts, cut, dim=4)


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6, unique=True),
    cut_share=st.floats(0.0, 1.0),
)
def test_truncated_cache_fuzz(texts, cut_share):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.bin"
        EmbeddingClient(client_config(), cache_path=path, transport=make_transport([])).fetch(texts, "doc")
        full = path.read_bytes()
        check_cut_cache(path, full, texts, round(cut_share * len(full)), dim=4)