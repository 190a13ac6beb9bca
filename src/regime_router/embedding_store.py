"""Vector storage and remote embedding retrieval.

Binary store format (RGRV2), all integers little-endian: the magic bytes
``RGRV2``; u32 dimension, u32 record count n and the u32 byte length of a
UTF-8 JSON encoder identity (``{"model_name", "query_prefix",
"doc_prefix"}``, or ``null`` when unknown), then that JSON; n mode bytes
(0 = query, 1 = doc); n u16 id lengths, then the UTF-8 ids; zero padding
to an 8-byte-aligned offset; and one n x dim f32 block, row i holding
record i's vector. Records are sorted by (id, mode). A load is thus one
header parse, one pass over the id table and one f32-to-f64 conversion of
the block. The legacy RGRV1 layout (u32 dimension, then per record a u16
id length, the id, the mode byte and dim x f32) still loads, with the
encoder unknown; only RGRV2 is written.

Every vector is L2-normalized at ingest, so inner products are cosine
similarities. Evaluation code never fetches implicitly: a run requires a
fully materialized store, and only the CLI's embed step builds an
``EmbeddingClient``.

In memory a store is one read-only n x dim float64 matrix, one row per
(id, mode) key, a dict from key to row, and the encoder identity it was
loaded or built with. Loading converts the f32 rows and normalizes all
rows at once. One kernel, ``score_rows``, scores: it takes an n x m
matrix of candidate rows and one or more query-side rows per query,
gathers the candidates in chunks of
about 2 MB and dots each chunk with every side, one BLAS dot per pair.
A whole protocol's pools are thus scored as one matrix per side,
gathered once; ``VectorStore.score`` is its one-row case. Norms and
scores use the per-vector dot that ``np.linalg.norm`` and ``np.dot``
use, so each is bit-identical to the per-vector computation (a
matrix-vector product or ``einsum`` would sum in another order). A file
that repeats an (id, mode) key is rejected.

Text ids are namespaced to keep questions, passages, and derived texts
(selected sentences, knockout variants) from colliding:

    q::<query-id>    question text        (query mode)
    p::<passage-id>  passage doc text     (doc mode; also query mode
                                           when a bridge body is embedded
                                           as a query-side text)
    t::<sha256-24>   any derived text     (query mode)

Embed cache format: an append-only record log. The file starts with the
magic bytes ``RGRC1``; each record is a 32-byte sha256 key, a u32
little-endian dimension, then the raw provider vector as dim x f64
little-endian. The key is the sha256 of the model name, the mode and the
exact string sent to the provider (mode prefix included), so changing any
of them is a cache miss. Raw values stay f64 so that a vector served from
the cache is bit-identical to the one the provider returned. Opening the
cache reads every whole record; a torn last record (a crash mid-append)
is dropped and cut off before the next append. A file without the magic
(for example a legacy JSON cache) is rejected and never overwritten.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write

logger = logging.getLogger(__name__)

MAGIC = b"RGRV2"
LEGACY_MAGIC = b"RGRV1"
_HEADER = struct.Struct("<III")  # dim, record count, identity length
CACHE_MAGIC = b"RGRC1"
_CACHE_HEADER = struct.Struct("<32sI")
MODE_QUERY = "query"
MODE_DOC = "doc"
_MODE_TO_BYTE = {MODE_QUERY: 0, MODE_DOC: 1}
_BYTE_TO_MODE = {v: k for k, v in _MODE_TO_BYTE.items()}


class VectorFormatError(ValueError):
    """Store file violates the binary layout."""


class EncoderIdentity(NamedTuple):
    """The provider model and mode prefixes a store's vectors were embedded with."""

    model_name: str
    query_prefix: str
    doc_prefix: str

    def describe(self) -> str:
        return json.dumps(self._asdict())


class DimensionMismatchError(ValueError):
    pass


class NonFiniteVectorError(ValueError):
    pass


class MissingEmbeddingError(KeyError):
    def __init__(self, text_id: str, mode: str) -> None:
        self.text_id = text_id
        self.mode = mode
        super().__init__(f"no vector for id {text_id!r} in mode {mode!r}")


class TransportError(RuntimeError):
    """Network failure that persisted through all retries."""


class ProviderError(RuntimeError):
    """Non-success response from the embedding provider; payload verbatim."""


def question_key(query_id: str) -> str:
    return f"q::{query_id}"


def passage_key(passage_id: str) -> str:
    return f"p::{passage_id}"


def text_key(text: str) -> str:
    return "t::" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def _normalize(values, dim: int | None = None) -> np.ndarray:
    vec = np.asarray(values, dtype=float).reshape(-1)
    if dim is not None and vec.size != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {vec.size}")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteVectorError("vector contains non-finite values")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NonFiniteVectorError("cannot normalize a zero vector")
    return vec / norm


def _as_row(key: tuple[str, str], values, dim: int) -> np.ndarray:
    """One entry as a flat f64 vector of length ``dim``, with a known mode."""
    if key[1] not in _MODE_TO_BYTE:
        raise VectorFormatError(f"unknown mode {key[1]!r}")
    vec = np.asarray(values, dtype=float).reshape(-1)
    if vec.size != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {vec.size} for id {key[0]!r}")
    return vec


def _normalize_rows(matrix: np.ndarray, rows: dict[tuple[str, str], int]) -> None:
    """Divide every row of ``matrix`` by its L2 norm, in place.

    Each squared norm is the BLAS dot of the row with itself, the sum
    ``np.linalg.norm`` takes, so every row ends bit-identical to
    ``vec / np.linalg.norm(vec)``. A non-finite entry makes its row's sum nan
    or inf, so only such rows (and zero rows) are inspected one by one; no
    n x dim temporary is made. ``rows`` lists the keys in row order.
    """
    sq = np.matmul(matrix[:, None, :], matrix[:, :, None])[:, 0, 0]
    for row in np.flatnonzero(~(sq > 0.0) | np.isinf(sq)):
        if not np.all(np.isfinite(matrix[row])):
            raise NonFiniteVectorError(f"vector {list(rows)[row]!r} contains non-finite values")
        if sq[row] == 0.0:
            raise NonFiniteVectorError(f"cannot normalize the zero vector {list(rows)[row]!r}")
    matrix /= np.sqrt(sq)[:, None]


class VectorStore:
    """Immutable map from (text-id, mode) to a unit-norm vector.

    The vectors are the rows of one read-only f64 matrix; a dict maps each
    (text-id, mode) key to its row. ``identity`` names the encoder, or is
    None when it is unknown.
    """

    def __init__(self, dim: int, entries: dict[tuple[str, str], np.ndarray] | None = None,
                 identity: EncoderIdentity | None = None) -> None:
        if dim < 1:
            raise DimensionMismatchError("dim must be positive")
        dim = int(dim)
        entries = entries or {}
        matrix = np.empty((len(entries), dim))
        for row, (key, values) in enumerate(entries.items()):
            matrix[row] = _as_row(key, values, dim)
        self._adopt(matrix, {key: row for row, key in enumerate(entries)}, identity)

    @classmethod
    def _from_matrix(cls, matrix: np.ndarray, rows: dict[tuple[str, str], int],
                     identity: EncoderIdentity | None) -> VectorStore:
        store = cls.__new__(cls)
        store._adopt(matrix, rows, identity)
        return store

    def _adopt(self, matrix: np.ndarray, rows: dict[tuple[str, str], int], identity: EncoderIdentity | None) -> None:
        """Take ownership of raw rows: normalize them in place and freeze them."""
        _normalize_rows(matrix, rows)
        matrix.setflags(write=False)
        self.dim = matrix.shape[1]
        self._matrix = matrix
        self._rows = rows
        self.identity = identity

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._rows

    def keys(self):
        return self._rows.keys()

    def get(self, text_id: str, mode: str) -> np.ndarray:
        try:
            return self._matrix[self._rows[(text_id, mode)]]
        except KeyError:
            raise MissingEmbeddingError(text_id, mode) from None

    def rows(self, text_ids, mode: str) -> np.ndarray:
        """The matrix row of each (text-id, mode) key, in order."""
        try:
            return np.array([self._rows[(text_id, mode)] for text_id in text_ids], dtype=np.intp)
        except KeyError as exc:
            raise MissingEmbeddingError(exc.args[0][0], mode) from None

    def score(self, text_id: str, mode: str, candidate_ids) -> np.ndarray:
        """Inner products of one query-side vector against doc-mode candidates."""
        side = self.rows([text_id], mode)
        return score_rows(self, side[None, :], self.rows(candidate_ids, MODE_DOC)[None, :])[0, 0]

    def merged(self, other_entries: dict[tuple[str, str], np.ndarray]) -> VectorStore:
        """A new store with ``other_entries`` added; an entry replaces the vector of its key.

        Every row of the result, old ones included, is normalized again. The
        result names this store's encoder.
        """
        rows = dict(self._rows)
        for key in other_entries:
            rows.setdefault(key, len(rows))
        matrix = np.empty((len(rows), self.dim))
        matrix[: len(self._rows)] = self._matrix
        for key, values in other_entries.items():
            matrix[rows[key]] = _as_row(key, values, self.dim)
        return VectorStore._from_matrix(matrix, rows, self.identity)


_SCORE_CHUNK_BYTES = 2 << 20
_SAVE_CHUNK_BYTES = 1 << 18


def score_rows(store: VectorStore, side_rows, candidate_rows) -> np.ndarray:
    """Score matrices: entry (k, i, j) is row ``side_rows[k, i]`` dotted with row ``candidate_rows[i, j]``.

    Rows index ``store``'s matrix (see ``VectorStore.rows``); side k gives
    query i its k-th query-side vector. The candidate rows are gathered a
    chunk of queries at a time, each chunk at most about 2 MB, and scored
    against every side before the next chunk. Every pair is one BLAS dot,
    so each score is bit-identical to ``np.dot`` of the two vectors.
    """
    side_rows = np.asarray(side_rows, dtype=np.intp)
    candidate_rows = np.asarray(candidate_rows, dtype=np.intp)
    n, m = candidate_rows.shape
    matrix = store._matrix
    step = max(1, _SCORE_CHUNK_BYTES // max(1, m * store.dim * matrix.itemsize))
    out = np.empty((len(side_rows), n, m))
    for lo in range(0, n, step):
        gathered = matrix[candidate_rows[lo : lo + step]][:, :, None, :]
        for k, sides in enumerate(side_rows[:, lo : lo + step]):
            out[k, lo : lo + step] = np.matmul(gathered, matrix[sides][:, None, :, None])[:, :, 0, 0]
    return out


def save_vectors(store: VectorStore, path: Path | str) -> None:
    """Write the RGRV2 layout; records sorted by (id, mode) for determinism.

    The header and id table go out in one write, then the f32 block, cast
    from the sorted rows 256 KB of f64 at a time, so saving adds little to
    a process's peak memory. The file is written beside ``path`` and
    renamed over it, so a failure mid-write leaves any previous store
    intact.
    """
    keys = sorted(store.keys())
    ids = [text_id.encode("utf-8") for text_id, _ in keys]
    longest = max(map(len, ids), default=0)
    if longest > 0xFFFF:
        raise VectorFormatError(f"id too long ({longest} bytes)")
    identity = b"null" if store.identity is None else store.identity.describe().encode("utf-8")
    head = b"".join([
        MAGIC,
        _HEADER.pack(store.dim, len(keys), len(identity)),
        identity,
        bytes(_MODE_TO_BYTE[mode] for _, mode in keys),
        np.array([len(b) for b in ids], dtype="<u2").tobytes(),
        *ids,
    ])
    order = np.fromiter(map(store._rows.__getitem__, keys), dtype=np.intp, count=len(keys))
    step = max(1, _SAVE_CHUNK_BYTES // (8 * store.dim))
    with atomic_write(path, "wb") as fh:
        fh.write(head + bytes(-len(head) % 8))
        for lo in range(0, len(order), step):
            fh.write(store._matrix[order[lo : lo + step]].astype("<f4"))


def load_vectors(path: Path | str) -> VectorStore:
    """Read either layout into one f64 matrix, renormalizing every row.

    The file bytes are released before normalization. A bad magic, a
    truncated file or trailing bytes, a bad mode byte, an id that is not
    UTF-8 or a duplicate (id, mode) raises ``VectorFormatError``; a
    non-finite or zero vector raises ``NonFiniteVectorError``.
    """
    data = Path(path).read_bytes()
    parse = {MAGIC: _parse, LEGACY_MAGIC: _parse_legacy}.get(data[: len(MAGIC)])
    if parse is None:
        raise VectorFormatError("bad magic bytes")
    matrix, rows, identity = parse(data)
    del data
    return VectorStore._from_matrix(matrix, rows, identity)


def _parse_identity(raw: bytes) -> EncoderIdentity | None:
    try:
        value = json.loads(raw.decode("utf-8"))
        if value is None:
            return None
        identity = EncoderIdentity(**value)
        if all(isinstance(field, str) for field in identity):
            return identity
    except (ValueError, TypeError):
        pass
    raise VectorFormatError(f"bad encoder identity {raw[:200]!r}")


def _parse(data: bytes) -> tuple[np.ndarray, dict[tuple[str, str], int], EncoderIdentity | None]:
    """The f64 rows, key-to-row dict and encoder identity of RGRV2 bytes."""
    off = len(MAGIC) + _HEADER.size
    if len(data) < off:
        raise VectorFormatError("truncated header")
    dim, n, identity_len = _HEADER.unpack_from(data, len(MAGIC))
    if dim < 1:
        raise VectorFormatError("non-positive dimension")
    ids_at = off + identity_len + 3 * n
    if len(data) < ids_at:
        raise VectorFormatError("truncated id table")
    identity = _parse_identity(data[off : off + identity_len])
    off += identity_len
    modes = data[off : off + n]
    if modes.translate(None, bytes(_BYTE_TO_MODE)):
        row = next(i for i, byte in enumerate(modes) if byte not in _BYTE_TO_MODE)
        raise VectorFormatError(f"unknown mode byte {modes[row]} in record {row}")
    bounds = [0, *np.cumsum(np.frombuffer(data, dtype="<u2", count=n, offset=off + n)).tolist()]
    ids_end = ids_at + bounds[-1]
    block_at = ids_end + (-ids_end % 8)
    size = block_at + 4 * n * dim
    if len(data) != size:
        raise VectorFormatError(
            f"truncated store: {len(data)} bytes of {size}" if len(data) < size
            else f"{len(data) - size} trailing bytes after the vector block"
        )
    if data[ids_end:block_at].strip(b"\x00"):
        raise VectorFormatError("non-zero padding before the vector block")
    blob = data[ids_at:ids_end]
    ids = []
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        try:
            ids.append(blob[lo:hi].decode("utf-8"))
        except UnicodeDecodeError:
            raise VectorFormatError(f"id of record {row} is not valid UTF-8") from None
    keys = list(zip(ids, map(_BYTE_TO_MODE.__getitem__, modes)))
    rows = dict(zip(keys, range(n)))
    if len(rows) != n:
        seen: set[tuple[str, str]] = set()
        text_id, mode = next(key for key in keys if key in seen or seen.add(key))
        raise VectorFormatError(f"duplicate record for id {text_id!r} in mode {mode!r}")
    matrix = np.frombuffer(data, dtype="<f4", count=n * dim, offset=block_at).reshape(n, dim).astype(float)
    return matrix, rows, identity


def _parse_legacy(data: bytes) -> tuple[np.ndarray, dict[tuple[str, str], int], None]:
    """The f64 rows and key-to-row dict of RGRV1 bytes, one record at a time; no encoder is named."""
    off = len(LEGACY_MAGIC)
    if len(data) < off + 4:
        raise VectorFormatError("truncated header")
    (dim,) = struct.unpack_from("<I", data, off)
    off += 4
    if dim < 1:
        raise VectorFormatError("non-positive dimension")
    rows: dict[tuple[str, str], int] = {}
    starts: list[int] = []
    vec_bytes = 4 * dim
    while off < len(data):
        if off + 2 > len(data):
            raise VectorFormatError(f"truncated record header at offset {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + id_len + 1 + vec_bytes > len(data):
            raise VectorFormatError(f"truncated record at offset {off}")
        try:
            text_id = data[off : off + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise VectorFormatError(f"id at offset {off} is not valid UTF-8") from None
        off += id_len
        mode = _BYTE_TO_MODE.get(data[off])
        if mode is None:
            raise VectorFormatError(f"unknown mode byte {data[off]} at offset {off}")
        off += 1
        if (text_id, mode) in rows:
            raise VectorFormatError(f"duplicate record for id {text_id!r} in mode {mode!r} at offset {off}")
        rows[(text_id, mode)] = len(starts)
        starts.append(off)
        off += vec_bytes
    matrix = np.empty((len(starts), dim))
    for row, start in enumerate(starts):
        matrix[row] = np.frombuffer(data, dtype="<f4", count=dim, offset=start)
    return matrix, rows, None


@dataclass(frozen=True)
class EmbedProviderConfig:
    endpoint: str
    model_name: str
    mode_instructions: dict[str, str] = field(default_factory=dict)
    auth_env_var: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    batch_size: int = 64
    parallelism: int = 4
    retry_base_delay: float = 0.5


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float):
    import requests

    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code != 200:
        raise ProviderError(resp.text)
    return resp.json()


def _read_cache(path: Path) -> tuple[dict[bytes, np.ndarray], int]:
    """Every whole record of an embed cache, and the offset where they end.

    A torn last record is left out; so is a torn magic, whose file holds no
    record yet (offset 0). A file that does not start with the magic raises.
    """
    data = path.read_bytes()
    if not data.startswith(CACHE_MAGIC):
        if CACHE_MAGIC.startswith(data):
            return {}, 0
        raise VectorFormatError(
            f"{path} is not an embed cache (no {CACHE_MAGIC.decode()} magic; legacy JSON caches are not read)"
        )
    entries: dict[bytes, np.ndarray] = {}
    off = len(CACHE_MAGIC)
    while off + _CACHE_HEADER.size <= len(data):
        key, dim = _CACHE_HEADER.unpack_from(data, off)
        end = off + _CACHE_HEADER.size + 8 * dim
        if end > len(data):
            break
        # Copied out of the buffer: records sit at unaligned offsets.
        entries[key] = np.frombuffer(data, dtype="<f8", count=dim, offset=off + _CACHE_HEADER.size).copy()
        off = end
    return entries, off


class EmbeddingClient:
    """Batched, cached, retrying client for the provider HTTP contract.

    POST JSON {"model", "input": [...], "mode"} -> {"vectors": [[...], ...]}.
    The cache maps sha256(model, mode, exact string sent) to the raw
    vector, so repeat fetches make no network calls and a string repeated
    within one fetch is sent once. Every batch is appended to the cache
    file as soon as it and the batches before it have completed.
    ``calls`` counts HTTP requests.
    """

    def __init__(self, cfg: EmbedProviderConfig, cache_path: Path | str | None = None, transport=None) -> None:
        self.cfg = cfg
        self.cache_path = Path(cache_path) if cache_path else None
        self._transport = transport or _requests_transport
        self._lock = threading.Lock()
        self.calls = 0
        self._cache: dict[bytes, np.ndarray] = {}
        # Length of the file's whole records, until the first append cuts it there.
        self._cache_end: int | None = None
        if self.cache_path and self.cache_path.exists():
            self._cache, self._cache_end = _read_cache(self.cache_path)

    def _cache_key(self, sent: str, mode: str) -> bytes:
        return hashlib.sha256(json.dumps([self.cfg.model_name, mode, sent]).encode("utf-8")).digest()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.cfg.auth_env_var:
            token = os.environ.get(self.cfg.auth_env_var, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post_batch(self, inputs: list[str], mode: str) -> list[np.ndarray]:
        payload = {"model": self.cfg.model_name, "input": inputs, "mode": mode}
        last_exc: Exception | None = None
        for attempt in range(self.cfg.max_retries + 1):
            try:
                with self._lock:
                    self.calls += 1
                body = self._transport(self.cfg.endpoint, payload, self._headers(), self.cfg.timeout)
                break
            except TransportError as exc:
                last_exc = exc
                if attempt == self.cfg.max_retries:
                    raise
                time.sleep(self.cfg.retry_base_delay * (2**attempt))
        else:  # pragma: no cover - loop always breaks or raises
            raise TransportError(str(last_exc))
        batch = f"the {mode} batch of {len(inputs)} inputs starting {inputs[0][:40]!r}"
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if not isinstance(vectors, list):
            raise ProviderError(f"provider body for {batch} is not a JSON object with a 'vectors' list")
        if len(vectors) != len(inputs):
            raise ProviderError(f"provider returned {len(vectors)} vectors for {batch}")
        try:
            return [np.asarray(raw, dtype=float).reshape(-1) for raw in vectors]
        except (TypeError, ValueError):
            raise ProviderError(f"provider returned a vector that is not a list of numbers for {batch}") from None

    def _remember(self, records: list[tuple[bytes, np.ndarray]]) -> None:
        """Cache raw vectors in memory and append the new ones to the file (lock held)."""
        fresh = []
        for key, raw in records:
            if key not in self._cache:
                self._cache[key] = raw
                fresh.append(_CACHE_HEADER.pack(key, raw.size) + raw.astype("<f8").tobytes())
        if not self.cache_path or not fresh:
            return
        try:
            if self._cache_end is not None:
                os.truncate(self.cache_path, self._cache_end)
                self._cache_end = None
            with open(self.cache_path, "ab") as fh:
                if fh.tell() == 0:
                    fh.write(CACHE_MAGIC)
                fh.write(b"".join(fresh))
        except OSError as exc:
            logger.warning("embedding cache write failed: %s", exc)

    def fetch(self, texts: list[str], mode: str, expected_dim: int | None = None) -> list[np.ndarray]:
        """One normalized vector per text, order-aligned with the input."""
        if mode not in _MODE_TO_BYTE:
            raise ValueError(f"unknown mode {mode!r}")
        prefix = self.cfg.mode_instructions.get(mode, "")
        sent = [prefix + t for t in texts]
        keys = [self._cache_key(s, mode) for s in sent]
        results: list[np.ndarray | None] = [None] * len(texts)
        # Each distinct missing key is sent once, in order of first occurrence,
        # and fills every index that asked for it.
        missing: dict[bytes, list[int]] = {}
        for i, key in enumerate(keys):
            cached = self._cache.get(key)
            if cached is not None:
                results[i] = _normalize(cached, expected_dim)
            else:
                missing.setdefault(key, []).append(i)

        todo = list(missing.values())
        batches = [todo[lo : lo + self.cfg.batch_size] for lo in range(0, len(todo), self.cfg.batch_size)]
        # Completed batches wait here until every earlier batch has been
        # cached, so the file's bytes do not depend on parallelism.
        done: dict[int, list[tuple[bytes, np.ndarray]]] = {}
        next_batch = 0

        def run(b: int) -> None:
            nonlocal next_batch
            batch = batches[b]
            raws = self._post_batch([sent[idxs[0]] for idxs in batch], mode)
            dim = expected_dim if expected_dim is not None else raws[0].size
            vecs = [_normalize(raw, dim) for raw in raws]
            with self._lock:
                for idxs, vec in zip(batch, vecs):
                    results[idxs[0]] = vec
                    for i in idxs[1:]:
                        results[i] = vec.copy()
                done[b] = [(keys[idxs[0]], raw) for idxs, raw in zip(batch, raws)]
                while next_batch in done:
                    self._remember(done.pop(next_batch))
                    next_batch += 1

        try:
            if self.cfg.parallelism > 1 and len(batches) > 1:
                with ThreadPoolExecutor(max_workers=self.cfg.parallelism) as pool:
                    list(pool.map(run, range(len(batches))))
            else:
                for b in range(len(batches)):
                    run(b)
        finally:
            # After a failed batch, keep every batch that did complete.
            with self._lock:
                for b in sorted(done):
                    self._remember(done[b])

        filled = [r for r in results if r is not None]
        if len(filled) != len(texts):
            raise ProviderError("provider response left some inputs without vectors")
        dims = {r.size for r in filled}
        if len(dims) > 1:
            raise DimensionMismatchError(f"provider returned mixed dimensions {sorted(dims)}")
        return filled

