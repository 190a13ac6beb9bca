"""Two-hop QA dataset loading, validation, and addressing.

File layout (one JSON object per line):

    queries.jsonl   {"id", "question", "qtype", "bridge_id", "gold_id",
                     "pool_ids": [...], "hop2_title"}
    passages.jsonl  {"id", "title", "body"}
    hop1_ranks.jsonl (optional)  {"id", "rank"}

A dataset directory holds the first two files; hop-1 ranks are a separate
optional input used to restrict evaluation to hop-1-correct queries.
Ids, texts, ``qtype`` and pool ids are JSON strings and a rank a non-bool
integer, or the load raises a ``DatasetParseError`` naming file, line and
field. A missing ``title`` is ``""`` and a missing ``qtype`` is ``other``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .atomic import atomic_write

QTYPES = frozenset({"comparison", "bridge_comparison", "compositional", "inference", "other"})

QUERIES_FILE = "queries.jsonl"
PASSAGES_FILE = "passages.jsonl"


class DatasetParseError(ValueError):
    """Malformed dataset file; message carries file name and line number."""


class DanglingIdError(ValueError):
    """A query references a passage id absent from the corpus."""

    def __init__(self, missing: list[str]) -> None:
        self.missing = sorted(set(missing))
        super().__init__(f"unresolved passage ids: {', '.join(self.missing)}")


class MissingRankError(KeyError):
    """filter_hop1_correct was given a rank map missing some query ids."""

    def __init__(self, missing: list[str]) -> None:
        self.missing = sorted(set(missing))
        super().__init__(f"missing hop-1 ranks for query ids: {', '.join(self.missing)}")


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    body: str

    @property
    def doc_text(self) -> str:
        """Text embedded in doc mode: title prepended when present."""
        return f"{self.title}\n{self.body}" if self.title else self.body


@dataclass(frozen=True)
class Query:
    id: str
    question: str
    qtype: str
    bridge_id: str
    gold_id: str
    pool_ids: tuple[str, ...]
    hop2_title: str


@dataclass(frozen=True)
class Dataset:
    name: str
    queries: tuple[Query, ...]
    passages: dict[str, Passage] = field(compare=True)

    def passage(self, pid: str) -> Passage:
        return self.passages[pid]


def _read_jsonl(path: Path) -> list[tuple[int, dict]]:
    rows: list[tuple[int, dict]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(f"{path.name}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DatasetParseError(f"{path.name}:{lineno}: expected a JSON object")
            rows.append((lineno, obj))
    return rows


_KINDS = {str: "a string", int: "an integer", list: "a list"}


def _field(obj: dict, key: str, where: str, default: str | None = None, kind: type = str):
    """The value at ``key``, of JSON type ``kind`` (a bool is no integer), or ``default`` when absent."""
    if key not in obj and default is None:
        raise DatasetParseError(f"{where}: missing field {key!r}")
    value = obj.get(key, default)
    if type(value) is not kind:
        raise DatasetParseError(f"{where}: field {key!r} must be {_KINDS[kind]}, got {json.dumps(value)}")
    return value


def load_passages(path: Path | str) -> dict[str, Passage]:
    path = Path(path)
    passages: dict[str, Passage] = {}
    for lineno, obj in _read_jsonl(path):
        where = f"{path.name}:{lineno}"
        pid = _field(obj, "id", where)
        if not pid:
            raise DatasetParseError(f"{where}: empty passage id")
        if pid in passages:
            raise DatasetParseError(f"{where}: duplicate passage id {pid!r}")
        body = _field(obj, "body", where)
        if not body:
            raise DatasetParseError(f"{where}: empty body for passage {pid!r}")
        passages[pid] = Passage(id=pid, title=_field(obj, "title", where, ""), body=body)
    return passages


def load_queries(path: Path | str) -> tuple[Query, ...]:
    path = Path(path)
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, obj in _read_jsonl(path):
        where = f"{path.name}:{lineno}"
        qid = _field(obj, "id", where)
        if not qid:
            raise DatasetParseError(f"{where}: empty query id")
        if qid in seen:
            raise DatasetParseError(f"{where}: duplicate query id {qid!r}")
        seen.add(qid)
        qtype = _field(obj, "qtype", where, "other") or "other"
        if qtype not in QTYPES:
            raise DatasetParseError(f"{where}: unknown qtype {qtype!r}")
        pool = tuple(_field(obj, "pool_ids", where, kind=list))
        if set(map(type, pool)) - {str}:
            raise DatasetParseError(f"{where}: field 'pool_ids' must hold strings, got {json.dumps(pool)}")
        if len(set(pool)) != len(pool):
            raise DatasetParseError(f"{where}: duplicate pool ids in query {qid!r}")
        bridge_id = _field(obj, "bridge_id", where)
        gold_id = _field(obj, "gold_id", where)
        if bridge_id == gold_id:
            raise DatasetParseError(f"{where}: bridge_id equals gold_id ({gold_id!r})")
        queries.append(
            Query(
                id=qid,
                question=_field(obj, "question", where),
                qtype=qtype,
                bridge_id=bridge_id,
                gold_id=gold_id,
                pool_ids=pool,
                hop2_title=_field(obj, "hop2_title", where),
            )
        )
    return tuple(queries)


def validate_dataset(ds: Dataset) -> None:
    """Enforce referential integrity: every referenced id resolves."""
    missing: list[str] = []
    for q in ds.queries:
        for pid in (q.bridge_id, q.gold_id, *q.pool_ids):
            if pid not in ds.passages:
                missing.append(pid)
    if missing:
        raise DanglingIdError(missing)


def load_dataset(path: Path | str) -> Dataset:
    """Load a dataset directory containing queries.jsonl and passages.jsonl."""
    root = Path(path)
    qpath = root / QUERIES_FILE
    ppath = root / PASSAGES_FILE
    for p in (qpath, ppath):
        if not p.exists():
            raise DatasetParseError(f"missing dataset file: {p}")
    ds = Dataset(name=root.name, queries=load_queries(qpath), passages=load_passages(ppath))
    validate_dataset(ds)
    return ds


def save_dataset(ds: Dataset, path: Path | str) -> None:
    """Write queries.jsonl and passages.jsonl so load_dataset round-trips.

    Each file is written beside its target and renamed over it, so a
    failure leaves the previous file intact.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with atomic_write(root / QUERIES_FILE, encoding="utf-8") as fh:
        for q in ds.queries:
            fh.write(
                json.dumps(
                    {
                        "id": q.id,
                        "question": q.question,
                        "qtype": q.qtype,
                        "bridge_id": q.bridge_id,
                        "gold_id": q.gold_id,
                        "pool_ids": list(q.pool_ids),
                        "hop2_title": q.hop2_title,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    with atomic_write(root / PASSAGES_FILE, encoding="utf-8") as fh:
        for p in ds.passages.values():
            fh.write(
                json.dumps({"id": p.id, "title": p.title, "body": p.body}, ensure_ascii=False) + "\n"
            )


def load_hop1_ranks(path: Path | str) -> dict[str, int]:
    path = Path(path)
    ranks: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        where = f"{path.name}:{lineno}"
        qid = _field(obj, "id", where)
        rank = _field(obj, "rank", where, kind=int)
        if rank < 1:
            raise DatasetParseError(f"{where}: field 'rank' must be a positive integer, got {rank}")
        ranks[qid] = rank
    return ranks


def filter_hop1_correct(ds: Dataset, hop1_ranks: dict[str, int], k: int = 5) -> Dataset:
    """Retain queries whose bridge ranked in the hop-1 top k. Order preserved."""
    missing = [q.id for q in ds.queries if q.id not in hop1_ranks]
    if missing:
        raise MissingRankError(missing)
    kept = tuple(q for q in ds.queries if hop1_ranks[q.id] <= k)
    return replace(ds, queries=kept)
