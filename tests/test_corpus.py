import json
import re

import pytest

from regime_router.corpus import (
    DanglingIdError,
    Dataset,
    DatasetParseError,
    MissingRankError,
    filter_hop1_correct,
    load_dataset,
    load_hop1_ranks,
    save_dataset,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def valid_rows():
    passages = [
        {"id": "p1", "title": "Alpha", "body": "Alpha body text."},
        {"id": "p2", "title": "Beta", "body": "Beta body text."},
        {"id": "p3", "title": "Gamma", "body": "Gamma body text."},
    ]
    queries = [
        {
            "id": "q1",
            "question": "Which came first?",
            "qtype": "comparison",
            "bridge_id": "p2",
            "gold_id": "p1",
            "pool_ids": ["p1", "p3"],
            "hop2_title": "Alpha",
        }
    ]
    return queries, passages


def write_dataset(tmp_path, queries, passages):
    tmp_path.mkdir(parents=True, exist_ok=True)
    write_jsonl(tmp_path / "queries.jsonl", queries)
    write_jsonl(tmp_path / "passages.jsonl", passages)
    return tmp_path


def test_load_valid_dataset(tmp_path):
    queries, passages = valid_rows()
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    assert len(ds.queries) == 1
    assert len(ds.passages) == 3
    assert ds.queries[0].pool_ids == ("p1", "p3")
    assert ds.passage("p1").doc_text == "Alpha\nAlpha body text."


def test_doc_text_without_title(tmp_path):
    queries, passages = valid_rows()
    passages[0]["title"] = ""
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    assert ds.passage("p1").doc_text == "Alpha body text."


def test_missing_qtype_defaults_to_other(tmp_path):
    queries, passages = valid_rows()
    del queries[0]["qtype"]
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    assert ds.queries[0].qtype == "other"


def test_unknown_qtype_rejected(tmp_path):
    queries, passages = valid_rows()
    queries[0]["qtype"] = "trivia"
    with pytest.raises(DatasetParseError, match="qtype"):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_duplicate_query_id_rejected(tmp_path):
    queries, passages = valid_rows()
    queries.append(dict(queries[0]))
    with pytest.raises(DatasetParseError, match="duplicate query id"):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_duplicate_pool_ids_rejected(tmp_path):
    queries, passages = valid_rows()
    queries[0]["pool_ids"] = ["p1", "p1"]
    with pytest.raises(DatasetParseError, match="duplicate pool ids"):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_empty_body_rejected(tmp_path):
    queries, passages = valid_rows()
    passages[1]["body"] = ""
    with pytest.raises(DatasetParseError, match="empty body"):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_bridge_equals_gold_rejected(tmp_path):
    queries, passages = valid_rows()
    queries[0]["bridge_id"] = "p1"
    with pytest.raises(DatasetParseError, match="bridge_id equals gold_id"):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_malformed_line_reports_position(tmp_path):
    queries, passages = valid_rows()
    write_dataset(tmp_path, queries, passages)
    with open(tmp_path / "passages.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(DatasetParseError, match="passages.jsonl:4"):
        load_dataset(tmp_path)


def test_dangling_pool_id(tmp_path):
    queries, passages = valid_rows()
    queries[0]["pool_ids"] = ["p1", "ghost"]
    with pytest.raises(DanglingIdError) as err:
        load_dataset(write_dataset(tmp_path, queries, passages))
    assert err.value.missing == ["ghost"]


def test_dangling_bridge_id(tmp_path):
    queries, passages = valid_rows()
    queries[0]["bridge_id"] = "ghost"
    with pytest.raises(DanglingIdError):
        load_dataset(write_dataset(tmp_path, queries, passages))


def test_round_trip(tmp_path):
    queries, passages = valid_rows()
    ds = load_dataset(write_dataset(tmp_path / "a", queries, passages))
    save_dataset(ds, tmp_path / "b")
    again = load_dataset(tmp_path / "b")
    assert again.queries == ds.queries
    assert again.passages == ds.passages


def test_save_failed_rename_keeps_old_files(tmp_path, monkeypatch):
    queries, passages = valid_rows()
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    before = (tmp_path / "queries.jsonl").read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    # The new queries.jsonl is written in full, then the rename fails.
    monkeypatch.setattr("regime_router.atomic.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(Dataset(ds.name, ds.queries[:1], ds.passages), tmp_path)
    assert (tmp_path / "queries.jsonl").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["passages.jsonl", "queries.jsonl"]


def test_hop1_filter_keeps_order(tmp_path):
    queries, passages = valid_rows()
    q2 = dict(queries[0])
    q2["id"] = "q2"
    q3 = dict(queries[0])
    q3["id"] = "q3"
    ds = load_dataset(write_dataset(tmp_path, [queries[0], q2, q3], passages))
    ranks = {"q1": 2, "q2": 9, "q3": 1}
    kept = filter_hop1_correct(ds, ranks, k=5)
    assert [q.id for q in kept.queries] == ["q1", "q3"]
    assert kept.passages is ds.passages


def test_hop1_filter_missing_rank(tmp_path):
    queries, passages = valid_rows()
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    with pytest.raises(MissingRankError):
        filter_hop1_correct(ds, {}, k=5)


def test_load_hop1_ranks(tmp_path):
    path = tmp_path / "ranks.jsonl"
    write_jsonl(path, [{"id": "q1", "rank": 3}, {"id": "q2", "rank": 1}])
    assert load_hop1_ranks(path) == {"q1": 3, "q2": 1}


def test_load_hop1_ranks_rejects_bad_rank(tmp_path):
    path = tmp_path / "ranks.jsonl"
    write_jsonl(path, [{"id": "q1", "rank": 0}])
    with pytest.raises(DatasetParseError, match="positive integer"):
        load_hop1_ranks(path)


# Each row: the file, the 0-based row whose field is set, the field, its JSON value.
_BAD_FIELDS = [
    ("queries.jsonl", 0, "id", None),
    ("queries.jsonl", 0, "id", 7),
    ("queries.jsonl", 0, "question", None),
    ("queries.jsonl", 0, "question", ["Which came first?"]),
    ("queries.jsonl", 0, "qtype", None),
    ("queries.jsonl", 0, "qtype", 3),
    ("queries.jsonl", 0, "bridge_id", 2),
    ("queries.jsonl", 0, "gold_id", True),
    ("queries.jsonl", 0, "pool_ids", "p1"),
    ("queries.jsonl", 0, "pool_ids", None),
    ("queries.jsonl", 0, "pool_ids", ["p1", 7]),
    ("queries.jsonl", 0, "pool_ids", ["p1", None]),
    ("queries.jsonl", 0, "hop2_title", None),
    ("passages.jsonl", 1, "id", 2),
    ("passages.jsonl", 1, "title", None),
    ("passages.jsonl", 1, "title", 1.5),
    ("passages.jsonl", 1, "body", None),
    ("hop1_ranks.jsonl", 1, "id", None),
    ("hop1_ranks.jsonl", 1, "rank", True),
    ("hop1_ranks.jsonl", 1, "rank", 1.0),
    ("hop1_ranks.jsonl", 1, "rank", "1"),
    ("hop1_ranks.jsonl", 1, "rank", None),
]


@pytest.mark.parametrize("name, row, field, value", _BAD_FIELDS)
def test_fields_of_the_wrong_json_type_are_rejected(tmp_path, capsys, name, row, field, value):
    from regime_router.cli import EXIT_USAGE, main

    queries, passages = valid_rows()
    ranks = [{"id": "q0", "rank": 2}, {"id": "q1", "rank": 1}]
    rows = {"queries.jsonl": queries, "passages.jsonl": passages, "hop1_ranks.jsonl": ranks}[name]
    rows[row][field] = value
    root = write_dataset(tmp_path / "data", queries, passages)
    write_jsonl(tmp_path / "hop1_ranks.jsonl", ranks)
    where = f"{name}:{row + 1}: field '{field}'"
    with pytest.raises(DatasetParseError, match=re.escape(where)):
        if name == "hop1_ranks.jsonl":
            load_hop1_ranks(tmp_path / "hop1_ranks.jsonl")
        else:
            load_dataset(root)
    # Through the CLI: one parse-error line and the usage exit code.
    argv = ["ingest", "--dataset", str(root), "--hop1-ranks", str(tmp_path / "hop1_ranks.jsonl")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and where in err and err.count("\n") == 1


def test_a_missing_title_is_empty(tmp_path):
    queries, passages = valid_rows()
    del passages[0]["title"]
    ds = load_dataset(write_dataset(tmp_path, queries, passages))
    assert ds.passage("p1").title == ""
    assert ds.passage("p1").doc_text == "Alpha body text."
