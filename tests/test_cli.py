import csv
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rgrv1_bytes

from regime_router import cli
from regime_router.cli import (
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    UsageError,
    build_parser,
    enumerate_embedding_ids,
    main,
    merge_config,
)
from regime_router.corpus import save_dataset
from regime_router.embedding_store import EncoderIdentity, VectorStore, load_vectors, save_vectors
from regime_router.linear_model import save_model
from regime_router.router_retrieval import clip_alpha
from regime_router.selector import train_selector
from regime_router.stats import CalibrationFit
from regime_router.text_analysis import ROUTER_FEATURE_NAMES


def parse(argv):
    return build_parser().parse_args(argv)


def write_annotations(path, ds, annotations):
    with open(path, "w", encoding="utf-8") as fh:
        for q, ann in zip(ds.queries, annotations):
            fh.write(
                json.dumps(
                    {
                        "bridge_id": q.bridge_id,
                        "question_id": q.id,
                        "gold_sentence_index": ann.gold_sentence_index,
                    }
                )
                + "\n"
            )


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory, routing_world):
    ds, store, annotations = routing_world
    root = tmp_path_factory.mktemp("cli_world")
    save_dataset(ds, root / "data")
    save_vectors(store, root / "store.bin")
    write_annotations(root / "annotations.jsonl", ds, annotations)
    return root


@pytest.fixture(scope="module")
def trained_dir(world_dir):
    models = world_dir / "models"
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--annotations", str(world_dir / "annotations.jsonl"),
            "--out-dir", str(models),
        ]
    )
    assert code == EXIT_OK
    return models


# ---------------------------------------------------------------------------
# config precedence


def test_merge_config_defaults():
    cfg = merge_config(parse(["ingest", "--dataset", "x"]))
    assert cfg.tau == 0.5
    assert cfg.alpha == 0.25
    assert cfg.alpha_mode == "frozen"
    assert cfg.k == 5


def test_merge_config_file_overrides_default(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"tau": 0.7, "alpha": 0.3}), encoding="utf-8")
    cfg = merge_config(parse(["ingest", "--dataset", "x", "--config", str(cfile)]))
    assert cfg.tau == 0.7
    assert cfg.alpha == 0.3
    assert cfg.k == 5  # untouched default


def test_merge_config_keeps_an_int_for_a_float_field(tmp_path):
    # Not coerced: the effective config and the experiment file-name hash see the file's value.
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"timeout": 10}), encoding="utf-8")
    cfg = merge_config(parse(["ingest", "--dataset", "x", "--config", str(cfile)]))
    assert type(cfg.timeout) is int and cfg.timeout == 10


def test_merge_config_flag_overrides_file(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"tau": 0.7}), encoding="utf-8")
    cfg = merge_config(
        parse(["ingest", "--dataset", "x", "--config", str(cfile), "--tau", "0.9"])
    )
    assert cfg.tau == 0.9


def test_merge_config_unknown_key(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"tua": 0.7}), encoding="utf-8")
    with pytest.raises(UsageError, match="unknown keys"):
        merge_config(parse(["ingest", "--dataset", "x", "--config", str(cfile)]))


def test_merge_config_invalid_json(tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text("{", encoding="utf-8")
    with pytest.raises(UsageError):
        merge_config(parse(["ingest", "--dataset", "x", "--config", str(cfile)]))


def test_merge_config_validates_ranges():
    with pytest.raises(UsageError, match="tau"):
        merge_config(parse(["ingest", "--dataset", "x", "--tau", "1.5"]))


@pytest.mark.parametrize(
    "source, key, value",
    [
        ("file", "k", "5"),
        ("file", "k", True),
        ("file", "k", 5.0),
        ("file", "tau", None),
        ("file", "tau", "0.5"),
        ("file", "alpha", False),
        ("file", "l2_penalty", "1"),
        ("flag", "tau", "nan"),
        ("flag", "alpha", "inf"),
        ("file", "timeout", float("-inf")),  # JSON's -Infinity
        ("flag", "cv_folds", "0"),
        ("flag", "cv_folds", "1"),
        ("file", "cv_folds", -3),
        ("flag", "l2_penalty", "nan"),
        ("flag", "l2_penalty", "-1"),
        ("file", "l2_penalty", -0.5),
        ("flag", "parallelism", "-3"),
        ("flag", "parallelism", "0"),
        ("file", "batch_size", 0),
        ("file", "batch_size", -1),
        ("file", "max_retries", -1),
        ("file", "timeout", 0),
        ("file", "retry_base_delay", -0.5),
    ],
)
def test_bad_config_value_exits_two(world_dir, tmp_path, capsys, source, key, value):
    if source == "file":
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({key: value}), encoding="utf-8")
        extra = ["--config", str(cfile)]
    else:
        extra = [f"--{key.replace('_', '-')}", value]
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--annotations", str(world_dir / "annotations.jsonl"),
            "--out-dir", str(tmp_path / "models"),
            *extra,
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} ")
    assert not (tmp_path / "models").exists()


def test_label_mode_key_exits_two(world_dir, tmp_path, capsys):
    # There is one label rule, so label_mode is no config key.
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"label_mode": 1}), encoding="utf-8")
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--annotations", str(world_dir / "annotations.jsonl"),
            "--out-dir", str(tmp_path / "models"),
            "--config", str(cfile),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("unknown keys ['label_mode']")
    assert not (tmp_path / "models").exists()


def test_ingest_checks_config_without_hop1_ranks(world_dir, tmp_path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({"tau": None}), encoding="utf-8")
    assert main(["ingest", "--dataset", str(world_dir / "data"), "--config", str(cfile)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: tau ")


def test_invalid_tau_exit_code(world_dir):
    code = main(["ingest", "--dataset", str(world_dir / "data"), "--tau", "1.5",
                 "--hop1-ranks", "unused"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# ingest


def test_ingest_summary(world_dir, capsys):
    code = main(["ingest", "--dataset", str(world_dir / "data")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "queries: 50" in out
    assert "passages: 400" in out
    assert "comparison: 25" in out
    assert "compositional: 25" in out


def test_ingest_hop1_filter(world_dir, routing_world, capsys):
    ds, _, _ = routing_world
    ranks_path = world_dir / "hop1.jsonl"
    with open(ranks_path, "w", encoding="utf-8") as fh:
        for i, q in enumerate(ds.queries):
            fh.write(json.dumps({"id": q.id, "rank": 1 if i % 2 == 0 else 9}) + "\n")
    code = main(
        ["ingest", "--dataset", str(world_dir / "data"), "--hop1-ranks", str(ranks_path)]
    )
    assert code == EXIT_OK
    assert "hop1-correct at k=5: 25" in capsys.readouterr().out


def test_ingest_missing_rank_is_integrity_error(world_dir, tmp_path):
    ranks_path = tmp_path / "partial.jsonl"
    ranks_path.write_text('{"id": "q000", "rank": 1}\n', encoding="utf-8")
    code = main(
        ["ingest", "--dataset", str(world_dir / "data"), "--hop1-ranks", str(ranks_path)]
    )
    assert code == EXIT_INTEGRITY


def test_ingest_dangling_id_exit_code(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "queries.jsonl").write_text(
        json.dumps(
            {
                "id": "q1", "question": "Q?", "qtype": "other", "bridge_id": "b1",
                "gold_id": "ghost", "pool_ids": ["ghost"], "hop2_title": "T",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    (data / "passages.jsonl").write_text(
        json.dumps({"id": "b1", "title": "B", "body": "Text."}) + "\n", encoding="utf-8"
    )
    assert main(["ingest", "--dataset", str(data)]) == EXIT_INTEGRITY


def test_ingest_parse_error_exit_code(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "queries.jsonl").write_text("{broken\n", encoding="utf-8")
    (data / "passages.jsonl").write_text("", encoding="utf-8")
    assert main(["ingest", "--dataset", str(data)]) == EXIT_USAGE


def test_ingest_missing_directory(tmp_path):
    assert main(["ingest", "--dataset", str(tmp_path / "nowhere")]) == EXIT_USAGE


def test_unknown_flag_exits_two(world_dir):
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--dataset", str(world_dir / "data"), "--bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# embed


def test_embed_dry_run_counts(world_dir, routing_world, capsys, tmp_path):
    ds, _, _ = routing_world
    needed = len(enumerate_embedding_ids(ds))
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(tmp_path / "fresh.bin"),
            "--dry-run",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"texts needed: {needed}" in out
    assert f"missing embeddings: {needed}" in out


def test_embed_dry_run_full_store(world_dir, capsys):
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--dry-run",
        ]
    )
    assert code == EXIT_OK
    assert "missing embeddings: 0" in capsys.readouterr().out


STANDIN = EncoderIdentity("standin-v1", "query: ", "passage: ")


def _store_copy(world_dir, path, identity, drop=0):
    """Save the world's store without its first ``drop`` keys, naming ``identity``."""
    store = load_vectors(world_dir / "store.bin")
    keys = sorted(store.keys())[drop:]
    save_vectors(VectorStore(store.dim, {key: store.get(*key) for key in keys}, identity), path)
    return path


@pytest.fixture
def named_store(world_dir, tmp_path):
    """A copy of the world's store that records the ``STANDIN`` encoder."""
    return _store_copy(world_dir, tmp_path / "named.bin", STANDIN)


def _embed_dry_run(world_dir, store, *flags):
    return main(["embed", "--dataset", str(world_dir / "data"), "--store", str(store), "--dry-run", *flags])


@pytest.mark.parametrize("flags", [
    ["--model-name", "some-other-encoder", "--query-prefix", "other: "],
    ["--model-name", "standin-v1", "--query-prefix", "query: "],
    ["--model-name", "standin-v1", "--query-prefix", "query: ", "--doc-prefix", "doc: "],
])
def test_embed_refuses_a_store_of_another_encoder(world_dir, named_store, capsys, flags):
    before = named_store.read_bytes()
    assert _embed_dry_run(world_dir, named_store, *flags) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    asked = EncoderIdentity(flags[1], flags[3], flags[5] if len(flags) > 4 else "")
    assert line.startswith("error: ")
    assert STANDIN.describe() in line and asked.describe() in line
    assert named_store.read_bytes() == before


def test_embed_accepts_a_store_of_the_same_encoder(world_dir, named_store, capsys):
    flags = ["--model-name", "standin-v1", "--query-prefix", "query: ", "--doc-prefix", "passage: "]
    assert _embed_dry_run(world_dir, named_store, *flags) == EXIT_OK
    assert "missing embeddings: 0" in capsys.readouterr().out


def test_embed_dry_run_without_a_model_checks_nothing(world_dir, routing_world, named_store, capsys):
    ds, _, _ = routing_world
    assert _embed_dry_run(world_dir, named_store) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == f"texts needed: {len(enumerate_embedding_ids(ds))}\nmissing embeddings: 0\n"
    assert err == ""


def test_embed_requires_endpoint_when_fetching(world_dir, tmp_path):
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(tmp_path / "fresh.bin"),
        ]
    )
    assert code == EXIT_USAGE


def test_embed_fetches_and_extends(world_dir, tmp_path, capsys, monkeypatch):
    class FakeClient:
        def __init__(self, cfg, cache_path=None, transport=None):
            self.calls = 0

        def fetch(self, texts, mode, expected_dim=None):
            self.calls += 1
            dim = expected_dim or 6
            out = []
            for t in texts:
                vec = np.zeros(dim)
                vec[sum(t.encode()) % dim] = 1.0
                out.append(vec)
            return out

    monkeypatch.setattr("regime_router.cli.EmbeddingClient", FakeClient)
    store_path = tmp_path / "built.bin"
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(store_path),
            "--endpoint", "https://provider.test/embed",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "provider calls: 2" in out  # one fetch per mode
    store = load_vectors(store_path)
    assert store.identity is None
    ds_ids = enumerate_embedding_ids(
        __import__("regime_router.corpus", fromlist=["load_dataset"]).load_dataset(
            world_dir / "data"
        )
    )
    assert len(store) == len(ds_ids)

    # Second run: nothing missing, store untouched.
    before = store_path.read_bytes()
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(store_path),
            "--endpoint", "https://provider.test/embed",
        ]
    )
    assert code == EXIT_OK
    assert "missing embeddings: 0" in capsys.readouterr().out
    assert store_path.read_bytes() == before


class _OnesClient:
    """A provider stand-in that returns all-ones vectors and counts its fetches."""

    calls = 0

    def __init__(self, cfg, cache_path=None, transport=None):
        pass

    def fetch(self, texts, mode, expected_dim=None):
        type(self).calls += 1
        return [np.ones(expected_dim or 3) for _ in texts]


def test_embed_names_the_run_encoder_in_the_store(world_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("regime_router.cli.EmbeddingClient", _OnesClient)
    store_path = tmp_path / "built.bin"
    base = ["embed", "--dataset", str(world_dir / "data"), "--store", str(store_path),
            "--endpoint", "https://provider.test/embed"]
    assert main([*base, "--model-name", "fake-1", "--doc-prefix", "d: "]) == EXIT_OK
    assert load_vectors(store_path).identity == EncoderIdentity("fake-1", "", "d: ")
    before = store_path.read_bytes()
    assert main([*base, "--model-name", "fake-2", "--doc-prefix", "d: "]) == EXIT_USAGE
    assert "fake-1" in capsys.readouterr().err
    assert store_path.read_bytes() == before


def test_embed_without_a_model_refuses_to_add_to_a_named_store(world_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("regime_router.cli.EmbeddingClient", _OnesClient)
    monkeypatch.setattr(_OnesClient, "calls", 0)
    store_path = _store_copy(world_dir, tmp_path / "named.bin", STANDIN, drop=3)
    before = store_path.read_bytes()
    base = ["embed", "--dataset", str(world_dir / "data"), "--store", str(store_path),
            "--endpoint", "https://provider.test/embed"]
    assert main(base) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and STANDIN.describe() in line
    assert (store_path.read_bytes(), _OnesClient.calls) == (before, 0)
    # Naming the store's encoder adds the missing vectors under it.
    named = ["--model-name", "standin-v1", "--query-prefix", "query: ", "--doc-prefix", "passage: "]
    assert main([*base, *named]) == EXIT_OK
    assert "store size:" in capsys.readouterr().out
    assert load_vectors(store_path).identity == STANDIN


def test_embed_keeps_an_unknown_encoder_unknown(world_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("regime_router.cli.EmbeddingClient", _OnesClient)
    store_path = _store_copy(world_dir, tmp_path / "legacy.bin", None, drop=3)
    store_path.write_bytes(rgrv1_bytes(load_vectors(store_path)))
    assert main(["embed", "--dataset", str(world_dir / "data"), "--store", str(store_path),
                 "--endpoint", "https://provider.test/embed", "--model-name", "fake-1"]) == EXIT_OK
    assert "provider calls:" in capsys.readouterr().out
    topped_up = load_vectors(store_path)
    assert (len(topped_up), topped_up.identity) == (len(load_vectors(world_dir / "store.bin")), None)


def test_embed_rejects_legacy_json_cache(world_dir, tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text('{"0123|query|m": [1.0, 0.0]}', encoding="utf-8")
    before = cache.read_bytes()
    store_path = tmp_path / "fresh.bin"
    code = main(
        [
            "embed",
            "--dataset", str(world_dir / "data"),
            "--store", str(store_path),
            "--cache", str(cache),
            "--endpoint", "https://provider.test/embed",
        ]
    )
    assert code == EXIT_RUNTIME
    assert "magic" in capsys.readouterr().err
    assert cache.read_bytes() == before
    assert not store_path.exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(world_dir, trained_dir, capsys):
    assert (trained_dir / "selector.json").exists()
    assert (trained_dir / "router.json").exists()
    diag = json.loads((trained_dir / "train_diagnostics.json").read_text(encoding="utf-8"))
    assert diag["n"] == 50
    assert diag["fold_sizes"] == [10, 10, 10, 10, 10]
    assert diag["label_positive_rate"] == pytest.approx(0.5)
    assert 0.0 <= diag["oof_mean_p_union"] <= 1.0
    assert diag["selector_source"].startswith("annotations:")
    assert diag["effective_config"]["alpha"] == 0.25


def test_train_with_prebuilt_selector(world_dir, trained_dir, tmp_path, caplog):
    out = tmp_path / "models2"
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--selector-model", str(trained_dir / "selector.json"),
            "--annotations", str(world_dir / "annotations.jsonl"),
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    assert any("annotations file ignored" in r.message for r in caplog.records)
    diag = json.loads((out / "train_diagnostics.json").read_text(encoding="utf-8"))
    assert diag["selector_source"].startswith("artifact:")


def test_train_requires_annotations_or_model(world_dir, tmp_path):
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--out-dir", str(tmp_path / "m"),
        ]
    )
    assert code == EXIT_USAGE


def test_train_bad_annotation_reference_is_integrity_error(world_dir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps({"bridge_id": "ghost", "question_id": "q000", "gold_sentence_index": 0}) + "\n",
        encoding="utf-8",
    )
    code = main(
        [
            "train",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--annotations", str(bad),
            "--out-dir", str(tmp_path / "m"),
        ]
    )
    assert code == EXIT_INTEGRITY


@pytest.mark.parametrize(
    "field, value, code, message",
    [
        ("bridge_id", 7, EXIT_USAGE, "field 'bridge_id' must be a string, got 7"),
        ("question_id", None, EXIT_USAGE, "field 'question_id' must be a string, got null"),
        ("gold_sentence_index", True, EXIT_USAGE, "field 'gold_sentence_index' must be an integer, got true"),
        ("gold_sentence_index", 1.0, EXIT_USAGE, "field 'gold_sentence_index' must be an integer, got 1.0"),
        ("gold_sentence_index", "one", EXIT_USAGE, "field 'gold_sentence_index' must be an integer"),
        ("gold_sentence_index", ..., EXIT_USAGE, "missing field 'gold_sentence_index'"),
        ("bridge_id", "ghost", EXIT_INTEGRITY, "unknown bridge id 'ghost'"),
        ("question_id", "ghost", EXIT_INTEGRITY, "unknown question id 'ghost'"),
        ("gold_sentence_index", -1, EXIT_INTEGRITY, "bad gold_sentence_index -1"),
        ("gold_sentence_index", 99, EXIT_INTEGRITY, "gold sentence index 99 out of range"),
    ],
    ids=["bridge-int", "question-null", "index-bool", "index-float", "index-string", "index-missing",
         "bridge-unknown", "question-unknown", "index-negative", "index-out-of-range"],
)
def test_train_annotation_fields(world_dir, routing_world, tmp_path, capsys, field, value, code, message):
    # A mistyped field is a parse error (2); a well-typed row that names
    # nothing in the dataset is an integrity error (3).
    q = routing_world[0].queries[0]
    row = {"bridge_id": q.bridge_id, "question_id": q.id, "gold_sentence_index": 0}
    if value is ...:
        del row[field]
    else:
        row[field] = value
    bad = tmp_path / "ann.jsonl"
    bad.write_text("\n" + json.dumps(row) + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(world_dir / "data"), "--store", str(world_dir / "store.bin"),
                 "--annotations", str(bad), "--out-dir", str(tmp_path / "m")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    if code == EXIT_USAGE:
        assert err[0].startswith("parse error: ann.jsonl:2: ")


@pytest.mark.parametrize(
    "line, message",
    [("{not json}", "invalid JSON"), ("[1]", "expected a JSON object")],
    ids=["invalid-json", "not-object"],
)
def test_train_annotation_bad_line_is_parse_error(world_dir, tmp_path, capsys, line, message):
    # The same line in queries.jsonl exits 2 under ingest; annotations agree.
    bad = tmp_path / "ann.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(world_dir / "data"), "--store", str(world_dir / "store.bin"),
                 "--annotations", str(bad), "--out-dir", str(tmp_path / "m")]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: ann.jsonl:1: {message}")


# ---------------------------------------------------------------------------
# eval


def eval_args(world_dir, trained_dir, out_dir, *extra):
    return [
        "eval",
        "--dataset", str(world_dir / "data"),
        "--store", str(world_dir / "store.bin"),
        "--selector-model", str(trained_dir / "selector.json"),
        "--router-model", str(trained_dir / "router.json"),
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_eval_does_not_import_numpy_ma(world_dir, trained_dir, tmp_path):
    # ``np.unique`` imports ``numpy.ma`` on first use, 8-22 ms of CPU in each
    # fresh CLI process; eval must not need it.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from regime_router import cli; "
        "assert cli.main(sys.argv[2:]) == 0; print('numpy.ma' in sys.modules)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, str(src), *eval_args(world_dir, trained_dir, tmp_path / "eval")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_eval_writes_report_trace_csv(world_dir, trained_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(eval_args(world_dir, trained_dir, out))
    assert code == EXIT_OK
    payload = json.loads((out / "eval_data.json").read_text(encoding="utf-8"))
    assert payload["n"] == 50
    assert payload["q_only_r_at_k"] == pytest.approx(0.5)
    assert payload["routed_r_at_k"] == pytest.approx(1.0)
    rule = {key: payload["effective_config"][key] for key in ("alpha", "tau", "alpha_mode", "k")}
    assert rule == {"alpha": 0.25, "tau": 0.5, "alpha_mode": "frozen", "k": 5}
    assert "generated_at" in payload

    trace_lines = (out / "eval_data_trace.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(trace_lines) == 50
    first = json.loads(trace_lines[0])
    assert {"query_id", "p_union", "action", "hit_routed"} <= set(first)

    with open(out / "eval_data.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 50
    assert header[0] == "query_id"
    # The router features, flattened, follow the ten per-query columns.
    assert header[10:] == [f"features.{name}" for name in ROUTER_FEATURE_NAMES]
    assert len(ROUTER_FEATURE_NAMES) == 5
    for line, row in zip(trace_lines, rows):
        trace = json.loads(line)
        assert row[0] == trace["query_id"]
        assert [float(v) for v in row[10:]] == [trace["features"][name] for name in ROUTER_FEATURE_NAMES]

    assert "q_only=0.5000 routed=1.0000" in capsys.readouterr().out


def test_eval_writes_each_fact_once(world_dir, trained_dir, tmp_path):
    # The report holds the aggregates and the effective config; the trace is
    # the per-query record, and the CSV is its table.
    out = tmp_path / "eval"
    assert main(eval_args(world_dir, trained_dir, out, "--deterministic")) == EXIT_OK
    payload = json.loads((out / "eval_data.json").read_text(encoding="utf-8"))
    assert not {"per_query", "config", "deployment_rule"} & set(payload)
    lines = (out / "eval_data_trace.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    n = len(rows)
    assert payload["n"] == n == 50
    assert payload["wins"] == sum(r["hit_routed"] and not r["hit_q"] for r in rows)
    assert payload["losses"] == sum(r["hit_q"] and not r["hit_routed"] for r in rows)
    assert payload["q_only_r_at_k"] == sum(r["hit_q"] for r in rows) / n
    assert payload["routed_r_at_k"] == sum(r["hit_routed"] for r in rows) / n
    assert payload["union_rate"] == sum(r["action"] == "Union" for r in rows) / n
    assert payload["fallback_count"] == sum(r["fallback"] for r in rows)

    with open(out / "eval_data.csv", newline="", encoding="utf-8") as fh:
        header, *table = csv.reader(fh)
    for values, row in zip(table, rows, strict=True):
        record = dict(zip(header, values))
        assert record["query_id"] == row["query_id"]
        for rank in ("rank_gold_q", "rank_gold_union"):
            assert record[rank] == ("" if row[rank] is None else str(row[rank]))
        for hit in ("hit_q", "hit_union", "hit_routed"):
            assert record[hit] == str(int(row[hit]))


def test_eval_deterministic_is_byte_identical(world_dir, trained_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(eval_args(world_dir, trained_dir, out_a, "--deterministic")) == EXIT_OK
    assert main(eval_args(world_dir, trained_dir, out_b, "--deterministic")) == EXIT_OK
    payload = json.loads((out_a / "eval_data.json").read_text(encoding="utf-8"))
    assert "generated_at" not in payload
    for name in ("eval_data.json", "eval_data_trace.jsonl", "eval_data.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_eval_nan_fails_and_keeps_the_previous_artifacts(world_dir, trained_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "eval"
    assert main(eval_args(world_dir, trained_dir, out, "--deterministic")) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real = cli.run_main_eval

    def with_nan(*args, **kwargs):
        report = real(*args, **kwargs)
        traces = (dataclasses.replace(report.traces[0], p_union=math.nan), *report.traces[1:])
        return dataclasses.replace(report, traces=traces)

    monkeypatch.setattr(cli, "run_main_eval", with_nan)
    capsys.readouterr()
    assert main(eval_args(world_dir, trained_dir, out, "--deterministic")) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON compliant" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_experiment_nan_fails_and_keeps_the_previous_artifact(tmp_path, monkeypatch, capsys):
    argv = [
        "experiment", "synthetic-calibration", "--n", "100", "--pool-size", "20",
        "--out-dir", str(tmp_path), "--deterministic",
    ]
    assert main(argv) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "synthetic_calibration", lambda **kwargs: CalibrationFit(math.nan, 0.5, 100))
    capsys.readouterr()
    assert main(argv) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error:")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_eval_p_weighted_alpha_recorded(world_dir, trained_dir, tmp_path):
    out = tmp_path / "pw"
    code = main(eval_args(world_dir, trained_dir, out, "--alpha-mode", "p_weighted"))
    assert code == EXIT_OK
    for line in (out / "eval_data_trace.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if not row["fallback"]:
            assert row["alpha_used"] == pytest.approx(clip_alpha(row["p_union"]))


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: [blob],
        lambda blob: {k: v for k, v in blob.items() if k != "standardization"},
        lambda blob: {**blob, "weights": blob["weights"][:-1]},
    ],
    ids=["json-list", "no-standardization", "short-weights"],
)
def test_eval_malformed_router_model_exit_code(world_dir, trained_dir, tmp_path, capsys, edit):
    router = tmp_path / "router.json"
    router.write_text(json.dumps(edit(json.loads((trained_dir / "router.json").read_text()))))
    args = eval_args(world_dir, trained_dir, tmp_path / "out")
    args[args.index("--router-model") + 1] = str(router)
    assert main(args) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(router) in err
    assert not (tmp_path / "out").exists()


def test_eval_missing_store_exit_code(world_dir, trained_dir, tmp_path):
    code = main(
        [
            "eval",
            "--dataset", str(world_dir / "data"),
            "--store", str(tmp_path / "nope.bin"),
            "--selector-model", str(trained_dir / "selector.json"),
            "--router-model", str(trained_dir / "router.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_USAGE


def test_eval_corrupt_store_exit_code(world_dir, trained_dir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"GARBAGE DATA")
    code = main(
        [
            "eval",
            "--dataset", str(world_dir / "data"),
            "--store", str(bad),
            "--selector-model", str(trained_dir / "selector.json"),
            "--router-model", str(trained_dir / "router.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_RUNTIME


def test_eval_duplicate_store_record_exit_code(world_dir, trained_dir, tmp_path, capsys):
    raw = rgrv1_bytes(load_vectors(world_dir / "store.bin"))
    dim = int.from_bytes(raw[5:9], "little")
    id_len = int.from_bytes(raw[9:11], "little")
    first = raw[9 : 11 + id_len + 1 + 4 * dim]
    doubled = tmp_path / "doubled.bin"
    doubled.write_bytes(raw + first)
    code = main(
        [
            "eval",
            "--dataset", str(world_dir / "data"),
            "--store", str(doubled),
            "--selector-model", str(trained_dir / "selector.json"),
            "--router-model", str(trained_dir / "router.json"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_RUNTIME
    assert f"duplicate record for id {raw[11 : 11 + id_len].decode()!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_unknown_name(world_dir, capsys):
    code = main(["experiment", "time-travel", "--out-dir", str(world_dir)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "time-travel" in err
    assert "knockout" in err and "synthetic-calibration" in err


def test_experiment_synthetic_calibration(tmp_path, capsys):
    code = main(
        [
            "experiment", "synthetic-calibration",
            "--n", "500", "--pool-size", "50", "--seed", "1",
            "--out-dir", str(tmp_path),
            "--deterministic",
        ]
    )
    assert code == EXIT_OK
    json_files = list(tmp_path.glob("synthetic_calibration_synthetic_*.json"))
    assert len(json_files) == 1
    payload = json.loads(json_files[0].read_text(encoding="utf-8"))
    assert 0.0 <= payload["r_squared"] <= 1.0
    assert payload["n"] == 500
    assert payload["experiment"] == "synthetic-calibration"
    assert payload["effective_config"]["tau"] == 0.5
    assert "generated_at" not in payload
    csv_files = list(tmp_path.glob("synthetic_calibration_synthetic_*.csv"))
    assert csv_files[0].read_text(encoding="utf-8").startswith("metric,value")


@pytest.mark.parametrize(
    "flags",
    [
        ["--sigma", "nan"],
        ["--sigma", "inf"],
        ["--sigma=-inf"],
        ["--sigma", "0"],
        ["--sigma", "-1"],
        ["--n", "2"],
        ["--n", "-5"],
        ["--pool-size", "1"],
        ["--pool-size", "0"],
    ],
)
def test_synthetic_calibration_rejects_bad_flags(tmp_path, capsys, monkeypatch, flags):
    def unreachable(**kwargs):
        raise AssertionError("synthetic_calibration ran")

    monkeypatch.setattr(cli, "synthetic_calibration", unreachable)
    code = main(["experiment", "synthetic-calibration", *flags, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_requires_dataset_flags(tmp_path):
    code = main(["experiment", "knockout", "--out-dir", str(tmp_path)])
    assert code == EXIT_USAGE


def assert_rerun_identical(argv, rerun_dir):
    """Rerun ``argv`` into ``rerun_dir``: the JSON and CSV it wrote come out byte for byte the same."""
    i = argv.index("--out-dir") + 1
    first = Path(argv[i])
    written = sorted(p.name for p in first.iterdir() if p.suffix in (".json", ".csv"))
    assert main([*argv[:i], str(rerun_dir), *argv[i + 1:]]) == EXIT_OK
    assert len(written) == 2 and sorted(p.name for p in rerun_dir.iterdir()) == written
    for name in written:
        assert (first / name).read_bytes() == (rerun_dir / name).read_bytes()


@pytest.mark.parametrize("name", list(cli.DATASET_PROTOCOLS))
def test_experiment_needs_router_model_exactly_when_it_routes(
    world_dir, trained_dir, margin_dir, tmp_path, capsys, name
):
    routes = cli.DATASET_PROTOCOLS[name][0]
    assert routes == (name in ("oracle", "ablations", "threshold-sweep"))
    if routes:
        # Nothing exists at these paths: the flag is checked before any load.
        data, store, selector = (tmp_path / "missing" / f for f in ("data", "store.bin", "selector.json"))
    elif name == "mixture":
        # The routing world's constant pools leave mixture no margin to decompose.
        data, store, selector = margin_dir / "data", margin_dir / "store.bin", margin_dir / "selector.json"
    else:
        data, store, selector = world_dir / "data", world_dir / "store.bin", trained_dir / "selector.json"
    code = main(["experiment", name, "--dataset", str(data), "--store", str(store),
                 "--selector-model", str(selector), "--out-dir", str(tmp_path / "out"), "--deterministic"])
    err = capsys.readouterr().err
    assert code == (EXIT_USAGE if routes else EXIT_OK)
    assert ("--router-model" in err) == routes
    if routes:
        assert err == f"error: experiment {name!r} needs --dataset, --store, --selector-model, --router-model\n"


@pytest.mark.parametrize("name", ["oracle", "ablations", "threshold-sweep"])
def test_experiment_sweep_requires_router(world_dir, trained_dir, tmp_path, name):
    code = main(
        [
            "experiment", name,
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--selector-model", str(trained_dir / "selector.json"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("taus", ["0.5,abc", "0.5,nan", "inf", "0.5,,0.6", ""])
def test_experiment_sweep_bad_taus_fail_before_loading(tmp_path, capsys, taus):
    missing = tmp_path / "missing"
    code = main(
        [
            "experiment", "threshold-sweep",
            "--dataset", str(missing),
            "--store", str(missing / "store.bin"),
            "--selector-model", str(missing / "selector.json"),
            "--router-model", str(missing / "router.json"),
            "--taus", taus,
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --taus: ")


def test_experiment_sweep_custom_taus(world_dir, trained_dir, tmp_path):
    code = main(
        [
            "experiment", "threshold-sweep",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--selector-model", str(trained_dir / "selector.json"),
            "--router-model", str(trained_dir / "router.json"),
            "--taus", "0.0,2.0",
            "--out-dir", str(tmp_path),
            "--deterministic",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(next(tmp_path.glob("threshold_sweep_data_*.json")).read_text())
    taus = [row["tau"] for row in payload["rows"]]
    assert taus == [0.0, 2.0]
    assert payload["rows"][0]["union_rate"] == 1.0
    assert payload["rows"][1]["union_rate"] == 0.0


@pytest.mark.parametrize("name", ["knockout", "oracle", "ablations"])
def test_experiment_standard_runs(world_dir, trained_dir, tmp_path, name):
    argv = [
        "experiment", name,
        "--dataset", str(world_dir / "data"),
        "--store", str(world_dir / "store.bin"),
        "--selector-model", str(trained_dir / "selector.json"),
        "--router-model", str(trained_dir / "router.json"),
        "--out-dir", str(tmp_path),
        "--deterministic",
    ]
    assert main(argv) == EXIT_OK
    stem = name.replace("-", "_")
    payload = json.loads(next(tmp_path.glob(f"{stem}_data_*.json")).read_text())
    assert payload["experiment"] == name
    assert "effective_config" in payload
    assert_rerun_identical(argv, tmp_path / "rerun")


def test_experiment_mixture_on_degenerate_pools_is_runtime_error(
    world_dir, trained_dir, tmp_path
):
    # Every routing-world pool is constant, so no margin survives and the
    # decomposition has nothing to aggregate.
    code = main(
        [
            "experiment", "mixture",
            "--dataset", str(world_dir / "data"),
            "--store", str(world_dir / "store.bin"),
            "--selector-model", str(trained_dir / "selector.json"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_RUNTIME


@pytest.fixture(scope="module")
def margin_dir(tmp_path_factory, margin_world):
    ds, store, annotations = margin_world
    root = tmp_path_factory.mktemp("cli_margin")
    save_dataset(ds, root / "data")
    save_vectors(store, root / "store.bin")
    save_model(train_selector(annotations), root / "selector.json")
    return root


def test_experiment_mixture(margin_dir, tmp_path):
    argv = [
        "experiment", "mixture",
        "--dataset", str(margin_dir / "data"),
        "--store", str(margin_dir / "store.bin"),
        "--selector-model", str(margin_dir / "selector.json"),
        "--out-dir", str(tmp_path),
        "--deterministic",
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(next(tmp_path.glob("mixture_data_*.json")).read_text())
    assert payload["skipped_degenerate"] == 0
    verdicts = {row["qtype"]: row["verdict"] for row in payload["rows"]}
    assert verdicts["comparison"] == "Q_dominant"
    assert verdicts["compositional"] == "B_dominant"
    agg = payload["aggregate"]
    assert set(agg) == {"q_minus_b_weighted", "q_minus_b_micro"}
    assert agg["q_minus_b_weighted"] == pytest.approx(agg["q_minus_b_micro"], rel=0, abs=1e-12)
    assert_rerun_identical(argv, tmp_path / "rerun")


def test_experiment_regime_agreement(margin_dir, tmp_path):
    argv = [
        "experiment", "regime-agreement",
        "--dataset", str(margin_dir / "data"),
        "--store", str(margin_dir / "store.bin"),
        "--selector-model", str(margin_dir / "selector.json"),
        "--out-dir", str(tmp_path),
        "--deterministic",
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(next(tmp_path.glob("regime_agreement_data_*.json")).read_text())
    assert payload["n_used"] == 12
    assert payload["agreement"] == pytest.approx(1.0)
    assert_rerun_identical(argv, tmp_path / "rerun")


# ---------------------------------------------------------------------------
# README


def test_readme_walkthrough_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI walkthrough\s+```\n(.*?)```", readme, re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip()
    ]
    assert [argv[1] for argv in commands] == ["ingest", "embed", "train", "eval", "experiment"]
    for argv in commands:
        assert argv[0] == "regime-router"
        build_parser().parse_args(argv[1:])
