import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endef.corpus import (
    Corpus,
    CorpusError,
    NewsPiece,
    SplitResult,
    contains_subsequence,
    entity_bias_table,
    export_bias_table,
    load_corpus,
    save_corpus,
    temporal_split,
    tokenize,
)

from conftest import make_piece


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def record(i, label=0, ts=None, entities=("e1",)):
    return {
        "id": f"p{i}",
        "tokens": ["a", "b", "e1"],
        "entities": list(entities),
        "label": label,
        "timestamp": ts if ts is not None else i,
    }


def test_load_three_valid_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(i) for i in range(3)])
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.ids() == ("p0", "p1", "p2")
    assert corpus.pieces[0].tokens == ("a", "b", "e1")


def test_load_bad_label_cites_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [record(i) for i in range(10)]
    records[6]["label"] = 2  # line 7
    write_jsonl(path, records)
    with pytest.raises(CorpusError, match="line 7"):
        load_corpus(path)


def test_load_non_string_list_item_cites_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    for field in ("tokens", "entities"):
        for bad in (7, None, ["a"]):
            for where in (0, 1, 2):
                records = [record(i) for i in range(4)]
                items = ["a", "b", "e1"]
                items[where] = bad
                records[2][field] = items  # line 3
                write_jsonl(path, records)
                with pytest.raises(CorpusError, match=f"line 3: '{field}' must be a list of strings"):
                    load_corpus(path)


def test_load_invalid_json_cites_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record(0)) + "\n" + "{not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [record(0), record(0)])
    with pytest.raises(CorpusError, match="duplicate id"):
        load_corpus(path)


def test_load_missing_entities_marks_needs_recognition(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = record(0)
    del rec["entities"]
    write_jsonl(path, [rec])
    piece = load_corpus(path).pieces[0]
    assert piece.needs_recognition
    assert piece.entities == ()


def test_load_text_field_is_tokenized(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "p0", "text": "Hello, world!", "entities": [], "label": 1, "timestamp": 3}])
    piece = load_corpus(path).pieces[0]
    assert piece.tokens == ("Hello", ",", "world", "!")


def test_load_refuses_a_non_string_id_or_text(tmp_path):
    path = tmp_path / "c.jsonl"
    for bad in (None, 3.5, True, ["p"], {"p": 1}):
        records = [record(i) for i in range(3)]
        records[1]["id"] = bad  # line 2
        write_jsonl(path, records)
        with pytest.raises(CorpusError, match="line 2: 'id' must be a string or an integer"):
            load_corpus(path)
    for bad in (None, 7, ["Hello"]):
        records = [record(i) for i in range(3)]
        del records[2]["tokens"]
        records[2]["text"] = bad  # line 3
        write_jsonl(path, records)
        with pytest.raises(CorpusError, match="line 3: 'text' must be a string"):
            load_corpus(path)


def test_load_integer_id_reads_as_its_decimal_string(tmp_path):
    path = tmp_path / "c.jsonl"
    records = [record(i) for i in range(2)]
    records[0]["id"] = 17
    records[1]["id"] = -3
    write_jsonl(path, records)
    assert load_corpus(path).ids() == ("17", "-3")


def test_tokenize_lowercase_flag():
    assert tokenize("A b-C") == ("A", "b", "-", "C")
    assert tokenize("A b-C", lowercase=True) == ("a", "b", "-", "c")


def test_realistic_skewed_corpus_loads_with_expected_class_counts(tmp_path):
    # microblog-scale corpus: 3,814 fake and 12,535 real pieces, 16,349 total
    path = tmp_path / "skewed.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i in range(16349):
            label = 1 if i < 3814 else 0
            fh.write(json.dumps({"id": f"n{i}", "tokens": ["t"], "entities": [], "label": label, "timestamp": i}) + "\n")
    corpus = load_corpus(path)
    assert len(corpus) == 16349
    fake = sum(p.label for p in corpus)
    assert (fake, len(corpus) - fake) == (3814, 12535)


def test_round_trip_save_load(tmp_path):
    pieces = (
        make_piece("a", ("x", "y"), ("x",), 1, 10),
        NewsPiece("b", ("z",), (), 0, 5, needs_recognition=True),
        make_piece("c", ("u", "v"), ("external entity",), 0, 7),
    )
    corpus = Corpus(pieces, name="rt")
    path = tmp_path / "rt.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path, name="rt")
    assert loaded == corpus


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_round_trip_random_corpora(data, tmp_path_factory):
    token = st.text(alphabet="abcxyzβ漢", min_size=1, max_size=4)
    n = data.draw(st.integers(min_value=1, max_value=8))
    pieces = []
    for i in range(n):
        tokens = tuple(data.draw(st.lists(token, min_size=1, max_size=6)))
        entity_pool = [" ".join(tokens[:2]), "external thing"]
        entities = tuple(data.draw(st.lists(st.sampled_from(entity_pool), max_size=2)))
        needs = data.draw(st.booleans()) and not entities
        pieces.append(
            NewsPiece(
                f"p{i}",
                tokens,
                () if needs else entities,
                data.draw(st.integers(0, 1)),
                data.draw(st.integers(0, 10_000)),
                needs_recognition=needs,
            )
        )
    corpus = Corpus(tuple(pieces), name="rt")
    path = tmp_path_factory.mktemp("roundtrip") / "c.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path, name="rt") == corpus


def test_external_entities_flagged():
    piece = make_piece("a", ("x", "y"), ("x", "not here"), 1, 0)
    assert piece.external_entities() == ("not here",)


def test_contains_subsequence():
    assert contains_subsequence(("a", "b", "c"), ("b", "c"))
    assert not contains_subsequence(("a", "b", "c"), ("c", "b"))
    assert not contains_subsequence(("a",), ())


def test_piece_validation():
    with pytest.raises(CorpusError):
        make_piece("a", ())
    with pytest.raises(CorpusError):
        make_piece("a", ("x",), label=2)
    with pytest.raises(CorpusError):
        NewsPiece("a", ("x",), ("e",), 0, 0, needs_recognition=True)
    with pytest.raises(CorpusError):
        make_piece("a", ("x",), timestamp=-1)


def test_temporal_split_forced_assignment():
    # timestamps 1..10, ratios 0.6/0.2: train must be exactly the oldest six
    pieces = tuple(make_piece(f"p{t}", ("x",), (), 0, t) for t in range(1, 11))
    corpus = Corpus(pieces)
    for seed in (0, 1, 99):
        result = temporal_split(corpus, 0.6, 0.2, seed)
        assert sorted(p.timestamp for p in result.train) == [1, 2, 3, 4, 5, 6]
        assert len(result.validation) == 2 and len(result.test) == 2
        assert sorted(p.timestamp for p in result.validation) + sorted(p.timestamp for p in result.test) != []
        assert set(p.timestamp for p in result.validation) | set(p.timestamp for p in result.test) == {7, 8, 9, 10}


def test_temporal_split_deterministic():
    pieces = tuple(make_piece(f"p{t}", ("x",), (), 0, t) for t in range(40))
    corpus = Corpus(pieces)
    a = temporal_split(corpus, 0.6, 0.2, seed=5)
    b = temporal_split(corpus, 0.6, 0.2, seed=5)
    assert a == b
    c = temporal_split(corpus, 0.6, 0.2, seed=6)
    assert set(c.validation.ids()) != set(a.validation.ids())  # overwhelmingly likely


def test_temporal_split_sizes_within_one_of_ratios():
    n = 16349
    pieces = tuple(make_piece(f"p{i:05d}", ("x",), (), 0, i) for i in range(n))
    result = temporal_split(Corpus(pieces), 0.6, 0.2, seed=3)
    assert abs(len(result.train) - 0.6 * n) <= 1
    assert abs(len(result.validation) - 0.2 * n) <= 1
    assert abs(len(result.test) - 0.2 * n) <= 1


def test_temporal_split_errors():
    with pytest.raises(CorpusError):
        temporal_split(Corpus(()), 0.6, 0.2, 0)
    tiny = Corpus((make_piece("a", ("x",)), make_piece("b", ("x",))))
    with pytest.raises(CorpusError):
        temporal_split(tiny, 0.9, 0.05, 0)  # empty part
    big = Corpus(tuple(make_piece(f"p{i}", ("x",), (), 0, i) for i in range(10)))
    with pytest.raises(CorpusError):
        temporal_split(big, 0.7, 0.3, 0)  # no room for test
    for ratios in ((math.nan, 0.2), (0.6, math.nan), (math.inf, 0.2), (0.6, math.inf), (-math.inf, 0.2)):
        with pytest.raises(CorpusError, match="split ratios must lie in"):
            temporal_split(big, *ratios, 0)


def test_split_without_test_part_keeps_its_checks():
    old = Corpus((make_piece("a", ("x",), (), 0, 1),))
    new = Corpus((make_piece("b", ("x",), (), 0, 2),))
    split = SplitResult(old, new)
    assert len(split.test) == 0
    with pytest.raises(CorpusError):
        SplitResult(new, old)  # train newer than validation
    with pytest.raises(CorpusError):
        SplitResult(old, old)  # shared ids


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
    ts_seed=st.integers(min_value=0, max_value=1000),
)
def test_temporal_split_properties(n, seed, ts_seed):
    import numpy as np

    ts_rng = np.random.default_rng(ts_seed)
    pieces = tuple(
        make_piece(f"p{i:03d}", ("x",), (), int(ts_rng.integers(0, 2)), int(ts_rng.integers(0, 20)))
        for i in range(n)
    )
    corpus = Corpus(pieces)
    result = temporal_split(corpus, 0.5, 0.25, seed)
    all_ids = [p.id for part in (result.train, result.validation, result.test) for p in part]
    assert sorted(all_ids) == sorted(corpus.ids())  # disjoint and exhaustive
    recent = [p.timestamp for part in (result.validation, result.test) for p in part]
    assert max(p.timestamp for p in result.train) <= min(recent)


def corpus_for_bias():
    pieces = []
    # entity "donald trump": 29 pre-boundary pieces, exactly 1 fake
    for i in range(29):
        pieces.append(make_piece(f"dt{i}", ("donald", "trump", "said"), ("donald trump",), 1 if i == 0 else 0, i))
    # entity "beijing": pre and post occurrences
    for i in range(4):
        pieces.append(make_piece(f"bj{i}", ("beijing", "news"), ("beijing",), i % 2, 100 + 1000 * (i % 2)))
    return Corpus(tuple(pieces))


def test_entity_bias_table_counts_and_fraction():
    rows = entity_bias_table(corpus_for_bias(), period_boundary=1000)
    by_key = {(r.entity, r.period): r for r in rows}
    dt = by_key[("donald trump", "pre")]
    assert dt.news_count == 29
    assert dt.fake_fraction == pytest.approx(1 / 29)
    assert round(dt.fake_fraction, 2) == 0.03
    assert ("donald trump", "post") not in by_key  # absent period omitted
    assert by_key[("beijing", "pre")].news_count == 2
    assert by_key[("beijing", "post")].news_count == 2
    # sorted by total count descending
    assert rows[0].entity == "donald trump"


def test_entity_bias_table_matches_brute_force_recount():
    corpus = corpus_for_bias()
    boundary = 1000
    rows = entity_bias_table(corpus, boundary)
    for row in rows:
        matching = [
            p
            for p in corpus
            if row.entity in p.entities and (p.timestamp < boundary) == (row.period == "pre")
        ]
        assert row.news_count == len(matching)
        assert row.fake_fraction == sum(p.label for p in matching) / len(matching)
        assert 0.0 <= row.fake_fraction <= 1.0


def test_entity_bias_table_requires_recognition():
    corpus = Corpus((NewsPiece("a", ("x",), (), 0, 0, needs_recognition=True),))
    with pytest.raises(CorpusError, match="recognition"):
        entity_bias_table(corpus, 10)


def test_entity_absent_from_corpus_has_no_rows():
    rows = entity_bias_table(corpus_for_bias(), 1000)
    assert all(r.entity != "huawei" for r in rows)


def test_export_bias_table_format(tmp_path):
    rows = entity_bias_table(corpus_for_bias(), 1000)
    out = tmp_path / "bias.tsv"
    export_bias_table(rows, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "entity\tperiod\tnews_count\tfake_fraction"
    assert lines[1] == "donald trump\tpre\t29\t0.0345"
