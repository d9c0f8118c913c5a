import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endef.corpus import Corpus, NewsPiece
from endef.recognizer import Gazetteer, GazetteerError, recognize, recognize_corpus

from conftest import reference_longest_matches


def test_direct_hits():
    gaz = Gazetteer(frozenset({"Donald Trump", "Beijing"}))
    tokens = "Donald Trump visited Beijing".split()
    assert recognize(tokens, gaz) == ("Donald Trump", "Beijing")


def test_longest_match_wins():
    gaz = Gazetteer(frozenset({"New York", "New York City"}))
    assert recognize("New York City mayor".split(), gaz) == ("New York City",)


def test_leftmost_scan_resumes_after_match():
    gaz = Gazetteer(frozenset({"a b", "b c"}))
    assert recognize(["a", "b", "c"], gaz) == ("a b",)


def test_duplicates_preserved_in_order_and_dedupe_flag():
    gaz = Gazetteer(frozenset({"x", "y"}))
    tokens = ["x", "y", "x"]
    assert recognize(tokens, gaz) == ("x", "y", "x")
    assert recognize(tokens, gaz, dedupe=True) == ("x", "y")


def test_case_insensitive_returns_canonical_entry():
    gaz = Gazetteer(frozenset({"Beijing"}), case_sensitive=False)
    assert recognize(["beijing"], gaz) == ("Beijing",)
    assert recognize(["BEIJING"], gaz) == ("Beijing",)


def test_empty_intersection_gives_empty_list():
    gaz = Gazetteer(frozenset({"nothing matches"}))
    assert recognize(["a", "b"], gaz) == ()


def test_empty_gazetteer_rejected():
    with pytest.raises(GazetteerError):
        recognize(["a"], Gazetteer(frozenset()))
    with pytest.raises(GazetteerError):
        Gazetteer(frozenset({""}))


def test_gazetteer_from_file_ignores_extra_columns(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Donald Trump\tPERSON\nBeijing\n\n", encoding="utf-8")
    gaz = Gazetteer.from_file(path)
    assert gaz.entries == frozenset({"Donald Trump", "Beijing"})


def test_output_invariant_to_insertion_order():
    entries = ["b c", "a", "c d e", "b"]
    tokens = ["a", "b", "c", "d", "e"]
    results = {recognize(tokens, Gazetteer(frozenset(order))) for order in (entries, entries[::-1])}
    assert len(results) == 1


def brute_force_matches(tokens, entries):
    """All (start, length) matches, then the longest/leftmost filter."""
    hits = []
    for i in range(len(tokens)):
        for k in range(1, len(tokens) - i + 1):
            if " ".join(tokens[i : i + k]) in entries:
                hits.append((i, k))
    chosen = []
    pos = 0
    while pos < len(tokens):
        here = [h for h in hits if h[0] == pos]
        if not here:
            pos += 1
            continue
        k = max(h[1] for h in here)
        chosen.append(" ".join(tokens[pos : pos + k]))
        pos += k
    return tuple(chosen)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_recognize_matches_brute_force_oracle(data):
    alphabet = ["a", "b", "c", "d"]
    tokens = data.draw(st.lists(st.sampled_from(alphabet), min_size=0, max_size=12))
    n_entries = data.draw(st.integers(min_value=1, max_value=6))
    entries = set()
    for _ in range(n_entries):
        length = data.draw(st.integers(min_value=1, max_value=3))
        entries.add(" ".join(data.draw(st.sampled_from(alphabet)) for _ in range(length)))
    gaz = Gazetteer(frozenset(entries))
    got = recognize(tokens, gaz)
    assert got == brute_force_matches(tokens, entries)
    assert all(e in gaz.entries for e in got)


def reference_recognize(tokens, gazetteer, *, dedupe=False):
    """The string-keyed scan the word-tuple table replaced: every position probed, one joined surface key per probe."""
    fold = not gazetteer.case_sensitive

    def surface_key(surface):
        return " ".join((surface.lower() if fold else surface).split())

    lookup = {}
    for e in sorted(gazetteer.entries):
        lookup.setdefault(surface_key(e), e)
    max_span = max(len(e.split()) for e in gazetteer.entries)
    spans = reference_longest_matches(tuple(tokens), max_span, lookup, lambda span: surface_key(" ".join(span)))
    found = [e for _, _, e in spans]
    if dedupe:
        found = list(dict.fromkeys(found))
    return tuple(found)


# tokens holding several words or none, case variants, and a capital sigma,
# whose lower case depends on the letters around it
ODD_TOKENS = ("a", "b", "c", "A", "B", "a b", " a", "b\t", " ", "", "\t \n", "a  c", "ΟΣ", "Σ", "ος")
ODD_ENTRIES = ("a", "A", "b", "a b", "A  B", " a b ", "b a", "a b c", "c", "B c", "ος", "ΟΣ b", "σ", "a ος")


@settings(max_examples=400, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(ODD_TOKENS), max_size=12),
    entries=st.sets(st.sampled_from(ODD_ENTRIES), min_size=1, max_size=7),
    case_sensitive=st.booleans(),
    dedupe=st.booleans(),
)
def test_recognize_matches_string_keyed_reference(tokens, entries, case_sensitive, dedupe):
    gaz = Gazetteer(frozenset(entries), case_sensitive=case_sensitive)
    assert recognize(tokens, gaz, dedupe=dedupe) == reference_recognize(tokens, gaz, dedupe=dedupe)


def test_recognize_corpus_fills_entities():
    corpus = Corpus(
        (
            NewsPiece("a", ("Donald", "Trump", "spoke"), (), 0, 0, needs_recognition=True),
            NewsPiece("b", ("nothing", "here"), (), 1, 1, needs_recognition=True),
        )
    )
    gaz = Gazetteer(frozenset({"Donald Trump"}))
    out = recognize_corpus(corpus, gaz)
    assert out.pieces[0].entities == ("Donald Trump",)
    assert not out.pieces[0].needs_recognition
    assert out.pieces[1].entities == ()
    assert not out.pieces[1].needs_recognition
