"""Tokenizer cases per SURVEY.md §5.2 — the shapes the parser special-cases."""

from search_engine_ray.text.tokenizer import simple_tokenize, treebank_tokenize


def test_hashtag_and_mention_split():
    assert treebank_tokenize("#CovidIsReal now") == ["#", "CovidIsReal", "now"]
    assert treebank_tokenize("@user12 hi") == ["@", "user12", "hi"]


def test_percent_and_numbers():
    assert treebank_tokenize("50% done") == ["50", "%", "done"]
    assert treebank_tokenize("68,800 people") == ["68,800", "people"]
    assert treebank_tokenize("3.5 billion") == ["3.5", "billion"]


def test_url_splits_like_punkt():
    assert treebank_tokenize("go https://t.co/x now") == \
        ["go", "https", ":", "//t.co/x", "now"]


def test_final_period_detaches_but_decimal_stays():
    assert treebank_tokenize("It works.") == ["It", "works", "."]
    assert treebank_tokenize("pi is 3.14 ok") == ["pi", "is", "3.14", "ok"]


def test_sentence_split_detaches_midtext_periods():
    assert treebank_tokenize("One done. Two begins") == \
        ["One", "done", ".", "Two", "begins"]


def test_contractions():
    assert treebank_tokenize("isn't Jim's") == ["is", "n't", "Jim", "'s"]


def test_dashes_kept_in_token():
    assert treebank_tokenize("well-being and COVID-19") == \
        ["well-being", "and", "COVID-19"]


def test_fractions_kept():
    assert treebank_tokenize("3 1/2 cups -5\\8") == \
        ["3", "1/2", "cups", "-5\\8"]


def test_simple_tokenizer_matches_sql_semantics():
    # mirrors regexp_split_to_array(lower(text), '[^a-z0-9]+') minus empties
    assert simple_tokenize("Hello, World!  #tag 42") == \
        ["hello", "world", "tag", "42"]
    assert simple_tokenize("") == []
    assert simple_tokenize("---") == []


def test_macintyre_contraction_splits():
    """NLTK word_tokenize applies the tokenizer.sed MacIntyre lists; the
    reference's token streams split these (ADVICE r1)."""
    from search_engine_ray.text.tokenizer import treebank_tokenize as T

    assert T("I cannot go") == ["I", "can", "not", "go"]
    assert T("Gonna rain, wanna stay") == [
        "Gon", "na", "rain", ",", "wan", "na", "stay"]
    assert T("'Tis true 'twas so") == [
        "'T", "is", "true", "'t", "was", "so"]
    assert T("gimme that, lemme see, gotta run, d'ye know") == [
        "gim", "me", "that", ",", "lem", "me", "see", ",",
        "got", "ta", "run", ",", "d", "'ye", "know"]


def test_sentence_split_after_period_quote():
    """'things."' followed by a new sentence must split so the dot
    detaches (punkt splits after closing quotes)."""
    from search_engine_ray.text.tokenizer import treebank_tokenize as T

    toks = T('He said "great things." Next sentence here.')
    assert "things" in toks and 'things."' not in toks


def _split_always(text):
    """treebank_tokenize with the sentence split run unconditionally."""
    from search_engine_ray.text import tokenizer as tk

    has_contr = tk._has_contraction(text)
    out = []
    for sent in tk._SENT_SPLIT.split(text):
        if sent:
            out.extend(tk._treebank_sentence(sent, has_contr))
    return out


def test_sentence_split_skip_without_marks():
    """Texts without '.', '!' or '?' skip the sentence split; the token
    streams are those of the split path, with and without the marks."""
    cases = [
        "", "   ", "plain words only", "Hello, World: #tag 50% @me",
        "quoted \"thing\" (x) [y] {z} <w> -- done",
        "isn't it, cannot 'Tis so https://t.co/x",
        "It works.", "Why? Because! Yes.", 'He said "great." Then left',
        "pi is 3.14 ok", "wait... what?! no.) next", "one\n\ntwo\tthree",
    ]
    for text in cases:
        assert treebank_tokenize(text) == _split_always(text), text
    assert treebank_tokenize("no marks here, at all") == \
        ["no", "marks", "here", ",", "at", "all"]
    assert treebank_tokenize("Really? Yes! Fine.") == \
        ["Really", "?", "Yes", "!", "Fine", "."]
    # each mark alone still splits: a quote pair opening the next
    # sentence reads as an opening quote only without the split
    assert treebank_tokenize("a? ''s b") == ["a", "?", "''s", "b"]
    assert treebank_tokenize("a! ''s b") == ["a", "!", "''s", "b"]
    assert treebank_tokenize("a. ''s b") == ["a", ".", "''s", "b"]


def test_sentence_split_skip_seeded_fuzz():
    import random

    rng = random.Random(1234)
    alphabet = ["word", "Cap", "n't", "'s", ".", "!", "?", ",", ":",
                "\"", "'", ")", "]", "3.5", "50%", "#x", "@y", "--",
                " ", " ", " ", "\n", "cannot", "https://t.co/a"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 24)))
        assert treebank_tokenize(text) == _split_always(text), repr(text)
