"""Parser-semantics unit tests (SURVEY.md §2.2 P1-P21, quirks as-written)."""

from search_engine_ray.text.parser import Parser


def P(**kw):
    return Parser(**kw)


def toks(text, **kw):
    out, caps, ents = P(**kw).parse_sentence(text)
    return out


def test_hashtag_camelcase_split():
    assert toks("#CovidIsReal spreads") == \
        ["#covidisreal", "covid", "is", "real", "spreads"]


def test_mention():
    assert toks("@User99 said") == ["@user99", "said"]


def test_number_normalization():
    assert toks("68,800 people") == ["68.8K", "people"]
    assert toks("123,456,678 next") == ["123.456M", "next"]
    assert toks("2 cats") == ["2", "cats"]
    assert toks("7 thousand cats") == ["7K", "cats"]
    # '3.5 billion' is NOT normalized — parser_module.py:82 as-written
    assert toks("3.5 billion") == ["3.5", "billion"]


def test_percent_forms():
    assert toks("rose 50% today") == ["rose", "50%", "today"]
    assert toks("rose 35 percent today") == ["rose", "35%", "today"]
    assert toks("rose 3-4% today") == ["rose", "3-4", "3", "4", "3-4%", "today"]


def test_fraction_forms():
    assert toks("ate 3 1/2 cups") == ["ate", "3", "3 1/2", "cups"]
    # backslash converted before comparison; irreducible -> single append
    assert toks("cut -5\\8 slice") == ["cut", "-5/8", "slice"]
    # reducible fraction appends reduced + original (post-conversion) form
    assert toks("use 2\\4 cup") == ["use", "1/2", "2/4", "cup"]
    assert toks("use 2/4 cup") == ["use", "1/2", "2/4", "cup"]


def test_dashes():
    assert toks("my well-being matters") == ["well-being", "well", "matters"]
    # part that is a stopword is dropped ('being'); leading-dash token
    assert toks("x -word z") == ["x", "word", "z"]


def test_kbm_shorthand():
    assert toks("made 50k fast") == ["made", "50K", "fast"]
    assert toks("made 3M fast") == ["made", "3M", "fast"]
    # float-truthiness quirk: '0k' is NOT shorthand (parser_module.py:91)
    assert toks("made 0k fast") == ["made", "0k", "fast"]
    # all-alpha float() word literals + kbm suffix ARE shorthand
    # (float('nan')/float('inf') are truthy) — these must NOT take the
    # lowercase-word fast path (regression: the fast path emitted them
    # verbatim)
    assert toks("nank infm infinityb") == ["NANK", "INFM", "INFINITYB"]
    # ...but the bare literals and ordinary k/m/b-final words do
    assert toks("nan inf milk bomb") == ["nan", "inf", "milk", "bomb"]


def test_https_splice_drops_tco():
    assert toks("go https://t.co/abc quickly") == ["go", "quickly"]
    # '?' detaches, so the spliced token is scheme-less '//www...' — the
    # reference's www-strip (split_url r[3]) misses it; 'x=y' survives as
    # a plain token.  As-written semantics.
    assert toks("see https://www.instagram.com/p/AB/?x=y ok") == \
        ["see", "www.instagram.com", "p", "ab", "x=y", "ok"]


def test_entities_chunking_and_trailing_drop():
    out, caps, ents = P().parse_sentence("Donald Trump spoke with South Korea")
    # multi-word chunk appended as a single lowercase term as well
    assert "donald trump" in out
    assert "Donald Trump" in ents
    # trailing chunk 'South Korea' is DROPPED (no post-loop flush)
    assert "South Korea" not in ents
    assert "south korea" not in out
    # chunk members still go through the normal append path
    assert out[:3] == ["donald", "trump", "donald trump"]


def test_capitals_last_write_wins():
    _, caps, _ = P().parse_sentence("Apple apple Apple")
    assert caps["apple"] is True
    _, caps, _ = P().parse_sentence("Apple Apple apple")
    assert caps["apple"] is False


def test_stopword_filtering_and_extension():
    assert toks("the rt and of") == []
    # hashtag split parts bypass the stopword filter (reference behavior)
    assert toks("#TheBigOne x") == ["#thebigone", "the", "big", "one", "x"]


def test_non_latin_stripped_in_page_parse():
    p = P(harvest_page_url=False)
    d = p.parse_page("u", "hello 中 world ω")
    assert d.tokens == ["hello", "world"]


def test_page_url_harvest_and_doc_length():
    p = P()
    d = p.parse_page("https://site9.example/news/00000009", "covid cases rising")
    assert d.tokens[-3:] == ["site9.example", "news", "00000009"]
    assert d.doc_length == len(d.tokens)


def test_empty_and_none_cases():
    p = P(harvest_page_url=False)
    assert p.parse_page("u", "中中中") is None      # empty after strip
    assert p.parse_page("u", "the and of") is None  # empty after tokenize


def test_stemming_gate():
    assert toks("running quickly", stemming=True) == ["run", "quick"]
    assert toks("running quickly", stemming=False) == ["running", "quickly"]


def test_tweet_row_parse():
    import json
    p = P()
    row = ["123", "Mon Jul 27 10:00:00 +0000 2020", "covid cases rising",
           json.dumps({"a": "https://example.org/x/1"}), None, None, "{}",
           None, "quoted extra", "{}"]
    d = p.parse_tweet_row(row)
    assert "example.org" in d.tokens and "quoted" in d.tokens
    assert p.parse_tweet_row(["1", None, "text"]) is None


def _general_loop_parser(**kw):
    """A Parser whose ``parse_sentence`` is a copy with the lowercase
    fast-path guard forced off, so every token takes the general loop."""
    import inspect
    import textwrap

    from search_engine_ray.text import parser as parser_mod

    src = textwrap.dedent(inspect.getsource(Parser.parse_sentence))
    guard = "if (token.isalpha() and token.isascii() and token.islower()"
    assert src.count(guard) == 1
    src = src.replace(guard, "if False and (token.isalpha()"
                             " and token.isascii() and token.islower()")
    ns = dict(vars(parser_mod))
    exec(src, ns)

    class GeneralLoop(Parser):
        parse_sentence = ns["parse_sentence"]

    return GeneralLoop(**kw)


def test_fast_path_matches_general_loop_seeded():
    """The lowercase fast path in ``parse_sentence`` is byte-identical to
    the general loop: seeded token mixes of handler triggers ('https',
    'percent', 'nank'/'infm' kbm shorthand), digits, mixed case,
    stopwords and capitalized entity-chunk boundaries."""
    import random

    words = [
        "covid", "vaccine", "news", "https", "percent", "percentage",
        "nank", "infm", "nanb", "infinityk", "nan", "inf", "ink", "bank",
        "the", "and", "of", "is", "a", "The", "And", "Covid", "COVID",
        "Vaccine", "New", "York", "Times", "iPhone", "eBay", "mRNA",
        "50", "68,800", "3.5", "7", "thousand", "million", "2k", "0k",
        "1/2", "-5\\8", "well-being", "COVID-19", "#CovidIsReal", "@user",
        "%", "https://t.co/abc", "www.example.com/x", "café", "naïve",
        "won't", "it's", ".", ",", "!", "?", "(", ")",
    ]
    rng = random.Random(20241020)
    for stemming in (False, True):
        fast = Parser(stemming=stemming)
        slow = _general_loop_parser(stemming=stemming)
        for _ in range(1500):
            text = " ".join(rng.choice(words)
                            for _ in range(rng.randint(0, 16)))
            assert fast.parse_sentence(text) == slow.parse_sentence(text), \
                (stemming, text)
