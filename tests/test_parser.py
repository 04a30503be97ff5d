"""Parser-semantics unit tests (SURVEY.md §2.2 P1-P21, quirks as-written)."""

import random

import pytest

from search_engine_ray.fixtures import gen_pages
from search_engine_ray.text import parser as parser_mod
from search_engine_ray.text import stemmer as porter2
from search_engine_ray.text.parser import (_KBM, _NON_LATIN,
                                          _PERCENT_WORDS, _URL_IN_TEXT,
                                          ParsedDoc, Parser)
from search_engine_ray.text.stopwords import STOPWORDS


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


# --------------------------------------------------------------------------
# Frozen reference: the per-occurrence decision chain as it stood before
# parse_sentence memoized each token's classification — parse_sentence,
# _parse_body, _dashes and _append copied verbatim (the shared neighbour
# handlers are inherited).  Every parse must match it exactly, including
# the insertion order of ``capitals`` and ``term_tfs``.

_FLOAT_WORDS = frozenset({"nan", "inf", "infinity"})


class _ReferenceParser(Parser):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.stop_words = STOPWORDS

    def parse_sentence(self, text: str):
        """Tokenize + normalize one text; returns (tokens, capitals, entities)."""
        if self.raw_tokens:
            return self.tokenize(text), {}, set()
        toks = self.tokenize(text)
        self._toks = toks
        out: list[str] = []
        chunk = ""
        chunk_len = 0
        capitals: dict[str, bool] = {}
        entities: set[str] = set()

        stop_words = self.stop_words
        for idx, token in enumerate(toks):
            # fast path for plain lowercase ascii words — the vast
            # majority of web-text tokens.  Such a token provably takes
            # the default _append branch (it can't be a handler trigger:
            # not '#'/'@', no slash/comma/dash/digit, and the kbm guard's
            # _to_float on an alpha prefix is None for every alpha string
            # EXCEPT float()'s word literals 'nan'/'inf'/'infinity', so
            # e.g. 'nank'/'infm' must fall through to the kbm branch),
            # except the two lowercase keywords 'percent(age)' and
            # 'https' which are excluded here.
            if (token.isalpha() and token.isascii() and token.islower()
                    and token != "https" and token not in _PERCENT_WORDS
                    and not (token[-1] in "kmb"
                             and token[:-1] in _FLOAT_WORDS)):
                if token in stop_words:
                    continue
                if chunk != "":
                    entities.add(chunk[:-1])
                    if chunk_len > 1:
                        out.append(chunk[:-1].lower())
                    chunk = ""
                    chunk_len = 0
                if self.stemming:
                    token = porter2.stem(token)
                capitals[token] = False
                if token not in stop_words:
                    out.append(token)
                continue
            tl = token.lower()
            if tl in stop_words or (
                len(token) == 1 and ord(token) > 126
            ):
                continue

            if len(token) > 0 and token[0].isupper():
                chunk += token + " "
                chunk_len += 1
            else:
                if chunk != "":
                    entities.add(chunk[:-1])
                    if chunk_len > 1:
                        out.append(chunk[:-1].lower())
                    chunk = ""
                    chunk_len = 0

            if token == "#":
                self._hashtags(out, idx)
            elif token == "@":
                self._tags(out, idx)
            elif ("/" in token or "\\" in token) and self._is_fraction(token):
                # (the fraction regexes require a slash — cheap pre-filter)
                self._fraction(out, token, idx)
            elif token in _PERCENT_WORDS:
                self._percent(out, idx)
            elif token.isnumeric() or "," in token:
                self._number(out, idx, token)
            elif "-" in token and len(token) > 1:
                self._dashes(out, token)
            elif token == "https" and idx + 2 < len(toks):
                parts = self._split_url(toks[idx + 2])
                out.extend(p.lower() for p in parts)
                toks[idx + 2] = ""
            elif token[-1] in _KBM and self._to_float(token[:-1]):
                out.append(token.upper())
            else:
                if self.stemming:
                    token = porter2.stem(token)
                    tl = token  # stem output is already lowercase
                self._append(out, capitals, token, tl)

        # NOTE: a trailing entity chunk is intentionally dropped here,
        # matching the reference (no flush after the loop).
        return out, capitals, entities

    def _parse_body(self, full_text: str, urls_set: set) -> "ParsedDoc | None":
        if self.raw_tokens:
            tokens = self.tokenize(full_text)
            if len(tokens) == 0:
                return None
            capitals, entities = {}, set()
        else:
            if len(urls_set) > 0:
                full_text = _URL_IN_TEXT.sub("", full_text)
            full_text = _NON_LATIN.sub("", full_text)
            if len(full_text) == 0:
                return None
            tokens, capitals, entities = self.parse_sentence(full_text)
            if len(tokens) == 0:
                return None
            for u in urls_set:
                parts = self._split_url(u)
                if parts:
                    tokens.extend(parts)
        term_tfs: dict[str, int] = {}
        max_tf = 0
        doc_length = len(tokens)
        for term in tokens:
            tf = term_tfs.get(term, 0) + 1
            term_tfs[term] = tf
            if tf > max_tf:
                max_tf = tf
        return ParsedDoc(
            tokens=tokens,
            term_tfs=term_tfs,
            doc_length=doc_length,
            max_tf=max_tf,
            unique_terms=len(term_tfs),
            capitals=capitals,
            entities=entities,
        )

    def _dashes(self, out, token):                                      # P12
        dash_idx = token.find("-")
        after = token[dash_idx + 1:].lower()
        if dash_idx > 0:
            out.append(token.lower())
            before = token[:dash_idx].lower()
            if before not in self.stop_words:
                out.append(before)
            if after not in self.stop_words:
                out.append(after)
        else:
            if after not in self.stop_words:
                out.append(after)

    def _append(self, out, capitals, token, tl=None):                   # P15
        if tl is None:
            tl = token.lower()
        if len(token) > 0 and token[0].isupper():
            capitals[tl] = True
        else:
            capitals[tl] = False
        if tl not in self.stop_words:
            out.append(tl)


_WORDS = [
    "covid", "vaccine", "news", "https", "percent", "percentage",
    "nank", "infm", "nanb", "infinityk", "nan", "inf", "ink", "bank",
    "the", "and", "of", "is", "a", "The", "And", "Covid", "COVID",
    "Vaccine", "New", "York", "Times", "iPhone", "eBay", "mRNA",
    "50", "68,800", "3.5", "7", "thousand", "million", "2k", "0k",
    "1/2", "-5\\8", "well-being", "COVID-19", "#CovidIsReal", "@user",
    "%", "https://t.co/abc", "www.example.com/x", "café", "naïve",
    "won't", "it's", ".", ",", "!", "?", "(", ")",
    "HTTPS", "Https", "w12", "Running", "x-", "-x",
]


def _texts(seed, n):
    """Seeded token mixes; every fourth one ends in 'https' (the splice
    has no URL token after it and falls through to the word branch)."""
    rng = random.Random(seed)
    for i in range(n):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(0, 16))]
        if i % 4 == 0:
            words += ["https"] + ["x"] * rng.randint(0, 1)
        yield " ".join(words)


def _sentence(parser, text):
    out, caps, ents = parser.parse_sentence(text)
    return out, list(caps.items()), ents


def _page(d):
    if d is None:
        return None
    return (d.tokens, list(d.term_tfs.items()), d.doc_length, d.max_tf,
            d.unique_terms, list(d.capitals.items()), d.entities)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty classification memo for the test (the memo is
    process-wide, so other tests' parses would otherwise warm it)."""
    memo = {False: {}, True: {}}
    monkeypatch.setattr(parser_mod, "_CLASSIFY_MEMO", memo)
    return memo


@pytest.mark.parametrize("tokenizer", ["treebank", "simple"])
def test_parse_sentence_matches_frozen_reference_seeded(fresh_memo,
                                                        tokenizer):
    """Seeded token mixes of handler triggers ('https' and its case
    variants, 'percent', 'nank'/'infm' kbm shorthand), digits, mixed
    case, dashes, stopwords and entity-chunk boundaries parse exactly as
    the frozen reference, with stemming off and on — the stemming-off
    pass runs first over the same tokens, so a memo shared between the
    modes would hand stemming-on parses unstemmed entries."""
    for stemming in (False, True):
        new = Parser(stemming=stemming, tokenizer=tokenizer)
        ref = _ReferenceParser(stemming=stemming, tokenizer=tokenizer)
        for text in _texts(20241020, 1500):
            assert _sentence(new, text) == _sentence(ref, text), \
                (stemming, text)
    assert fresh_memo[False] and fresh_memo[True]


@pytest.mark.parametrize("tokenizer", ["treebank", "simple"])
def test_parse_page_matches_frozen_reference(fresh_memo, tokenizer):
    """parse_page over a generated corpus equals the reference, the
    insertion order of capitals and term_tfs included (the caps_terms and
    terms columns take their order from it)."""
    pages = gen_pages(300, seed=7, min_len=20, max_len=120)
    urls = pages.column("url").to_pylist()
    texts = pages.column("text").to_pylist()
    for stemming in (False, True):
        new = Parser(stemming=stemming, tokenizer=tokenizer)
        ref = _ReferenceParser(stemming=stemming, tokenizer=tokenizer)
        for url, text in zip(urls, texts):
            assert _page(new.parse_page(url, text)) == \
                _page(ref.parse_page(url, text)), (stemming, url)


def test_memo_shared_across_parsers_and_modes(fresh_memo):
    """One memo per stemming mode serves every Parser instance; a warm
    memo gives the same answers as a cold one."""
    text = "Running runs https HTTPS well-being 50k Covid News x"
    Parser(stemming=False).parse_sentence(text)
    n = len(fresh_memo[False])
    assert n > 0 and not fresh_memo[True]
    for stemming in (True, False, True):
        ref = _ReferenceParser(stemming=stemming)
        for _ in range(2):  # cold then warm in the stemming-on mode
            got = _sentence(Parser(stemming=stemming), text)
            assert got == _sentence(ref, text), stemming
    assert len(fresh_memo[False]) == n
    assert fresh_memo[True]


def test_memo_at_its_bound(fresh_memo, monkeypatch):
    """A full memo is cleared, never grows past the bound, and the
    answers stay equal to the reference."""
    monkeypatch.setattr(parser_mod, "_CLASSIFY_MEMO_MAX", 8)
    for stemming in (False, True):
        new = Parser(stemming=stemming)
        ref = _ReferenceParser(stemming=stemming)
        for text in _texts(99, 300):
            assert _sentence(new, text) == _sentence(ref, text), \
                (stemming, text)
            assert len(fresh_memo[stemming]) <= 8
