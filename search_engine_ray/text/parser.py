"""Tokenization + per-document parsing semantics.

Reproduces, behavior-for-behavior, the reference ``Parse`` class
(/root/reference/parser_module.py) including its as-written quirks — these
are load-bearing for rank-identical results and are reproduced, not fixed:

- token-list mutation during iteration (consumed tokens set to ``''`` which
  then hit the stopword filter, parser_module.py:90, 205, 216, 277);
- entity chunks: runs of capitalized tokens; flushed only when a
  non-capitalized token follows — a trailing chunk at end of text is
  DROPPED (no post-loop flush, parser_module.py:60-72); multi-word chunks
  are also appended as a single space-joined lowercase term;
- capitals tracking is last-write-wins per doc (parser_module.py:448-462:
  the original-case membership test never hits the lowercase keys);
- ``handle_fraction`` at idx==0 with an irreducible fraction reads
  ``text_tokens[-1]`` — Python negative indexing (parser_module.py:417);
- the kbm-shorthand gate uses float truthiness, so ``0k`` is NOT treated
  as shorthand (parser_module.py:91: ``and self.convert_string_to_float``);
- ``3.5 billion`` is NOT normalized (the number branch requires
  ``token.isnumeric() or ',' in token``, parser_module.py:82 — '3.5' fails
  both, despite the docstring's claim);
- doc_length counts URL-expansion tokens (parser_module.py:174-176).

One decision chain (``_classify``) decides what a token does: stopword
drop, entity-chunk membership, and which handler — the word/append
branch, kbm shorthand, dashes, or a handler that reads a neighbour
(``#``, ``@``, fraction, percent word, number, ``https``).  Everything it
reads is the token, the stemming flag and module constants, so its
result is a pure function of (token, stemming): it is computed once per
distinct token and kept in a process-wide memo per stemming mode, shared
by every Parser in the process (build workers, query parsers, oracles)
and cleared when it reaches ``_CLASSIFY_MEMO_MAX`` entries.  Text is
Zipf-distributed, so nearly every occurrence is a memo hit; the
neighbour-reading handlers still run per occurrence.  A frozen copy of
the per-occurrence chain in tests/test_parser.py checks the token
stream, entities and the insertion order of capitals and term_tfs.

This module is pure Python and deterministic; it is shared by the Ray
engine (inside parser actors) and the single-process test oracle.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from search_engine_ray.text.stopwords import STOPWORDS
from search_engine_ray.text.tokenizer import get_tokenizer
from search_engine_ray.text import stemmer as porter2

_NON_LATIN = re.compile(
    r"[^\x00-\x7F\x80-\xFFĀ-ſƀ-ɏḀ-ỿ’]"
)
_URL_IN_TEXT = re.compile(r"http\S+|www.\S+")
_HASHTAG_SPLIT = re.compile(r"[a-zA-Z0-9](?:[a-z0-9]+|[A-Z0-9]*(?=[A-Z]|$))")
_LEFT_SLASH = re.compile(r"^-?[0-9]+/0*[1-9][0-9]*$")
_RIGHT_SLASH = re.compile(r"^-?[0-9]+\\0*[1-9][0-9]*$")
_URL_SPLIT = re.compile(r"[/://?=]")

_KBM = frozenset("kmbKMB")
_PERCENT_WORDS = ("%", "percent", "percentage")

# _classify's entries: one process-wide memo per stemming mode, cleared
# when it reaches the bound
_STOP = object()
_HASHTAG, _MENTION, _FRACTION, _PERCENT, _NUMBER, _HTTPS = range(1, 7)
_CLASSIFY_MEMO: dict[bool, dict[str, object]] = {False: {}, True: {}}
_CLASSIFY_MEMO_MAX = 1 << 17


@dataclass
class ParsedDoc:
    tokens: list[str]           # final ordered token stream (incl. URL expansion)
    term_tfs: dict[str, int]    # term -> tf within doc, insertion-ordered
    doc_length: int
    max_tf: int
    unique_terms: int
    capitals: dict[str, bool]   # lower(term) -> seen-capitalized (last write wins)
    entities: set[str]          # original-case capitalized-run chunks


class Parser:
    """Stateful tokenizer/normalizer — instantiate once per worker (ST1/ST2)."""

    def __init__(self, stemming: bool = False, tokenizer: str = "treebank",
                 harvest_page_url: bool = True, raw_tokens: bool = False):
        self.stemming = stemming
        self.tokenize = get_tokenizer(tokenizer)
        self.tokenizer_name = tokenizer
        self.harvest_page_url = harvest_page_url
        # raw mode: tokens = tokenizer(text) VERBATIM — no URL stripping,
        # no non-Latin strip, no stopword/capitals/entity handling.  Used
        # by positional indexes whose token stream (and hence positions)
        # must equal a plain tokenization oracle exactly.
        self.raw_tokens = raw_tokens
        self._toks: list[str] = []

    @classmethod
    def from_config(cls, cfg) -> "Parser":
        """The parser an ``EngineConfig`` describes: its stemming,
        tokenizer, harvest_page_url and raw_tokens fields."""
        return cls(stemming=cfg.stemming, tokenizer=cfg.tokenizer,
                   harvest_page_url=cfg.harvest_page_url,
                   raw_tokens=cfg.raw_tokens)

    # ------------------------------------------------------------------ P2
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

        # Each distinct token walks the decision chain once (_classify);
        # its entry is looked up in the process-wide memo after that.
        # Handlers that read a neighbour still run per occurrence, with
        # idx, and may blank later tokens in ``toks`` in place.
        stemming = self.stemming
        lookup = _CLASSIFY_MEMO[stemming].get
        for idx, token in enumerate(toks):
            entry = lookup(token)
            if entry is None:
                entry = _classify(token, stemming)
            if entry is _STOP:
                continue
            upper, kind, terms, cap_key, cap_flag = entry

            if upper:
                chunk += token + " "
                chunk_len += 1
            elif chunk != "":
                entities.add(chunk[:-1])
                if chunk_len > 1:
                    out.append(chunk[:-1].lower())
                chunk = ""
                chunk_len = 0

            if kind:
                if kind == _HASHTAG:
                    self._hashtags(out, idx)
                    continue
                if kind == _MENTION:
                    self._tags(out, idx)
                    continue
                if kind == _FRACTION:
                    self._fraction(out, token, idx)
                    continue
                if kind == _PERCENT:
                    self._percent(out, idx)
                    continue
                if kind == _NUMBER:
                    self._number(out, idx, token)
                    continue
                if idx + 2 < len(toks):  # _HTTPS: splice the URL token
                    parts = self._split_url(toks[idx + 2])
                    out.extend(p.lower() for p in parts)
                    toks[idx + 2] = ""
                    continue
                # 'https' without two tokens after it: the rest of the
                # chain, which the entry carries
            if cap_key is not None:
                capitals[cap_key] = cap_flag
            out += terms

        # NOTE: a trailing entity chunk is intentionally dropped here,
        # matching the reference (no flush after the loop).
        return out, capitals, entities

    # ---------------------------------------------------------------- P1/F1
    def parse_page(self, url: str, text: str) -> "ParsedDoc | None":
        """Parse one Common-Crawl-style page body (F1 input shape).

        The page's own ``url`` plays the role the reference's harvested
        JSON-dict URLs play for tweets (parser_module.py:147-162, 174):
        it is stripped from the body text and its split parts are appended
        to the token stream.
        """
        urls_set = {url} if self.harvest_page_url else set()
        return self._parse_body(text, urls_set)

    def parse_tweet_row(self, row: list) -> "ParsedDoc | None":
        """Positional tweet-row parse (F2 input shape; parser_module.py:104-191).

        Returns None for rows missing id/date/text, like the reference.
        The caller owns date parsing; this returns the text-derived fields.
        """
        import json as _json

        def _get(i):
            return row[i] if len(row) > i else None

        def _jload(s):
            if s is None or s == "{}":
                return None
            try:
                return _json.loads(s)
            except Exception:
                return None

        tweet_id, tweet_date, full_text = _get(0), _get(1), _get(2)
        if full_text is None or tweet_id is None or tweet_date is None:
            return None
        dicts = [_jload(_get(3)), _jload(_get(6)), _jload(_get(9)), _jload(_get(12))]
        quote_text = _get(8)
        urls_set: set[str] = set()
        try:
            for d in dicts:
                if d is not None:
                    for k, v in d.items():
                        if k is not None and v is not None:
                            urls_set.add(v)
        except Exception:
            urls_set = set()
        if quote_text is not None:
            full_text = full_text + " " + quote_text
        return self._parse_body(full_text, urls_set)

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
        term_tfs = dict(Counter(tokens))  # first-occurrence order
        return ParsedDoc(
            tokens=tokens,
            term_tfs=term_tfs,
            doc_length=len(tokens),
            max_tf=max(term_tfs.values()),
            unique_terms=len(term_tfs),
            capitals=capitals,
            entities=entities,
        )

    # ------------------------------------------------------------- handlers
    def _hashtags(self, out, idx):                                      # P3
        toks = self._toks
        if len(toks) > idx + 1:
            parts = _HASHTAG_SPLIT.findall(toks[idx + 1])
            out.append((toks[idx] + toks[idx + 1]).lower())
            out.extend(p.lower() for p in parts)
            toks[idx + 1] = ""

    def _tags(self, out, idx):                                          # P4
        toks = self._toks
        if len(toks) > idx + 1:
            out.append((toks[idx] + toks[idx + 1]).lower())
            toks[idx + 1] = ""

    def _percent(self, out, idx):                                       # P5
        toks = self._toks
        if idx != 0:
            prev = toks[idx - 1]
            dash_idx = prev.find("-")
            if self._is_fraction(prev):
                number = prev
            else:
                number = self._to_float(prev)
            if number is not None:
                out.append(prev.lower() + "%")
            elif dash_idx != -1:
                left, right = prev[:dash_idx], prev[dash_idx + 1:]
                if left.isnumeric() and right.isnumeric():
                    out.append(prev.lower() + "%")

    def _number(self, out, idx, token):                                 # P6
        toks = self._toks
        number = self._to_float(token)
        if number is None:
            out.append(token.lower())
            return
        multiplier = 1
        if len(toks) > idx + 1:
            nxt = toks[idx + 1]
            if nxt in _PERCENT_WORDS:
                return
            nl = nxt.lower()
            if nl in ("thousand", "million", "billion"):
                multiplier = {"thousand": 1_000, "million": 1_000_000,
                              "billion": 1_000_000_000}[nl]
                toks[idx + 1] = ""
        number = number * multiplier
        kmb = ""
        if number >= 1_000_000_000:
            number /= 1_000_000_000
            kmb = "B"
        elif number >= 1_000_000:
            number /= 1_000_000
            kmb = "M"
        elif number >= 1_000:
            number /= 1_000
            kmb = "K"
        s = str(number)
        if "." in s:
            dot = s.index(".")
            integer, fraction = s[:dot], s[dot:dot + 4]
            s = integer if fraction == ".0" else integer + fraction
        out.append(s + kmb)

    @staticmethod
    def _to_float(s: str):                                              # P7
        if "," in s:
            s = s.replace(",", "")
        try:
            return float(s)
        except Exception:
            return None

    @staticmethod
    def _split_url(url):                                                # P8
        if url is None:
            return None
        r = _URL_SPLIT.split(url)
        if "twitter.com" in r or "t.co" in r:
            return []
        if len(r) > 3 and "www." in r[3]:
            r[3] = r[3][4:]
        return [x.lower() for x in r
                if x != "" and x != "https" and not x.startswith("#")]

    @staticmethod
    def _dashes(out, token):                                            # P12
        dash_idx = token.find("-")
        after = token[dash_idx + 1:].lower()
        if dash_idx > 0:
            out.append(token.lower())
            before = token[:dash_idx].lower()
            if before not in STOPWORDS:
                out.append(before)
            if after not in STOPWORDS:
                out.append(after)
        else:
            if after not in STOPWORDS:
                out.append(after)

    def _fraction(self, out, token, idx):                               # P13
        toks = self._toks
        slash = token.find("\\")
        if slash != -1:
            token = token[:slash] + "/" + token[slash + 1:]
        frac = str(Fraction(token))
        if idx == 0 and frac != token:
            out.append(frac.lower())
        else:
            # NOTE: idx==0 falls through here when frac == token and reads
            # toks[-1] — the reference's negative-indexing quirk, kept.
            number = self._to_float(toks[idx - 1])
            if number is not None:
                out.append((toks[idx - 1] + " " + token).lower())
                toks[idx] = ""
            elif token != frac:
                out.append(frac.lower())
                out.append(token.lower())
            else:
                out.append(token.lower())

    @staticmethod
    def _is_fraction(token: str) -> bool:
        return (_RIGHT_SLASH.match(token) is not None
                or _LEFT_SLASH.match(token) is not None)


def _classify(token: str, stemming: bool):
    """Walk the decision chain once for ``token``, store the entry in the
    memo of its stemming mode and return it.

    The entry is ``_STOP`` for a stopword or a 1-char non-Latin token,
    else ``(upper, kind, terms, cap_key, cap_flag)``: ``upper`` opens or
    extends an entity chunk; ``kind`` names the handler that reads a
    neighbour (0 for none); ``terms`` are the emitted terms and
    ``cap_key``/``cap_flag`` the capitals write (``cap_key`` None for no
    write) of a token with no such handler, and of 'https' when no URL
    token follows it.  Everything read here is the token, the stemming
    flag and module constants, so the entry is a pure function of
    (token, stemming).
    """
    tl = token.lower()
    if tl in STOPWORDS or (len(token) == 1 and ord(token) > 126):
        entry = _STOP
    else:
        kind, terms, cap_key, cap_flag = 0, (), None, False
        if token == "#":
            kind = _HASHTAG
        elif token == "@":
            kind = _MENTION
        elif ("/" in token or "\\" in token) and Parser._is_fraction(token):
            # (the fraction regexes require a slash — cheap pre-filter)
            kind = _FRACTION
        elif token in _PERCENT_WORDS:
            kind = _PERCENT
        elif token.isnumeric() or "," in token:
            kind = _NUMBER
        elif "-" in token and len(token) > 1:
            out: list[str] = []
            Parser._dashes(out, token)
            terms = tuple(out)
        else:
            if token == "https":
                # splices the URL token two ahead when there is one;
                # otherwise the rest of the chain below decides it
                kind = _HTTPS
            if token[-1] in _KBM and Parser._to_float(token[:-1]):
                terms = (token.upper(),)
            else:                                                       # P15
                word = token
                if stemming:
                    word = porter2.stem(token)
                    tl = word  # stem output is already lowercase
                cap_key, cap_flag = tl, word[:1].isupper()
                if tl not in STOPWORDS:
                    terms = (tl,)
        entry = (token[:1].isupper(), kind, terms, cap_key, cap_flag)
    memo = _CLASSIFY_MEMO[stemming]
    if len(memo) >= _CLASSIFY_MEMO_MAX:
        memo.clear()  # bound per-process memory
    memo[token] = entry
    return entry
