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

This module is pure Python and deterministic; it is shared by the Ray
engine (inside parser actors) and the single-process test oracle.
"""

from __future__ import annotations

import re
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
# the only all-alpha strings float() accepts (lowercase forms; the fast
# path below is lowercase-only) — 'nank' etc. are kbm shorthand
_FLOAT_WORDS = frozenset({"nan", "inf", "infinity"})
_PERCENT_WORDS = ("%", "percent", "percentage")


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
        self.stop_words = STOPWORDS
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
            # 'https' which are excluded here.  Behavior is
            # byte-identical to the general loop below (seeded
            # differential test against a copy without this branch,
            # tests/test_parser.py).
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

    def _append(self, out, capitals, token, tl=None):                   # P15
        if tl is None:
            tl = token.lower()
        if len(token) > 0 and token[0].isupper():
            capitals[tl] = True
        else:
            capitals[tl] = False
        if tl not in self.stop_words:
            out.append(tl)
