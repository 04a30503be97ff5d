"""Word tokenization.

The reference tokenizes with ``nltk.tokenize.word_tokenize`` (punkt
sentence split + Treebank word tokenizer, /root/reference/parser_module.py:48).
nltk is not installed in this environment, so we vendor a deterministic
Treebank-style tokenizer implemented from the published Penn Treebank
tokenizer rules (the classic ``tokenizer.sed`` behavior, public domain, as
also documented by NLTK's TreebankWordTokenizer docs).  Both the Ray engine
and the single-process test oracle call this same function — it is the
single source of truth for token streams (SURVEY.md §7 step 3).

Behavioral anchors that the downstream parser relies on:
- ``#CovidIsReal`` -> ``['#', 'CovidIsReal']`` (hashtag handler, P3)
- ``@user12``     -> ``['@', 'user12']`` (mention handler, P4)
- ``50%``         -> ``['50', '%']`` (percent handler, P5)
- ``https://t.co/x`` -> ``['https', ':', '//t.co/x']`` (https splice, P19)
- ``68,800`` stays one token (comma-before-digit is not split)
- sentence-final periods detach; ``3.5`` keeps its dot

A second, deliberately simple tokenizer (`simple_tokenize`) splits on
non-alphanumeric runs after lowercasing; it exists so that index pipelines
can be validated value-for-value against a DuckDB SQL oracle
(``regexp_split_to_array(lower(text), '[^a-z0-9]+')``).
"""

from __future__ import annotations

import re

# --- Treebank-style rules (applied per sentence, in order) -----------------

_STARTING_QUOTES = [
    (re.compile(r"^\""), r"``"),
    (re.compile(r"(``)"), r" \1 "),
    (re.compile(r"([ \(\[{<])(\"|\'{2})"), r"\1 `` "),
]

_PUNCTUATION = [
    (re.compile(r"([:,])([^\d])"), r" \1 \2"),
    (re.compile(r"([:,])$"), r" \1 "),
    (re.compile(r"\.\.\."), r" ... "),
    (re.compile(r"[;@#$%&]"), r" \g<0> "),
    # sentence-final period (possibly followed by closing brackets/quotes)
    (re.compile(r"([^\.])(\.)([\]\)}>\"\']*)\s*$"), r"\1 \2\3 "),
    (re.compile(r"[?!]"), r" \g<0> "),
    (re.compile(r"([^'])' "), r"\1 ' "),
]

_PARENS_BRACKETS = [
    (re.compile(r"[\]\[\(\)\{\}<>]"), r" \g<0> "),
    (re.compile(r"--"), r" -- "),
]

_ENDING_QUOTES = [
    (re.compile(r'"'), " '' "),
    (re.compile(r"(\S)(\'\')"), r"\1 \2 "),
]

_CONTRACTIONS2 = re.compile(r"(?i)([^' ])('[smd]|') ")
_CONTRACTIONS3 = re.compile(r"(?i)([^' ])('ll|'re|'ve|n't) ")

# MacIntyre word-level contraction splits from the published tokenizer.sed
# rules (NLTK's CONTRACTIONS2/CONTRACTIONS3 lists): cannot -> can not,
# gonna -> gon na, 'tis -> 't is, ... — the reference's word_tokenize
# applies these, and 'can'/'not' etc. are stopwords downstream
_CONTRACTIONS_WORD = [
    re.compile(r"(?i)\b(can)(not)\b"),
    re.compile(r"(?i)\b(d)('ye)\b"),
    re.compile(r"(?i)\b(gim)(me)\b"),
    re.compile(r"(?i)\b(gon)(na)\b"),
    re.compile(r"(?i)\b(got)(ta)\b"),
    re.compile(r"(?i)\b(lem)(me)\b"),
    re.compile(r"(?i)\b(mor)('n)\b"),  # NLTK MacIntyre: mor'n, not more'n
    re.compile(r"(?i)\b(wan)(na)\s"),
]
_CONTRACTIONS_TIS = [
    re.compile(r"(?i) ('t)(is)\b"),
    re.compile(r"(?i) ('t)(was)\b"),
]
# cheap screen: the split regexes above cost ~2x tokenizer time if run on
# every sentence; C-level substring checks (10x faster than a regex
# alternation scan here) skip them for the ~99% of docs containing none
# of these rare words
_CONTRACTION_SUBSTR = ("cannot", "gimme", "gonna", "gotta", "lemme",
                       "mor'n", "d'ye", "wanna", "'tis", "'twas")


def _has_contraction(text: str) -> bool:
    low = text.lower()
    return any(s in low for s in _CONTRACTION_SUBSTR)

# Light punkt stand-in: split after .!? (optionally followed by a closing
# quote/bracket) then whitespace.  The fixtures control text shapes
# (FIXTURES.md §F1) so abbreviation handling is unnecessary; what matters
# is that mid-text sentence-final periods detach the same way
# punkt+treebank detaches them — including 'things."' forms.
_SENT_SPLIT = re.compile(r"(?:(?<=[.!?])|(?<=[.!?][\"')\]]))\s+")


# Each rule pass is guarded by the substring(s) a match REQUIRES: if no
# trigger is present in the CURRENT text, the regex cannot match and the
# pass is the identity — one C-level memchr scan replaces a regex scan.
# Guards are evaluated sequentially on the evolving text (an earlier pass
# may insert a later pass's trigger, e.g. `"` -> ` '' ` feeds (\S)('')),
# so skipping is exact, not approximate.  Measured ~2x on the tokenizer
# for plain prose, which is most of a web corpus.
_MAIN_SEQ = (
    [(p, s, ('"',) if i == 0 else ("``",) if i == 1 else ('"', "''"))
     for i, (p, s) in enumerate(_STARTING_QUOTES)]
    + [(p, s, t) for (p, s), t in zip(_PUNCTUATION, [
        (":", ","), (":", ","), ("...",),
        (";", "@", "#", "$", "%", "&"), (".",), ("?", "!"), ("'",)])]
    + [(p, s, t) for (p, s), t in zip(_PARENS_BRACKETS, [
        tuple("[](){}<>"), ("--",)])]
)
_END_SEQ = [(p, s, t) for (p, s), t in zip(_ENDING_QUOTES, [
    ('"',), ("''",)])]


def _treebank_sentence(sent: str, split_contractions: bool) -> list[str]:
    text = sent
    for pat, sub, trig in _MAIN_SEQ:
        for t in trig:
            if t in text:
                text = pat.sub(sub, text)
                break
    text = " " + text + " "
    for pat, sub, trig in _END_SEQ:
        for t in trig:
            if t in text:
                text = pat.sub(sub, text)
                break
    if "'" in text:
        text = _CONTRACTIONS2.sub(r"\1 \2 ", text)
        text = _CONTRACTIONS3.sub(r"\1 \2 ", text)
    if split_contractions and _has_contraction(text):
        for pat in _CONTRACTIONS_WORD:
            text = pat.sub(r" \1 \2 ", text)
        for pat in _CONTRACTIONS_TIS:
            text = pat.sub(r" \1 \2 ", text)
    return text.split()


def treebank_tokenize(text: str) -> list[str]:
    """Tokenize `text` into Treebank-style word tokens."""
    # doc-level screen: the MacIntyre words are rare; one scan here skips
    # the per-sentence split work for ~99% of docs
    has_contr = _has_contraction(text)
    # both split lookbehinds need a '.', '!' or '?'; most docs have none
    sents = (_SENT_SPLIT.split(text)
             if "." in text or "!" in text or "?" in text else (text,))
    out: list[str] = []
    for sent in sents:
        if sent:
            out.extend(_treebank_sentence(sent, has_contr))
    return out


# --- Simple tokenizer (SQL-oracle-checkable) -------------------------------

_SIMPLE_SPLIT = re.compile(r"[^a-z0-9]+")


def simple_tokenize(text: str) -> list[str]:
    """Lowercase, split on non-[a-z0-9] runs, drop empties.

    Mirrors DuckDB ``regexp_split_to_array(lower(text), '[^a-z0-9]+')``
    with empties removed, so pipelines built on it are SQL-verifiable.
    """
    return [t for t in _SIMPLE_SPLIT.split(text.lower()) if t]


def get_tokenizer(name: str):
    if name == "treebank":
        return treebank_tokenize
    if name == "simple":
        return simple_tokenize
    raise ValueError(f"unknown tokenizer: {name!r}")
