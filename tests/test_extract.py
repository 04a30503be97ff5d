"""The input_hint gate: byte-identical extracted text per url
(BASELINE.json), and the token-stream golden (FIXTURES.md F5)."""

from search_engine_ray.text.extract import extract_text, wrap_html


def test_extraction_byte_identical_per_url(small_pages):
    htmls = small_pages.column("html").to_pylist()
    texts = small_pages.column("text").to_pylist()
    for h, t in zip(htmls, texts):
        assert extract_text(h) == t


def test_wrap_roundtrip_edge_payloads():
    for text in ["", "a", "nested <p>tags</p> inside", "newlines\n\nhere",
                 "latin-1 é ü ß", "trailing space ", "</p></body></html>"]:
        assert extract_text(wrap_html(text, "t0")) == text


def test_fallback_strips_tags():
    got = extract_text(b"<div><span>hello</span> <b>world</b></div>")
    assert got == "hello world"


def test_token_stream_golden_engine_vs_oracle(small_pages, small_oracle):
    """F5 golden: the oracle's parser (its config) over the ``text``
    column gives the exact token stream per url; a fresh engine-side
    Parser over the extracted html must reproduce it byte-for-byte
    (extraction + tokenization are deterministic)."""
    from search_engine_ray.text.parser import Parser

    t = small_pages.slice(0, 100)
    p = Parser()
    cfg = small_oracle.config
    want_p = Parser(stemming=cfg.stemming, tokenizer=cfg.tokenizer,
                    harvest_page_url=cfg.harvest_page_url,
                    raw_tokens=cfg.raw_tokens)
    checked = 0
    for url, html, text in zip(t.column("url").to_pylist(),
                               t.column("html").to_pylist(),
                               t.column("text").to_pylist()):
        d = p.parse_page(url, extract_text(html))
        want = want_p.parse_page(url, text)
        if want is not None:
            assert d.tokens == want.tokens, url
            checked += 1
    assert checked > 0
