"""Tests for URL parsing, query strings, and percent-encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.http.url import (
    Url,
    UrlError,
    decode_query,
    encode_query,
    parse_url,
    percent_decode,
    percent_encode,
)


class TestPercentEncoding:
    def test_unreserved_untouched(self):
        assert percent_encode("AZaz09-._~") == "AZaz09-._~"

    def test_space_and_specials(self):
        assert percent_encode("a b&c=d") == "a%20b%26c%3Dd"

    def test_safe_chars_kept(self):
        assert percent_encode("/a/b", safe="/") == "/a/b"

    def test_utf8(self):
        assert percent_encode("é") == "%C3%A9"

    def test_decode_basic(self):
        assert percent_decode("a%20b") == "a b"

    def test_decode_plus_as_space(self):
        assert percent_decode("a+b", plus_as_space=True) == "a b"
        assert percent_decode("a+b") == "a+b"

    def test_decode_malformed_escape_left_literal(self):
        assert percent_decode("100%") == "100%"
        assert percent_decode("%zz") == "%zz"
        assert percent_decode("%a") == "%a"

    @given(st.text(max_size=100))
    def test_roundtrip(self, text):
        assert percent_decode(percent_encode(text)) == text


class TestQueryStrings:
    def test_encode_pairs(self):
        assert encode_query([("a", "1"), ("b", "x y")]) == "a=1&b=x%20y"

    def test_memo_keeps_equal_values_of_other_types_apart(self):
        """``1 == 1.0 == True``, so a memo keyed on the raw pairs answered
        all three with whichever was encoded first."""
        from repro.http import url

        values = (1, 1.0, True)
        warm = [encode_query([("k", value)]) for value in values]
        cold = []
        for value in values:
            url._encode_query.cache_clear()
            cold.append(encode_query([("k", value)]))
        assert warm == cold == ["k=1", "k=1.0", "k=True"]

    def test_decode_preserves_order_and_duplicates(self):
        assert decode_query("a=1&a=2&b=3") == [("a", "1"), ("a", "2"), ("b", "3")]

    def test_decode_bare_key(self):
        assert decode_query("flag&a=1") == [("flag", ""), ("a", "1")]

    def test_decode_empty_segments(self):
        assert decode_query("&&a=1&&") == [("a", "1")]

    def test_decode_empty_string(self):
        assert decode_query("") == []

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=10), st.text(max_size=10)),
            max_size=10,
        )
    )
    def test_roundtrip(self, pairs):
        assert decode_query(encode_query(pairs)) == [(str(k), str(v)) for k, v in pairs]


class TestParseUrl:
    def test_basic(self):
        url = parse_url("https://www.example.com/a/b?x=1#frag")
        assert url.scheme == "https"
        assert url.host == "www.example.com"
        assert url.path == "/a/b"
        assert url.query == "x=1"
        assert url.fragment == "frag"

    def test_host_lowercased(self):
        assert parse_url("https://WWW.Example.COM/").host == "www.example.com"

    def test_default_path(self):
        assert parse_url("http://example.com").path == "/"

    def test_explicit_port(self):
        url = parse_url("http://example.com:8080/x")
        assert url.port == 8080
        assert url.effective_port == 8080

    def test_default_ports(self):
        assert parse_url("http://e.com/").effective_port == 80
        assert parse_url("https://e.com/").effective_port == 443

    def test_query_without_path(self):
        url = parse_url("https://e.com?q=1")
        assert url.path == "/"
        assert url.query == "q=1"

    def test_relative_url(self):
        url = parse_url("/a/b?x=1")
        assert not url.is_absolute
        assert url.path == "/a/b"

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "ftp://x.com/", "http://", "http://:80/", "http://e.com:bad/",
         "http://e.com:99999/", "http://user@e.com/", "//proto-relative.com/x"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(UrlError):
            parse_url(bad)

    def test_rejects_none(self):
        with pytest.raises(UrlError):
            parse_url(None)

    def test_str_roundtrip(self):
        raw = "https://e.com/a/b?x=1&y=2#z"
        assert str(parse_url(raw)) == raw

    def test_origin_elides_default_port(self):
        assert parse_url("https://e.com:443/x").origin == "https://e.com"
        assert parse_url("https://e.com:8443/x").origin == "https://e.com:8443"

    def test_origin_of_relative_raises(self):
        with pytest.raises(UrlError):
            parse_url("/x").origin

    def test_request_target(self):
        assert parse_url("https://e.com/a?b=1").request_target == "/a?b=1"
        assert parse_url("https://e.com").request_target == "/"


class TestJoin:
    BASE = parse_url("https://e.com/dir/page?q=1")

    def test_absolute_reference(self):
        assert str(self.BASE.join("http://other.com/x")) == "http://other.com/x"

    def test_protocol_relative(self):
        assert str(self.BASE.join("//cdn.com/y")) == "https://cdn.com/y"

    def test_absolute_path(self):
        assert str(self.BASE.join("/top?z=2")) == "https://e.com/top?z=2"

    def test_relative_path(self):
        assert str(self.BASE.join("sibling.js")) == "https://e.com/dir/sibling.js"

    def test_dotdot(self):
        assert str(self.BASE.join("../up.css")) == "https://e.com/up.css"

    def test_join_from_relative_base_raises(self):
        with pytest.raises(UrlError):
            parse_url("/rel").join("x")

    def test_query_pairs_helpers(self):
        url = parse_url("https://e.com/?a=1&b=2")
        assert url.query_pairs() == [("a", "1"), ("b", "2")]
        updated = url.with_query_pairs([("c", "3")])
        assert updated.query == "c=3"
