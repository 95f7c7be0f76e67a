"""b-file parsing, the cache/fixture/network ladder, and sequence comparison."""

import os

import pytest

from binomod2 import oeis_client
from binomod2.errors import BadId, GapError, NetworkError, OfflineMiss, ParseError
from binomod2.oeis_client import (
    BFile,
    compare,
    default_cache_dir,
    fetch_bfile,
    normalize_anumber,
    parse_bfile,
)
from binomod2.registry import builtin_entries, lookup

FIXTURE_IDS = [
    "A001316", "A246028", "A245195", "A106737", "A245564", "A000012",
    "A000079", "A000045", "A011782", "A040000", "A000027", "A000930",
    "A008619", "A000032",
]


class TestNormalize:
    def test_accepts_case_variants(self):
        assert normalize_anumber("a001316") == "A001316"
        assert normalize_anumber(" A000045 ") == "A000045"

    def test_rejects_malformed_ids(self):
        for bad in ("A1316", "A0013167", "001316", "B001316", "", "A00131x"):
            with pytest.raises(BadId):
                normalize_anumber(bad)


class TestParse:
    def test_basic(self):
        b = parse_bfile("0 1\n1 2\n2 4\n", "A000079")
        assert b.anumber == "A000079"
        assert b.first_index == 0
        assert b.values() == [1, 2, 4]
        assert b.value_at(2) == 4
        assert b.value_at(3) is None
        assert b.value_at(-1) is None

    def test_comments_blanks_and_bytes(self):
        b = parse_bfile(b"# header\n\n5 10\n6 12\n# trailing\n")
        assert b.entries == ((5, 10), (6, 12))

    def test_gap_reports_line_number(self):
        with pytest.raises(GapError) as exc:
            parse_bfile("0 1\n2 4\n")
        assert exc.value.line_no == 2

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse_bfile("0 1 9\n")
        with pytest.raises(ParseError):
            parse_bfile("zero 1\n")
        with pytest.raises(ParseError):
            parse_bfile(b"\xff\xfe\x00 binary")

    def test_empty_input(self):
        b = parse_bfile("")
        assert b.entries == ()
        with pytest.raises(ValueError):
            b.first_index


class TestBFile:
    def test_contiguity_enforced_at_construction(self):
        with pytest.raises(GapError):
            BFile("A000001", ((0, 1), (2, 1)))

    def test_id_validated(self):
        with pytest.raises(BadId):
            BFile("nope", ((0, 1),))


class TestFetch:
    def test_packaged_fixtures_resolve_offline(self, tmp_path):
        for aid in FIXTURE_IDS:
            b = fetch_bfile(aid, cache_dir=str(tmp_path), offline=True)
            assert b.anumber == aid
            assert len(b.entries) >= 101

    def test_offline_miss(self, tmp_path):
        with pytest.raises(OfflineMiss):
            fetch_bfile("A999999", cache_dir=str(tmp_path), offline=True)

    def test_bad_id_raises_before_any_io(self, tmp_path):
        def explode(url):
            raise AssertionError("network touched")

        with pytest.raises(BadId):
            fetch_bfile("A12", cache_dir=str(tmp_path), fetch_fn=explode)

    def test_network_bytes_cached_verbatim(self, tmp_path):
        payload = b"# server comment\n0 7\n1 9\n"
        calls = []

        def fake_fetch(url):
            calls.append(url)
            return payload

        b1 = fetch_bfile("A999998", cache_dir=str(tmp_path), fetch_fn=fake_fetch)
        assert b1.values() == [7, 9]
        assert calls == ["https://oeis.org/A999998/b999998.txt"]
        cached = tmp_path / "A999998.txt"
        assert cached.read_bytes() == payload
        assert not (tmp_path / "A999998.txt.part").exists()
        # second call is served from disk, no fetch
        b2 = fetch_bfile("A999998", cache_dir=str(tmp_path), fetch_fn=fake_fetch)
        assert b2 == b1
        assert len(calls) == 1

    def test_fetch_failures_wrapped(self, tmp_path):
        def boom(url):
            raise OSError("connection refused")

        with pytest.raises(NetworkError):
            fetch_bfile("A999997", cache_dir=str(tmp_path), fetch_fn=boom,
                        sleep_fn=lambda dt: None)

    def test_requests_are_spaced_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oeis_client, "_last_fetch", [])
        t = [100.0]
        naps = []

        def clock():
            return t[0]

        def sleep(dt):
            naps.append(dt)
            t[0] += dt

        def fake_fetch(url):
            t[0] += 0.25
            return b"0 1\n"

        fetch_bfile("A999996", cache_dir=str(tmp_path),
                    fetch_fn=fake_fetch, sleep_fn=sleep, clock=clock)
        assert naps == []  # first request goes straight through
        fetch_bfile("A999995", cache_dir=str(tmp_path),
                    fetch_fn=fake_fetch, sleep_fn=sleep, clock=clock)
        assert len(naps) == 1
        assert naps[0] == pytest.approx(1.0)

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(oeis_client.CACHE_ENV_VAR, str(tmp_path / "alt"))
        assert default_cache_dir() == str(tmp_path / "alt")
        monkeypatch.delenv(oeis_client.CACHE_ENV_VAR)
        assert default_cache_dir().endswith(os.path.join(".cache", "binomod2", "oeis"))


class TestCompare:
    def test_full_match(self, tmp_path):
        entry = lookup("fib")
        b = fetch_bfile(entry.oeis_transform, cache_dir=str(tmp_path), offline=True)
        computed = entry.rules.first_terms(500)
        res = compare(b, computed)
        assert res.ok
        assert res.matched == 500
        assert "500 terms match" in res.describe()

    def test_empty_computed(self, tmp_path):
        b = fetch_bfile("A000045", cache_dir=str(tmp_path), offline=True)
        assert compare(b, []).matched == 0

    def test_minimal_mismatch_reported(self, tmp_path):
        b = fetch_bfile("A106737", cache_dir=str(tmp_path), offline=True)
        wrong = lookup("pow2").rules.first_terms(64)
        res = compare(b, wrong)
        assert not res.ok
        assert res.mismatch_index == 3
        assert (res.computed_value, res.bfile_value) == (4, 3)
        assert "mismatch at index 3 (4 vs 3)" in res.describe()
        assert res.matched == 3

    def test_offset_defaults_to_bfile_first_index(self, tmp_path):
        b = fetch_bfile("A000027", cache_dir=str(tmp_path), offline=True)
        assert b.first_index == 1
        res = compare(b, [1, 2, 3, 4, 5])
        assert res.ok and res.matched == 5

    def test_explicit_offset_for_shifted_base(self, tmp_path):
        # fib base S(l) = A000045(l + 1)
        b = fetch_bfile("A000045", cache_dir=str(tmp_path), offline=True)
        base = lookup("fib").base
        res = compare(b, base.terms(40), offset=1)
        assert res.ok and res.matched == 40

    def test_positions_beyond_bfile_are_skipped(self):
        b = parse_bfile("0 1\n1 1\n", "A000001")
        res = compare(b, [1, 1, 999, 999])
        assert res.ok
        assert res.matched == 2


def test_every_cited_id_has_a_fixture():
    cited = set()
    for e in builtin_entries():
        cited.update(x for x in (e.oeis_sequence, e.oeis_transform) if x)
    assert cited <= set(FIXTURE_IDS)
