"""CRC-framed journal lines and ``--cache-dir`` recovery: torn writes,
bit flips, duplicated ops, zero-byte files, legacy checksum-less
journals — a journal must never poison a restart, only shrink it."""

import json
import math

import pytest

from repro.io.json_io import journal_decode, journal_encode
from repro.service.app import ScheduleCache


class TestJournalFraming:
    def test_round_trip(self):
        row = {"op": "put", "digest": "d1", "body": "{\"x\": 1}"}
        line = journal_encode(row)
        assert journal_decode(line) == row

    def test_crc_rejects_bit_flip(self):
        line = journal_encode({"op": "put", "digest": "d1", "body": "abc"})
        flipped = line.replace("abc", "abd")
        assert journal_decode(flipped) is None

    def test_torn_line_rejected(self):
        line = journal_encode({"op": "cell", "k": "x", "r": [1, 2, 3]})
        assert journal_decode(line[: len(line) // 2]) is None

    def test_legacy_bare_rows_accepted(self):
        legacy = json.dumps({"op": "touch", "digest": "d9"})
        assert journal_decode(legacy) == {"op": "touch", "digest": "d9"}

    def test_non_dict_rejected(self):
        assert journal_decode("[1, 2, 3]") is None
        assert journal_decode("42") is None
        assert journal_decode("") is None
        assert journal_decode('{"crc": 1}') is None

    def test_wrong_crc_rejected(self):
        row = {"op": "done", "call": "c", "n": 3}
        bad = json.dumps({"crc": 12345, "row": row})
        assert journal_decode(bad) is None

    def test_float_bodies_round_trip_exactly(self):
        row = {"op": "cell", "k": "k", "r": [0.1, 1e-17, 2.0 ** 53]}
        assert journal_decode(journal_encode(row)) == row


class TestJournalValues:
    """Journal rows are plain JSON: every scalar the cache stores comes
    back with its value and type, and values JSON cannot carry exactly
    are refused at write time rather than replayed differently."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 2 ** 62, "", "blue", 0.0, -1.5,
        0.1 + 0.2, 1e-308, 1.7976931348623157e308,
    ])
    def test_scalar_exact(self, value):
        out = journal_decode(journal_encode({"op": "put", "v": value}))
        assert out["v"] == value and type(out["v"]) is type(value)

    def test_floats_bit_exact(self):
        for x in [3.141592653589793, 1 / 3, 2 ** -1074]:
            out = journal_decode(journal_encode({"op": "put", "v": x}))
            assert out["v"].hex() == x.hex()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_refused(self, value):
        with pytest.raises(ValueError):
            journal_encode({"op": "put", "v": value})

    def test_non_string_keys_are_stringified(self):
        # canonical JSON coerces int keys, so the CRC covers what replay
        # will actually see
        out = journal_decode(journal_encode({"op": "put", "v": {1: "x"}}))
        assert out["v"] == {"1": "x"}

    def test_unicode_body(self):
        row = {"op": "put", "digest": "d", "body": "naïve — 図 \u0000"}
        assert journal_decode(journal_encode(row)) == row

    def test_encoding_is_canonical(self):
        a = journal_encode({"op": "put", "digest": "d", "body": "b"})
        b = journal_encode({"body": "b", "digest": "d", "op": "put"})
        assert a == b and "\n" not in a
        assert json.loads(a)["crc"] == json.loads(b)["crc"]

    def test_every_truncation_is_rejected(self):
        line = journal_encode({"op": "put", "digest": "d1",
                               "body": "{\"makespan\":4.5}"})
        for cut in range(len(line)):
            assert journal_decode(line[:cut]) is None, cut

    def test_every_single_character_edit_inside_the_row_is_caught(self):
        row = {"op": "put", "digest": "d1", "body": "abc123"}
        line = journal_encode(row)
        start = line.index('"row":') + len('"row":')
        for i in range(start, len(line) - 1):
            if line[i] in '{}":,':
                continue   # structural: fails the parse or moves a key
            edited = line[:i] + ("x" if line[i] != "x" else "y") + \
                line[i + 1:]
            assert journal_decode(edited) is None, i


def _put_some(cache_dir, items):
    cache = ScheduleCache(8, cache_dir=str(cache_dir))
    for digest, body in items:
        cache.put(digest, body)
    cache.close()


class TestCacheDirRecovery:
    def test_new_journal_is_crc_framed_and_replays(self, tmp_path):
        _put_some(tmp_path, [("d1", b"one"), ("d2", b"two")])
        journal = tmp_path / "cache.jsonl"
        for line in journal.read_text().splitlines():
            assert "crc" in json.loads(line)
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert cache.get("d1") == b"one"
        assert cache.get("d2") == b"two"
        cache.close()

    def test_mid_line_truncation_drops_only_that_entry(self, tmp_path):
        _put_some(tmp_path, [("d1", b"one"), ("d2", b"two")])
        journal = tmp_path / "cache.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert cache.get("d1") == b"one"
        assert cache.get("d2") is None       # torn entry simply re-misses
        cache.close()

    def test_duplicated_put_and_touch_lines(self, tmp_path):
        _put_some(tmp_path, [("d1", b"one")])
        journal = tmp_path / "cache.jsonl"
        line = journal.read_text()
        touch = journal_encode({"op": "touch", "digest": "d1"}) + "\n"
        ghost_touch = journal_encode({"op": "touch", "digest": "nope"}) + "\n"
        journal.write_text(line + line + touch + ghost_touch + line)
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert len(cache) == 1
        assert cache.get("d1") == b"one"
        assert cache.get("nope") is None
        cache.close()

    def test_zero_byte_journal(self, tmp_path):
        (tmp_path / "cache.jsonl").touch()
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert len(cache) == 0
        cache.put("d1", b"one")
        cache.close()
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert cache.get("d1") == b"one"
        cache.close()

    def test_legacy_checksumless_journal_still_replays(self, tmp_path):
        journal = tmp_path / "cache.jsonl"
        journal.write_text(
            json.dumps({"op": "put", "digest": "old", "body": "legacy"})
            + "\n"
            + json.dumps({"op": "touch", "digest": "old"}) + "\n")
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        assert cache.get("old") == b"legacy"
        cache.close()
        # ... and the compacted rewrite upgrades it to CRC framing
        cache = ScheduleCache(8, cache_dir=str(tmp_path))
        cache.close()
        first = (tmp_path / "cache.jsonl").read_text().splitlines()[0]
        assert "crc" in json.loads(first)

    def test_compaction_preserves_entries(self, tmp_path):
        cache = ScheduleCache(2, cache_dir=str(tmp_path))
        for k in range(40):          # evictions + touches grow the journal
            cache.put(f"d{k}", f"body{k}".encode())
            cache.get(f"d{k}")
        cache.close()
        cache = ScheduleCache(2, cache_dir=str(tmp_path))
        assert cache.get("d39") == b"body39"
        assert cache.get("d38") == b"body38"
        assert cache.get("d0") is None        # evicted long ago
        cache.close()
