"""Content-addressed LRU cache: eviction order, accounting, thread safety."""

import threading

import pytest

from repro.service.app import ScheduleCache


class TestScheduleCache:
    def test_miss_then_hit(self):
        cache = ScheduleCache(capacity=4)
        assert cache.get("d1") is None
        cache.put("d1", b"body1")
        assert cache.get("d1") == b"body1"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", b"A")
        cache.put("b", b"B")
        assert cache.get("a") == b"A"   # refreshes a's recency
        cache.put("c", b"C")            # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == b"A"
        assert cache.get("c") == b"C"
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_repeated_put_is_idempotent(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", b"A")
        cache.put("a", b"A")
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)

    def test_cache_dir_is_gone(self, tmp_path):
        # The cache lives in process memory only: no journal to replay.
        with pytest.raises(TypeError):
            ScheduleCache(8, cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_stats_shape(self):
        cache = ScheduleCache(capacity=3)
        cache.put("a", b"A")
        cache.get("a")
        cache.get("zz")
        stats = cache.stats()
        assert stats == {"size": 1, "capacity": 3, "hits": 1,
                         "misses": 1, "evictions": 0}

    def test_concurrent_access_keeps_accounting_consistent(self):
        cache = ScheduleCache(capacity=8)
        n_threads, n_ops = 8, 200

        def worker(k: int) -> None:
            for i in range(n_ops):
                digest = f"d{(k + i) % 16}"
                if cache.get(digest) is None:
                    cache.put(digest, digest.encode())

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 8
        assert cache.hits + cache.misses == n_threads * n_ops
        # Every stored body still matches its digest.
        for digest in list(cache._data):
            assert cache._data[digest] == digest.encode()


class TestInMemoryLru:
    """What the in-memory LRU promises: recency from hits and re-puts,
    survivors at every capacity, no state shared between instances and
    nothing written to disk."""

    def test_hit_refreshes_eviction_order(self):
        cache = ScheduleCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.encode())
        assert cache.get("a") == b"a"   # a is now the most recent
        cache.put("d", b"d")            # evicts b, not a
        assert cache.get("b") is None
        assert [cache.get(k) for k in ("a", "c", "d")] == [b"a", b"c", b"d"]

    def test_repeated_put_refreshes_recency(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", b"A")
        cache.put("b", b"B")
        cache.put("a", b"A")            # a is now the most recent
        cache.put("c", b"C")            # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == b"A" and cache.get("c") == b"C"
        assert cache.evictions == 1

    def test_miss_leaves_order_and_size_alone(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", b"A")
        cache.put("b", b"B")
        assert cache.get("zz") is None
        cache.put("c", b"C")            # a is still the oldest
        assert cache.get("a") is None and cache.get("b") == b"B"
        assert len(cache) == 2

    @pytest.mark.parametrize("capacity", [1, 2, 3, 5, 8])
    def test_survivors_are_the_most_recent(self, capacity):
        cache = ScheduleCache(capacity=capacity)
        keys = [f"k{i}" for i in range(capacity + 4)]
        for key in keys:
            cache.put(key, key.encode())
        assert len(cache) == capacity
        assert cache.evictions == 4
        assert list(cache._data) == keys[4:]
        assert all(cache.get(k) is None for k in keys[:4])

    def test_fresh_instance_starts_cold(self):
        first = ScheduleCache(capacity=4)
        first.put("a", b"A")
        second = ScheduleCache(capacity=4)
        assert second.get("a") is None
        assert second.stats() == {"size": 0, "capacity": 4, "hits": 0,
                                  "misses": 1, "evictions": 0}

    def test_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ScheduleCache(capacity=1)
        cache.put("a", b"A")
        cache.put("b", b"B")            # one eviction
        cache.get("b")
        assert list(tmp_path.iterdir()) == []

    def test_stats_is_a_snapshot(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", b"A")
        before = cache.stats()
        cache.get("a")
        cache.put("b", b"B")
        assert before == {"size": 1, "capacity": 2, "hits": 0,
                          "misses": 0, "evictions": 0}
        assert cache.stats()["hits"] == 1 and cache.stats()["size"] == 2

    def test_concurrent_puts_count_every_eviction(self):
        cache = ScheduleCache(capacity=5)
        n_threads, n_keys = 6, 50

        def worker(k: int) -> None:
            for i in range(n_keys):
                cache.put(f"t{k}-{i}", b"x")

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 5
        assert cache.evictions == n_threads * n_keys - 5
