"""ResultCache lifecycle: salt envelopes, info accounting, pruning."""

import json
import os
import time

from repro.exec import ResultCache


def entry_paths(cache: ResultCache):
    return sorted(cache.root.rglob("*.json"))


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}

    def test_envelope_carries_salt_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("ab" * 32, [1, 2, 3])
        (path,) = entry_paths(cache)
        raw = json.loads(path.read_text())
        assert raw["__repro_cache__"] == 1
        assert raw["salt"] == "s1"
        assert raw["payload"] == [1, 2, 3]

    @staticmethod
    def _plant(cache, key, raw):
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(raw))
        return path

    def test_bare_dict_is_counted_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        path = self._plant(cache, "cd" * 32, {"legacy": True})
        assert cache.get("cd" * 32) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not path.exists()

    def test_bare_list_is_counted_miss_and_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        path = self._plant(cache, "ef" * 32, [1, 2])
        assert cache.get("ef" * 32) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not path.exists()

    def test_envelope_without_payload_is_counted_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        path = self._plant(cache, "ab" * 32, {"__repro_cache__": 1, "salt": "s1"})
        assert cache.get("ab" * 32) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not path.exists()

    def test_envelope_with_null_payload_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("ab" * 32, None)
        assert cache.get("ab" * 32) is None
        assert (cache.hits, cache.misses) == (1, 0)


class TestInfo:
    def test_empty_cache(self, tmp_path):
        info = ResultCache(tmp_path / "nope", salt="s1").info()
        assert info["entries"] == 0
        assert info["bytes"] == 0
        assert info["stale_entries"] == 0

    def test_per_salt_accounting(self, tmp_path):
        old = ResultCache(tmp_path, salt="old")
        old.put("aa" * 32, {"v": 1})
        old.put("bb" * 32, {"v": 2})
        new = ResultCache(tmp_path, salt="new")
        new.put("cc" * 32, {"v": 3})
        info = new.info()
        assert info["entries"] == 3
        assert info["stale_entries"] == 2
        assert info["salts"]["old"]["entries"] == 2
        assert info["salts"]["new"]["entries"] == 1
        assert info["bytes"] > 0

    def test_unversioned_entries_counted(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        path = cache.path_for("dd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"bare": 1}))
        info = cache.info()
        assert info["salts"]["(unversioned)"]["entries"] == 1
        assert info["stale_entries"] == 1


class TestPrune:
    def test_no_criteria_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("aa" * 32, {})
        assert cache.prune() == 0
        assert cache.get("aa" * 32) == {}

    def test_stale_only(self, tmp_path):
        ResultCache(tmp_path, salt="old").put("aa" * 32, {"v": 1})
        cache = ResultCache(tmp_path, salt="new")
        cache.put("bb" * 32, {"v": 2})
        assert cache.prune(stale_only=True) == 1
        assert cache.get("bb" * 32) == {"v": 2}
        assert cache.info()["stale_entries"] == 0

    def test_max_age(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("aa" * 32, {"old": True})
        (path,) = entry_paths(cache)
        stale_time = time.time() - 10 * 86400.0
        os.utime(path, (stale_time, stale_time))
        cache.put("bb" * 32, {"new": True})
        assert cache.prune(max_age_days=1.0) == 1
        assert cache.get("aa" * 32) is None
        assert cache.get("bb" * 32) == {"new": True}

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        now = time.time()
        for i, key in enumerate(["aa" * 32, "bb" * 32, "cc" * 32]):
            cache.put(key, {"i": i, "pad": "x" * 100})
            path = cache.path_for(key)
            os.utime(path, (now - (3 - i) * 1000, now - (3 - i) * 1000))
        total = cache.info()["bytes"]
        one_size = total // 3
        removed = cache.prune(max_bytes=total - one_size)
        assert removed >= 1
        # The newest entry always survives.
        assert cache.get("cc" * 32) is not None
        assert cache.get("aa" * 32) is None

    def test_max_bytes_zero_clears(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put("aa" * 32, {})
        cache.put("bb" * 32, {})
        assert cache.prune(max_bytes=0) == 2
        assert cache.info()["entries"] == 0

    def test_criteria_compose(self, tmp_path):
        ResultCache(tmp_path, salt="old").put("aa" * 32, {"v": 1})
        cache = ResultCache(tmp_path, salt="new")
        cache.put("bb" * 32, {"v": 2})
        (old_path, _) = entry_paths(cache)
        # stale + generous age: only the stale entry goes.
        assert cache.prune(stale_only=True, max_age_days=999.0) == 1
