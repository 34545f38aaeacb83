import json
import os

import pytest

from superjac import cache as cache_mod
from superjac.cache import ResultCache, canonical
from superjac.errors import CacheMismatch


def test_canonical_is_stable() -> None:
    a = canonical({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    b = canonical({"a": [2, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert a == '{"a":[2,{"y":1,"z":0}],"b":1}'


def test_miss_then_hit(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return [0, {"value": 7}]

    first = cache.get_or_compute("op", {"x": 1}, compute)
    second = cache.get_or_compute("op", {"x": 1}, compute)
    assert first == second == [0, {"value": 7}]
    assert len(calls) == 1
    assert cache.misses == 1 and cache.hits == 1


def test_distinct_params_distinct_entries(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])
    got = cache.get_or_compute("op", {"x": 2}, lambda: [0, {"v": 2}])
    assert got == [0, {"v": 2}]
    assert cache.misses == 2


def test_on_disk_layout(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])
    files = list(tmp_path.rglob("*.json"))
    assert len(files) == 1
    # two-level fanout: root/hh/<sha256>.json, no leftover temp files
    assert files[0].parent.name == files[0].name[:2]
    assert not list(tmp_path.rglob("tmp*"))
    doc = json.loads(files[0].read_text())
    assert doc["op"] == "op"
    assert doc["params"] == {"x": 1}
    assert doc["result"] == [0, {"v": 1}]


def test_key_echo_detects_foreign_document(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])
    path = next(tmp_path.rglob("*.json"))
    doc = json.loads(path.read_text())
    doc["key"] = "other|{}|v1"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheMismatch):
        cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])


def test_verify_mode_recomputes_and_compares(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])

    checker = ResultCache(tmp_path, verify=True)
    ok = checker.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])
    assert ok == [0, {"v": 1}]
    with pytest.raises(CacheMismatch):
        checker.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 2}])


def test_failed_compute_writes_nothing(tmp_path) -> None:
    cache = ResultCache(tmp_path)

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        cache.get_or_compute("op", {"x": 1}, boom)
    assert not list(tmp_path.rglob("*"))

    # and the entry is still computable afterwards
    got = cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 3}])
    assert got == [0, {"v": 3}]


def test_corrupt_json_is_an_error(tmp_path) -> None:
    cache = ResultCache(tmp_path)
    cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])
    path = next(tmp_path.rglob("*.json"))
    path.write_text("{truncated")
    with pytest.raises(CacheMismatch):
        cache.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])


def test_key_follows_the_code(tmp_path, monkeypatch) -> None:
    ResultCache(tmp_path).get_or_compute("op", {"x": 1}, lambda: [0, {"v": 1}])

    # same sources: the stored entry is served
    same = ResultCache(tmp_path)
    assert same.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 9}]) \
        == [0, {"v": 1}]
    assert (same.hits, same.misses) == (1, 0)

    # changed sources: a miss, computed afresh by the new code
    real = cache_mod.code_version()
    monkeypatch.setattr(cache_mod, "code_version", lambda: real + "x")
    changed = ResultCache(tmp_path)
    assert changed.get_or_compute("op", {"x": 1}, lambda: [0, {"v": 2}]) \
        == [0, {"v": 2}]
    assert (changed.hits, changed.misses) == (0, 1)
