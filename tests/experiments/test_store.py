"""ResultStore validation: keys()/len must agree with get(), prune()
must delete exactly what get() would reject, and put() must write
canonical entries atomically.

Regression context: keys() used to count every ``??/*.json`` file —
corrupt entries, foreign files, misfiled buckets — so occupancy
reports (``--shard-status`` totals) overstated the cache.  Now an
entry only counts when a get() would actually serve it.
"""

import json

from repro.experiments.scenarios import RunConfig
from repro.experiments.store import ResultStore, shard_key
from repro.util.encoding import canonical_json, json_roundtrip


def _populate(store: ResultStore, count: int) -> tuple[list[str], dict]:
    config = RunConfig(exp_id="X", tier="smoke", seed=0, params={})
    payloads = {}
    for i in range(count):
        key = shard_key(config, {"cell": i}, 1)
        store.put(key, {"value": i})
        payloads[key] = {"value": i}
    return sorted(payloads), payloads


class TestKeysValidation:
    def test_valid_entries_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        keys, _ = _populate(store, 4)
        assert store.keys() == keys
        assert len(store) == 4

    def test_missing_root_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope")
        assert store.keys() == [] and len(store) == 0

    def test_corrupt_entries_do_not_count(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        keys, _ = _populate(store, 3)
        # Truncated JSON in place of a valid entry.
        store.path_for(keys[0]).write_text("{not json")
        # Valid JSON, wrong shape.
        store.path_for(keys[1]).write_text("[]")
        assert store.keys() == keys[2:]
        assert len(store) == 1

    def test_foreign_files_do_not_count(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        keys, _ = _populate(store, 2)
        bucket = store.path_for(keys[0]).parent
        # A foreign JSON file whose name is no entry key.
        (bucket / "README.json").write_text(json.dumps({"hi": 1}))
        # An entry copied into the wrong bucket directory.
        wrong = store.root / ("zz" if keys[0][:2] != "zz" else "yy")
        wrong.mkdir()
        (wrong / f"{keys[0]}.json").write_text(
            store.path_for(keys[0]).read_text()
        )
        # An entry whose payload claims a different key than its name.
        entry = json.loads(store.path_for(keys[0]).read_text())
        entry["key"] = "0" * 64
        (bucket / ("f" * 64 + ".json")).write_text(json.dumps(entry))
        assert store.keys() == keys
        assert len(store) == 2


class TestPrune:
    def test_prune_deletes_only_invalid(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        keys, payloads = _populate(store, 3)
        store.path_for(keys[0]).write_text("garbage")
        bucket = store.path_for(keys[1]).parent
        (bucket / "foreign.json").write_text("{}")
        (bucket / ".deadbeef-leftover.tmp").write_text("partial write")
        removed = store.prune()
        assert len(removed) == 3
        assert store.keys() == keys[1:]
        assert store.get(keys[1]) == payloads[keys[1]]
        assert store.get(keys[2]) == payloads[keys[2]]
        assert not (bucket / ".deadbeef-leftover.tmp").exists()

    def test_prune_is_idempotent_and_cheap_on_valid_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        keys, _ = _populate(store, 4)
        assert store.prune() == []
        assert store.keys() == keys

    def test_prune_missing_root(self, tmp_path):
        assert ResultStore(tmp_path / "nope").prune() == []


class TestPut:
    def test_round_trip_gives_identical_canonical_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        [key], _ = _populate(store, 1)
        data = {"b": [1, 2.5, None, "x"], "a": {"z": [True, {"k": 3}]}}
        store.put(key, data, meta={"exp": "X"})
        assert canonical_json(store.get(key)) == canonical_json(data)
        assert store.get(key) == json_roundtrip(data)
        # Re-putting what was read back reproduces the file byte for
        # byte, and the atomic write leaves no temp file behind.
        first = store.path_for(key).read_bytes()
        store.put(key, store.get(key), meta={"exp": "X"})
        assert store.path_for(key).read_bytes() == first
        assert store.stray_files() == []

    def test_corrupt_entry_is_overwritten_not_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        [key], payloads = _populate(store, 1)
        store.path_for(key).write_text("{truncated")
        assert store.get(key) is None
        store.put(key, payloads[key])
        assert store.get(key) == payloads[key]
