"""Tests for repro.core.config."""

import pytest

from repro.core.config import EngineConfig
from repro.storage.disk_model import DISK_PRESETS


class TestDefaults:
    def test_default_config_is_valid(self):
        config = EngineConfig()
        assert config.k == 10
        assert config.max_resident_partitions == 2
        assert config.heuristic == "sequential"

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.k = 5


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            EngineConfig(k=0)

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            EngineConfig(num_partitions=0)

    def test_resident_partitions_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            EngineConfig(max_resident_partitions=1)

    def test_unknown_partitioner(self):
        with pytest.raises(ValueError, match="partitioner"):
            EngineConfig(partitioner="magic")

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="heuristic"):
            EngineConfig(heuristic="oracle")

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            EngineConfig(measure="levenshtein")

    def test_none_measure_allowed(self):
        assert EngineConfig(measure=None).measure is None

    def test_unknown_disk_preset(self):
        with pytest.raises(ValueError, match="disk model"):
            EngineConfig(disk_model="tape")

    def test_custom_disk_model_instance(self):
        config = EngineConfig(disk_model=DISK_PRESETS["hdd"])
        assert config.disk_model.name == "hdd"

    def test_invalid_memory_budget(self):
        with pytest.raises(ValueError):
            EngineConfig(memory_budget_bytes=0)

    def test_invalid_bridge_cap(self):
        with pytest.raises(ValueError):
            EngineConfig(max_pairs_per_bridge=0)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            EngineConfig(num_workers=0)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        base = EngineConfig(k=5)
        derived = base.with_overrides(k=7, heuristic="degree-low-high")
        assert base.k == 5
        assert derived.k == 7
        assert derived.heuristic == "degree-low-high"

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            EngineConfig().with_overrides(k=-1)
