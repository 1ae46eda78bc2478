"""Tests for repro.storage.disk_model."""

import pytest

from repro.storage.disk_model import DISK_PRESETS, DiskModel, get_disk_model


class TestDiskModel:
    def test_sequential_read_has_no_latency(self):
        hdd = DISK_PRESETS["hdd"]
        assert hdd.read_cost(0, sequential=True) == 0.0
        assert hdd.read_cost(0, sequential=False) == pytest.approx(hdd.access_latency_s)

    def test_random_read_slower_than_sequential(self):
        hdd = DISK_PRESETS["hdd"]
        assert hdd.read_cost(1 << 20, sequential=False) > hdd.read_cost(1 << 20, sequential=True)

    def test_hdd_random_much_slower_than_ssd(self):
        hdd, ssd = DISK_PRESETS["hdd"], DISK_PRESETS["ssd"]
        size = 4 << 20
        assert hdd.read_cost(size, sequential=False) > 10 * ssd.read_cost(size, sequential=False)

    def test_write_penalty_applied(self):
        model = DiskModel("x", 0.0, 100.0, 100.0, write_penalty=2.0)
        assert model.write_cost(100) == pytest.approx(2.0)
        assert model.read_cost(100) == pytest.approx(1.0)

    def test_cost_monotonic_in_bytes(self):
        ssd = DISK_PRESETS["ssd"]
        assert ssd.read_cost(2000) > ssd.read_cost(1000)

    def test_instant_model_is_free(self):
        instant = DISK_PRESETS["instant"]
        assert instant.read_cost(10**9) == 0.0
        assert instant.write_cost(10**9, sequential=False) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DISK_PRESETS["ssd"].read_cost(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiskModel("bad", -1.0, 10.0, 10.0)
        with pytest.raises(ValueError):
            DiskModel("bad", 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            DiskModel("bad", 0.0, 10.0, 10.0, write_penalty=0.0)


class TestGetDiskModel:
    def test_preset_lookup(self):
        assert get_disk_model("ssd").name == "ssd"

    def test_instance_passthrough(self):
        model = DISK_PRESETS["hdd"]
        assert get_disk_model(model) is model

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown disk model"):
            get_disk_model("floppy")
