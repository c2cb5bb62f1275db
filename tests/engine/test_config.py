"""EngineConfig: defaults, validation, replace()."""

import pytest

from repro.engine import EngineConfig
from repro.exceptions import EngineError, ReproError


class TestDefaults:
    def test_default_values(self):
        cfg = EngineConfig()
        assert cfg.backend is None
        assert cfg.strategy == "degree"
        assert cfg.rebuild_every is None
        assert cfg.rebuild_drift_threshold is None
        assert cfg.drift_check_every == 50
        assert cfg.coalesce_batches is True
        assert cfg.cache_size == 1024

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(AttributeError):
            cfg.cache_size = 0

    def test_replace_returns_new_config(self):
        cfg = EngineConfig()
        patched = cfg.replace(cache_size=0, rebuild_every=10)
        assert patched.cache_size == 0
        assert patched.rebuild_every == 10
        assert cfg.cache_size == 1024  # original untouched


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rebuild_every": 0},
        {"rebuild_every": -5},
        {"rebuild_drift_threshold": -0.1},
        {"rebuild_drift_threshold": 1.5},
        {"drift_check_every": 0},
        {"cache_size": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(EngineError):
            EngineConfig(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(EngineError):
            EngineConfig().replace(cache_size=-3)

    def test_engine_error_is_repro_error(self):
        assert issubclass(EngineError, ReproError)
