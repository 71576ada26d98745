"""The selector strategy registry and its use through the facade.

``"eupa"`` is the one built-in strategy; users add their own with
``register_selector_strategy`` or pass a ``SelectorStrategy``
instance.  The ``custom_selector`` fixture registers one for a test.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro.core.exceptions import ConfigurationError
from repro.core.preferences import IsobarConfig
from repro.core.selector import (
    EupaSelector,
    SelectorStrategy,
    register_selector_strategy,
    resolve_selector,
    selector_strategy_names,
)
from repro.datasets import generate_dataset


@pytest.fixture(scope="module")
def improvable():
    return generate_dataset("gts_phi_l", n_elements=60_000, seed=0)


class TestStrategyRegistry:
    def test_builtin_names_are_listed(self, custom_selector):
        names = selector_strategy_names()
        assert {"eupa", custom_selector} <= set(names)
        assert list(names) == sorted(names)

    def test_resolve_by_name(self, custom_selector):
        strategy = resolve_selector(IsobarConfig(selector="eupa"))
        assert isinstance(strategy, EupaSelector)
        assert isinstance(strategy, SelectorStrategy)
        custom = resolve_selector(
            IsobarConfig(selector=custom_selector.upper())
        )
        assert type(custom).__name__ == "CustomSelector"
        assert isinstance(custom, SelectorStrategy)

    def test_unknown_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown selector"):
            resolve_selector(IsobarConfig(selector="nonsense"))

    def test_instance_passthrough(self):
        eupa = EupaSelector(IsobarConfig())
        assert resolve_selector(IsobarConfig(selector=eupa)) is eupa

    def test_duplicate_registration_requires_replace(self):
        register_selector_strategy(
            "test-dupe", lambda config, metrics: EupaSelector(config)
        )
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_selector_strategy(
                    "test-dupe", lambda config, metrics: EupaSelector(config)
                )
            register_selector_strategy(
                "test-dupe",
                lambda config, metrics: EupaSelector(config),
                replace=True,
            )
        finally:
            from repro.core import selector as selector_module

            with selector_module._STRATEGY_LOCK:
                selector_module._STRATEGIES.pop("test-dupe", None)

    def test_concurrent_registration_and_resolution(self):
        errors = []
        names = [f"test-threaded-{i}" for i in range(16)]

        def register(name):
            try:
                register_selector_strategy(
                    name,
                    lambda config, metrics: EupaSelector(config),
                    replace=True,
                )
                resolve_selector(IsobarConfig(selector=name))
                assert name in selector_strategy_names()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=register, args=(n,)) for n in names
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
        finally:
            from repro.core import selector as selector_module

            with selector_module._STRATEGY_LOCK:
                for name in names:
                    selector_module._STRATEGIES.pop(name, None)


class TestFacadeIntegration:
    def test_compress_accepts_selector_names(self, improvable,
                                             custom_selector):
        for name in ("eupa", custom_selector):
            blob = repro.compress(improvable, selector=name)
            np.testing.assert_array_equal(repro.decompress(blob), improvable)

    def test_default_selector_is_eupa(self):
        assert IsobarConfig().selector == "eupa"

    def test_config_rejects_non_strategy_objects(self):
        with pytest.raises(ConfigurationError, match="selector"):
            IsobarConfig(selector=42)

    def test_selector_seed_reproduces_the_sample_draw(self, improvable):
        a = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=99)
        ).draw_sample(improvable)
        b = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=99, seed=1)
        ).draw_sample(improvable)
        c = EupaSelector(
            IsobarConfig(sample_elements=4096, selector_seed=5)
        ).draw_sample(improvable)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_plan_is_a_dry_run(self, improvable):
        decision = repro.plan(improvable)
        assert decision.codec_name
        doc = decision.to_dict()
        assert doc["origin"] == "probe"
        assert doc["candidates"]
