"""Contract tests for the public facade (``repro.compress`` et al.).

Covers the stability guarantees ``docs/api.md`` documents: facade
signatures, the once-per-process deprecation of the legacy one-liners,
the facade's engine workers and their byte-identical output,
the star-import surface, the unified ``errors=`` vocabulary, the
container-overhead accounting, and byte-level interoperability between
the ``isal-zlib`` codec and plain stdlib zlib.
"""

import inspect
import threading
import warnings

import numpy as np
import pytest

import repro
import repro.api
from repro.codecs import IsalZlibCodec, ZlibCodec, get_codec
from repro.core import pipeline as _pipeline
from repro.core.exceptions import ConfigurationError
from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import (
    ERROR_POLICIES,
    IsobarConfig,
    normalize_errors,
    salvage_policy_for,
)
from repro.core.random_access import ContainerReader
from repro.datasets.registry import dataset_names, generate_dataset
from repro.testing.faults import chunk_chain_end


@pytest.fixture
def data(rng):
    return np.cumsum(rng.normal(size=20_000))


class TestFacade:
    def test_compress_decompress_round_trip(self, data):
        blob = repro.compress(data)
        restored = repro.decompress(blob)
        assert np.array_equal(restored, data)

    def test_compress_options_are_keyword_only(self):
        sig = inspect.signature(repro.compress)
        for name, param in sig.parameters.items():
            if name == "values":
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_decompress_errors_is_keyword_only(self):
        sig = inspect.signature(repro.decompress)
        assert (
            sig.parameters["errors"].kind is inspect.Parameter.KEYWORD_ONLY
        )

    def test_compress_accepts_config_object(self, data):
        cfg = repro.IsobarConfig(chunk_elements=5_000)
        blob = repro.compress(data, config=cfg, preference="speed")
        assert np.array_equal(repro.decompress(blob), data)

    def test_open_stream_round_trip(self, tmp_path, data):
        path = tmp_path / "facade.isbr"
        with repro.open_stream(path, "w", dtype=data.dtype) as writer:
            for i in range(0, data.size, 5_000):
                writer.write_chunk(data[i:i + 5_000])
        restored = np.concatenate(list(repro.open_stream(path)))
        assert np.array_equal(restored, data)

    def test_open_stream_write_requires_dtype(self, tmp_path):
        with pytest.raises(ConfigurationError):
            repro.open_stream(tmp_path / "x.isbr", "w")

    def test_open_stream_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            repro.open_stream(tmp_path / "x.isbr", "a")

    def test_open_stream_read_rejects_bad_errors_eagerly(self, tmp_path, data):
        path = tmp_path / "facade.isbr"
        with repro.open_stream(path, "w", dtype=data.dtype) as writer:
            writer.write_chunk(data)
        # Must raise at the call, not at first iteration.
        with pytest.raises(ConfigurationError):
            repro.open_stream(path, errors="replace")

    def test_star_surface_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_names_exported(self):
        assert {"compress", "decompress", "open_stream",
                "ERROR_POLICIES"} <= set(repro.__all__)


class TestFacadeWorkers:
    """The facade solves chunks on one engine worker per usable CPU."""

    CONFIG = IsobarConfig(chunk_elements=5_000)

    @pytest.fixture
    def runners(self, monkeypatch):
        """Names of the engine runs the facade starts."""
        started: list[str] = []
        original = ParallelIsobarCompressor._runner

        def spy(self, name):
            started.append(name)
            return original(self, name)

        monkeypatch.setattr(ParallelIsobarCompressor, "_runner", spy)
        return started

    @pytest.mark.parametrize("name", dataset_names())
    def test_two_workers_match_serial_bytes(self, monkeypatch, runners, name):
        monkeypatch.setattr(repro.api, "usable_cpus", lambda: 2)
        values = generate_dataset(name, n_elements=20_000, seed=3)
        serial = IsobarCompressor(self.CONFIG)
        expected = serial.compress(values)

        blob = repro.compress(values, config=self.CONFIG)
        assert blob == expected
        restored = repro.decompress(blob)
        assert restored.tobytes() == values.tobytes()
        assert runners == ["isobar-compress", "isobar-decompress"]

        damaged = bytearray(blob)
        damaged[chunk_chain_end(blob) - 2] ^= 0xFF
        salvaged = repro.decompress(bytes(damaged), errors="salvage-skip")
        assert salvaged.tobytes() == serial.decompress(
            bytes(damaged), errors="salvage-skip"
        ).tobytes()

    def test_one_cpu_starts_no_thread(self, monkeypatch, runners):
        monkeypatch.setattr(repro.api, "usable_cpus", lambda: 1)
        started: list[str] = []
        original_start = threading.Thread.start

        def spy_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        values = generate_dataset("num_brain", n_elements=20_000, seed=3)
        blob = repro.compress(values, config=self.CONFIG)
        assert np.array_equal(repro.decompress(blob), values)
        assert started == [] and runners == []


    @pytest.mark.parametrize(
        "n_elements", [4_000, 20_000], ids=["one-chunk", "four-chunks"]
    )
    def test_pure_python_codec_runs_inline(
        self, monkeypatch, runners, n_elements, gil_bound_codec
    ):
        monkeypatch.setattr(repro.api, "usable_cpus", lambda: 2)
        name = gil_bound_codec.name
        values = generate_dataset("num_brain", n_elements=n_elements, seed=3)
        blob = repro.compress(values, codec=name, config=self.CONFIG)
        assert blob == IsobarCompressor(
            self.CONFIG.replace(codec=name)
        ).compress(values)
        assert np.array_equal(repro.decompress(blob), values)
        assert runners == []


class TestDeprecatedAliases:
    def test_aliases_warn_exactly_once(self, data):
        _pipeline._reset_deprecation_warnings()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blob = repro.isobar_compress(data)
            repro.isobar_compress(data)
        messages = [
            str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "isobar_compress" in str(w.message)
        ]
        assert len(messages) == 1
        assert "repro.compress" in messages[0]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restored = repro.isobar_decompress(blob)
            repro.isobar_decompress(blob)
        messages = [
            str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "isobar_decompress" in str(w.message)
        ]
        assert len(messages) == 1
        assert np.array_equal(restored, data)

    def test_aliases_match_facade_output(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = repro.isobar_compress(data, preference="speed")
        facade = repro.compress(data, preference="speed")
        assert legacy == facade


class TestErrorsVocabulary:
    def test_canonical_policies(self):
        assert ERROR_POLICIES == ("raise", "salvage-skip", "salvage-zero")
        for policy in ERROR_POLICIES:
            assert normalize_errors(policy) == policy

    def test_legacy_aliases_map_to_canonical(self):
        assert normalize_errors("skip") == "salvage-skip"
        assert normalize_errors("zero_fill") == "salvage-zero"

    def test_salvage_policy_mapping(self):
        assert salvage_policy_for("salvage-skip") == "skip"
        assert salvage_policy_for("salvage-zero") == "zero_fill"
        assert salvage_policy_for("raise") == "raise"

    def test_unknown_policy_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            normalize_errors("replace")
        # ConfigurationError is a ValueError, preserving old except
        # clauses written against the per-decoder keywords.
        assert issubclass(ConfigurationError, ValueError)

    @pytest.mark.parametrize("errors", ["salvage-skip", "salvage-zero"])
    def test_decoders_accept_canonical_policies(self, data, errors):
        blob = repro.compress(data)
        assert np.array_equal(repro.decompress(blob, errors=errors), data)
        reader = ContainerReader(blob, errors=errors)
        assert np.array_equal(reader.read_all(), data)

    def test_decompress_rejects_unknown_policy(self, data):
        blob = repro.compress(data)
        with pytest.raises(ConfigurationError):
            repro.decompress(blob, errors="replace")


class TestContainerReaderSalvage:
    def _damaged_container(self, data):
        cfg = repro.IsobarConfig(chunk_elements=5_000)
        blob = bytearray(repro.compress(data, config=cfg))
        # Corrupt the final chunk's payload (just before the footer).
        blob[chunk_chain_end(bytes(blob)) - 2] ^= 0xFF
        return bytes(blob)

    def test_skip_drops_damaged_chunk(self, data):
        blob = self._damaged_container(data)
        reader = ContainerReader(blob, errors="salvage-skip")
        restored = reader.read_range(0, reader.n_elements)
        assert restored.size == data.size - 5_000
        assert np.array_equal(restored, data[:-5_000])

    def test_zero_keeps_positions_stable(self, data):
        blob = self._damaged_container(data)
        reader = ContainerReader(blob, errors="salvage-zero")
        restored = reader.read_range(0, reader.n_elements)
        assert restored.size == data.size
        assert np.array_equal(restored[:-5_000], data[:-5_000])
        assert np.all(restored[-5_000:] == 0)

    def test_raise_is_default(self, data):
        from repro.core.exceptions import IsobarError

        blob = self._damaged_container(data)
        reader = ContainerReader(blob)
        with pytest.raises(IsobarError):
            reader.read_chunk(reader.n_chunks - 1)


class TestSelectorSurface:
    def test_compress_selector_is_keyword_only(self, data):
        params = inspect.signature(repro.compress).parameters
        assert params["selector"].kind is inspect.Parameter.KEYWORD_ONLY
        blob = repro.compress(data, selector="eupa")
        assert np.array_equal(repro.decompress(blob), data)

    def test_plan_is_keyword_only_and_dry(self, data):
        params = inspect.signature(repro.plan).parameters
        assert all(
            p.kind is inspect.Parameter.KEYWORD_ONLY
            for name, p in params.items() if name != "values"
        )
        decision = repro.plan(data, preference="speed", codec="zlib")
        assert decision.codec_name == "zlib"
        doc = decision.to_dict()
        assert doc["preference"] == "speed"
        assert doc["candidates"]

    def test_plan_honours_strategy_instances(self, data):
        from repro.core.selector_learned import LearnedSelector

        learned = LearnedSelector()
        decision = repro.plan(data, selector=learned)
        assert decision.origin in ("probe", "predicted")

    def test_open_stream_accepts_selector(self, tmp_path, data):
        path = tmp_path / "sel.isbr"
        with repro.open_stream(path, "w", dtype=data.dtype,
                               selector="learned") as writer:
            writer.write_chunk(data)
        restored = np.concatenate(list(repro.open_stream(path)))
        assert np.array_equal(restored, data)

    def test_unknown_selector_name_rejected_at_resolve(self, data):
        with pytest.raises(ConfigurationError, match="unknown selector"):
            repro.compress(data, selector="bogus")


class TestOverheadAccounting:
    def test_overhead_plus_payload_is_total(self, data):
        result = repro.IsobarCompressor(
            repro.IsobarConfig(chunk_elements=5_000)
        ).compress_detailed(data)
        assert result.container_overhead_bytes > 0
        assert result.stored_payload_bytes > 0
        assert (
            result.container_overhead_bytes + result.stored_payload_bytes
            == result.compressed_bytes
        )
        # Overhead-free ratio is at least the container ratio.
        assert result.payload_ratio >= result.ratio

    def test_per_chunk_metadata_bytes(self, data):
        result = repro.IsobarCompressor(
            repro.IsobarConfig(chunk_elements=5_000)
        ).compress_detailed(data)
        for chunk in result.chunks:
            assert chunk.metadata_bytes > 0
            assert chunk.metadata_bytes < chunk.stored_bytes


class TestIsalInterop:
    """isal-zlib emits standard zlib streams in both backend modes."""

    def test_codec_registered(self):
        codec = get_codec("isal-zlib")
        assert isinstance(codec, IsalZlibCodec)
        assert isinstance(codec.accelerated, bool)

    def test_streams_decode_with_stdlib_zlib(self):
        payload = bytes(range(256)) * 64
        compressed = IsalZlibCodec().compress(payload)
        assert ZlibCodec().decompress(compressed) == payload

    def test_stdlib_streams_decode_with_isal_codec(self):
        payload = bytes(range(256)) * 64
        compressed = ZlibCodec().compress(payload)
        assert IsalZlibCodec().decompress(compressed) == payload

    def test_containers_cross_decode(self, data):
        """A container naming isal-zlib decodes on any host: the codec
        is registered whether or not the accelerator is present."""
        blob = repro.compress(data, codec="isal-zlib")
        assert np.array_equal(repro.decompress(blob), data)
        reader = ContainerReader(blob)
        assert reader.header.codec_name == "isal-zlib"
        assert np.array_equal(reader.read_all(), data)

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            IsalZlibCodec(level=7)
