"""Unit tests for the chaos harness (misbehaving codec wrappers)."""

import threading
import time

import pytest

from repro.codecs.base import (
    CallableCodec,
    codec_registry_snapshot,
    get_codec,
    register_codec,
    unregister_codec,
)
from repro.core.exceptions import CodecError, UnknownCodecError
from repro.testing.chaos import (
    ChaosCodecError,
    ChaosWrapper,
    CorruptingCodec,
    FlakyCodec,
    HangingCodec,
    chaos_codec,
)

_DATA = b"the same payload, every time " * 64


class TestChaosWrapper:
    def test_delegates_and_counts(self):
        wrapper = ChaosWrapper("zlib")
        blob = wrapper.compress(_DATA)
        assert wrapper.decompress(blob) == _DATA
        assert wrapper.calls == 2
        assert wrapper.name == "zlib"

    def test_explicit_name(self):
        wrapper = ChaosWrapper("zlib", name="shadow")
        assert wrapper.name == "shadow"
        assert wrapper.inner is get_codec("zlib")


class TestFlakyCodec:
    def test_content_keyed_verdict_is_deterministic(self):
        a = FlakyCodec("zlib", fail_percent=50.0, seed=7)
        b = FlakyCodec("zlib", fail_percent=50.0, seed=7)
        payloads = [bytes([i]) * 100 for i in range(64)]
        assert [a.is_doomed(p) for p in payloads] == \
               [b.is_doomed(p) for p in payloads]

    def test_seed_changes_the_doomed_set(self):
        payloads = [bytes([i]) * 100 for i in range(256)]
        a = FlakyCodec("zlib", fail_percent=50.0, seed=1)
        b = FlakyCodec("zlib", fail_percent=50.0, seed=2)
        assert [a.is_doomed(p) for p in payloads] != \
               [b.is_doomed(p) for p in payloads]

    def test_doomed_payload_always_fails(self):
        flaky = FlakyCodec("zlib", fail_percent=100.0)
        for _ in range(3):  # every call on a doomed payload fails
            with pytest.raises(ChaosCodecError):
                flaky.compress(_DATA)
        assert flaky.failures == 3
        assert flaky.unique_failed_payloads == 1

    def test_healthy_payload_round_trips(self):
        flaky = FlakyCodec("zlib", fail_percent=0.0)
        assert flaky.decompress(flaky.compress(_DATA)) == _DATA

    def test_fail_first_ordinals(self):
        flaky = FlakyCodec("zlib", fail_percent=0.0, fail_first=2)
        with pytest.raises(ChaosCodecError):
            flaky.compress(_DATA)
        with pytest.raises(ChaosCodecError):
            flaky.compress(_DATA)
        assert flaky.compress(_DATA)  # call 3 is healthy

    def test_fail_calls_specific_ordinal(self):
        flaky = FlakyCodec("zlib", fail_percent=0.0, fail_calls=(2,))
        assert flaky.compress(_DATA)
        with pytest.raises(ChaosCodecError):
            flaky.compress(_DATA)
        assert flaky.compress(_DATA)

    def test_decompress_untouched_by_default(self):
        flaky = FlakyCodec("zlib", fail_percent=100.0)
        blob = get_codec("zlib").compress(_DATA)
        assert flaky.decompress(blob) == _DATA

    def test_fail_on_decompress(self):
        flaky = FlakyCodec(
            "zlib", fail_percent=100.0, fail_on=("decompress",)
        )
        blob = flaky.compress(_DATA)
        with pytest.raises(ChaosCodecError):
            flaky.decompress(blob)

    def test_chaos_error_is_codec_error(self):
        # Containment boundaries catch CodecError; the injected fault
        # must be in that hierarchy.
        assert issubclass(ChaosCodecError, CodecError)


class TestHangingCodec:
    def test_hang_call_delays_then_delegates(self):
        hanging = HangingCodec("zlib", hang_seconds=0.05, hang_calls=(1,))
        start = time.perf_counter()
        blob = hanging.compress(_DATA)
        assert time.perf_counter() - start >= 0.05
        assert hanging.hangs == 1
        assert get_codec("zlib").decompress(blob) == _DATA

    def test_unselected_call_is_prompt(self):
        hanging = HangingCodec("zlib", hang_seconds=5.0, hang_calls=(99,))
        hanging.compress(_DATA)
        assert hanging.hangs == 0

    def test_content_keyed_hang(self):
        hanging = HangingCodec(
            "zlib", hang_seconds=0.01, hang_percent=100.0
        )
        assert hanging.is_doomed(_DATA)
        hanging.compress(_DATA)
        assert hanging.hangs == 1


class TestCorruptingCodec:
    def test_corrupts_compressed_output(self):
        corrupting = CorruptingCodec("zlib", corrupt_percent=100.0)
        clean = get_codec("zlib").compress(_DATA)
        mangled = corrupting.compress(_DATA)
        assert mangled != clean
        assert len(mangled) == len(clean)
        assert corrupting.corruptions == 1

    def test_corruption_is_deterministic(self):
        a = CorruptingCodec("zlib", corrupt_percent=100.0, seed=5)
        b = CorruptingCodec("zlib", corrupt_percent=100.0, seed=5)
        assert a.compress(_DATA) == b.compress(_DATA)

    def test_zero_percent_passes_through(self):
        corrupting = CorruptingCodec("zlib", corrupt_percent=0.0)
        assert corrupting.compress(_DATA) == get_codec("zlib").compress(_DATA)


class TestChaosCodecRegistry:
    def test_shadow_and_restore(self):
        real = get_codec("zlib")
        flaky = FlakyCodec("zlib", fail_percent=100.0)
        with chaos_codec(flaky):
            assert get_codec("zlib") is flaky
        assert get_codec("zlib") is real

    def test_restores_on_exception(self):
        real = get_codec("zlib")
        with pytest.raises(RuntimeError):
            with chaos_codec(FlakyCodec("zlib")):
                raise RuntimeError("boom")
        assert get_codec("zlib") is real

    def test_fresh_name_unregistered_on_exit(self):
        codec = CallableCodec("chaos-tmp", lambda b: b, lambda b: b)
        with chaos_codec(codec):
            assert get_codec("chaos-tmp") is codec
        with pytest.raises(UnknownCodecError):
            get_codec("chaos-tmp")

    def test_unregister_missing_name_raises(self):
        with pytest.raises(UnknownCodecError):
            unregister_codec("never-registered")

    def test_fresh_name_unregistered_on_exception(self):
        # The restore path must also run when the body raises for a
        # codec that shadowed nothing: the name disappears again.
        codec = CallableCodec("chaos-tmp", lambda b: b, lambda b: b)
        with pytest.raises(RuntimeError):
            with chaos_codec(codec):
                raise RuntimeError("boom")
        with pytest.raises(UnknownCodecError):
            get_codec("chaos-tmp")

    def test_nested_shadows_unwind_in_order(self):
        real = get_codec("zlib")
        outer = FlakyCodec("zlib", fail_percent=0.0)
        inner = FlakyCodec(outer, fail_percent=0.0, name="zlib")
        with chaos_codec(outer):
            with pytest.raises(ChaosCodecError):
                with chaos_codec(inner):
                    assert get_codec("zlib") is inner
                    raise ChaosCodecError("inner boom")
            assert get_codec("zlib") is outer
        assert get_codec("zlib") is real

    def test_registry_survives_concurrent_shadowing(self):
        # The registry lock must keep concurrent shadow/restore cycles
        # and snapshot readers consistent: no lost restores, no
        # mid-mutation snapshots blowing up.
        baseline = codec_registry_snapshot()
        errors = []

        def churn(worker):
            name = f"chaos-threaded-{worker}"
            codec = CallableCodec(name, lambda b: b, lambda b: b)
            try:
                for _ in range(200):
                    with chaos_codec(codec):
                        assert get_codec(name) is codec
                        codec_registry_snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert codec_registry_snapshot() == baseline

    def test_shadow_register_is_atomic_under_threads(self):
        # replace=True re-registration from many threads must leave
        # exactly one winner and never corrupt the entry.
        real = get_codec("zlib")
        wrappers = [
            FlakyCodec("zlib", fail_percent=0.0, seed=i) for i in range(8)
        ]

        def shadow(wrapper):
            for _ in range(100):
                register_codec(wrapper, replace=True)
                assert get_codec("zlib") in (*wrappers, real)

        threads = [
            threading.Thread(target=shadow, args=(w,)) for w in wrappers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        register_codec(real, replace=True)
        assert get_codec("zlib") is real
