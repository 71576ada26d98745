"""The exception → HTTP status funnel (``repro.service.errors``).

The table here is normative: ``docs/service.md`` documents exactly
these mappings, and ISO007 forbids handlers from bypassing them.
"""

import json

import pytest

from repro.core.exceptions import (
    ChecksumError,
    ChunkTimeoutError,
    CodecError,
    ConfigurationError,
    ContainerFormatError,
    InvalidInputError,
    IsobarError,
    SelectorError,
    TruncatedContainerError,
    UnknownCodecError,
)
from repro.service.errors import (
    DrainingError,
    QueueFullError,
    ServiceProtocolError,
    error_body,
    retry_after_for_exception,
    status_for_exception,
)
from repro.testing.chaos import ChaosCodecError


class TestStatusTable:
    @pytest.mark.parametrize(
        "exc, status",
        [
            (QueueFullError("full"), 429),
            (DrainingError("draining"), 503),
            (ChaosCodecError("injected"), 503),
            (ServiceProtocolError("bad"), 400),
            (ChunkTimeoutError("slow"), 504),
            (UnknownCodecError("nope"), 400),
            (ChecksumError("crc"), 422),
            (TruncatedContainerError("cut"), 422),
            (ContainerFormatError("mangled"), 422),
            (CodecError("exhausted"), 503),
            (SelectorError("no candidate"), 503),
            (InvalidInputError("bad dtype"), 400),
            (ConfigurationError("bad knob"), 400),
            (IsobarError("generic"), 400),
        ],
    )
    def test_mapping(self, exc, status):
        assert status_for_exception(exc) == status

    def test_specific_beats_general(self):
        """ChunkTimeoutError subclasses CodecError but must win 504."""
        assert issubclass(ChunkTimeoutError, CodecError)
        assert status_for_exception(ChunkTimeoutError("x")) == 504
        assert issubclass(UnknownCodecError, CodecError)
        assert status_for_exception(UnknownCodecError("x")) == 400

    def test_protocol_error_carries_its_own_status(self):
        assert status_for_exception(
            ServiceProtocolError("too big", status=413)
        ) == 413
        assert status_for_exception(
            ServiceProtocolError("stalled", status=408)
        ) == 408

    def test_non_isobar_bug_is_500(self):
        assert status_for_exception(ZeroDivisionError("oops")) == 500

    def test_service_errors_are_isobar_errors(self):
        """Callers catching IsobarError get service failures too."""
        for exc in (QueueFullError("x"), DrainingError("x"),
                    ServiceProtocolError("x")):
            assert isinstance(exc, IsobarError)


class TestRetryAfter:
    def test_explicit_retry_after_wins(self):
        assert retry_after_for_exception(
            QueueFullError("full", retry_after=7.5)
        ) == 7.5

    def test_retryable_statuses_default_to_one_second(self):
        assert retry_after_for_exception(CodecError("x")) == 1.0

    def test_terminal_statuses_have_none(self):
        assert retry_after_for_exception(InvalidInputError("x")) is None
        assert retry_after_for_exception(ChunkTimeoutError("x")) is None


class TestErrorBody:
    def test_error_body_is_json_with_type_and_status(self):
        doc = json.loads(error_body(QueueFullError("queue full"), 429))
        assert doc == {
            "error": "queue full",
            "type": "QueueFullError",
            "status": 429,
        }
