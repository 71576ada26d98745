"""Pipeline instrumentation: parallel==serial aggregation, disabled
mode, run reports, and the salvage / streaming entry points."""

import numpy as np
import pytest

from repro.core.parallel import ParallelIsobarCompressor
from repro.core.pipeline import IsobarCompressor
from repro.core.preferences import IsobarConfig
from repro.core.salvage import salvage_decompress
from repro.core.stream import stream_compress, stream_decompress
from repro.observability import MetricsRegistry, PipelineReport


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    # Structured exponents + noisy mantissas: the improvable case.
    return rng.normal(loc=1.0, scale=0.01, size=40_000)


def _config():
    return IsobarConfig(chunk_elements=8_000, codec="zlib")


class TestCompressMetrics:
    def test_run_report_totals(self, data):
        c = IsobarCompressor(_config(), collect_metrics=True)
        blob = c.compress(data)
        report = c.last_report
        assert report.operation == "compress"
        assert report.n_chunks == 5
        assert report.improvable_chunks + report.undetermined_chunks == 5
        assert report.input_bytes == data.nbytes
        assert report.output_bytes == len(blob)
        assert report.solver_bytes + report.raw_bytes == data.nbytes
        assert set(report.stage_seconds) >= {
            "select", "analyze", "solve", "merge",
        }
        assert report.wall_seconds > 0.0

    def test_stage_seconds_account_for_wall_time(self, data):
        # Acceptance bound: staged seconds within 10% of wall time.
        c = IsobarCompressor(_config(), collect_metrics=True)
        c.compress(data)
        report = c.last_report
        assert report.unattributed_seconds <= 0.10 * report.wall_seconds

    def test_registry_counters(self, data):
        c = IsobarCompressor(_config(), collect_metrics=True)
        c.compress(data)
        reg = c.metrics
        assert reg.counter("isobar_runs_total").value(operation="compress") == 1
        assert reg.counter("isobar_chunks_total").total() == 5
        routed = reg.counter("isobar_routed_bytes_total")
        assert routed.total() == data.nbytes
        assert reg.histogram("isobar_chunk_seconds").count() == 5

    def test_decompress_report(self, data):
        c = IsobarCompressor(_config(), collect_metrics=True)
        blob = c.compress(data)
        restored = c.decompress(blob)
        assert np.array_equal(restored, data)
        report = c.last_report
        assert report.operation == "decompress"
        assert report.input_bytes == len(blob)
        assert report.output_bytes == data.nbytes
        assert set(report.stage_seconds) == {"decode", "merge"}
        assert (
            c.metrics.counter("isobar_chunks_decoded_total").total() == 5
        )

    def test_shared_registry_aggregates_runs(self, data):
        reg = MetricsRegistry()
        a = IsobarCompressor(_config(), metrics=reg)
        b = IsobarCompressor(_config(), metrics=reg)
        a.compress(data)
        b.compress(data)
        assert reg.counter("isobar_runs_total").value(operation="compress") == 2


class TestParallelEqualsSerial:
    def test_counters_match_serial_totals(self, data):
        serial = IsobarCompressor(_config(), collect_metrics=True)
        parallel = ParallelIsobarCompressor(
            _config(), n_workers=4, collect_metrics=True
        )
        blob_s = serial.compress(data)
        blob_p = parallel.compress(data)
        assert blob_s == blob_p

        for name in (
            "isobar_chunks_total",
            "isobar_routed_bytes_total",
            "isobar_input_bytes_total",
            "isobar_output_bytes_total",
            "isobar_stage_calls_total",
        ):
            assert (
                parallel.metrics.counter(name).series()
                == serial.metrics.counter(name).series()
            ), name
        assert (
            parallel.metrics.histogram("isobar_chunk_seconds").count()
            == serial.metrics.histogram("isobar_chunk_seconds").count()
        )

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_parallel_decode_counters(self, data, n_workers):
        # One decode stage call per chunk, fed its payload bytes, for
        # every worker count.
        compressor = IsobarCompressor(
            _config(), n_workers, collect_metrics=True
        )
        result = compressor.compress_detailed(data)
        restored = compressor.decompress(result.payload)
        assert np.array_equal(restored, data)
        reg = compressor.metrics
        assert reg.counter("isobar_chunks_decoded_total").total() == 5
        assert (
            reg.counter("isobar_stage_calls_total").value(stage="decode") == 5
        )
        payload_bytes = sum(
            c.stored_bytes - c.metadata_bytes for c in result.chunks
        )
        assert (
            reg.counter("isobar_stage_bytes_in_total").value(stage="decode")
            == payload_bytes
        )


class TestDisabledMode:
    def test_no_registry_no_report(self, data):
        c = IsobarCompressor(_config())
        blob = c.compress(data)
        assert c.collect_metrics is False
        assert c.metrics is None
        assert c.last_report is None
        c.decompress(blob)
        assert c.last_report is None

    def test_output_identical_to_enabled(self, data):
        plain = IsobarCompressor(_config()).compress(data)
        metered = IsobarCompressor(
            _config(), collect_metrics=True
        ).compress(data)
        assert plain == metered

    def test_selector_without_metrics_is_unaffected(self, data):
        from repro.core.selector import EupaSelector

        d1 = EupaSelector(_config()).select(data)
        d2 = EupaSelector(_config(), metrics=MetricsRegistry()).select(data)
        assert d1.codec_name == d2.codec_name
        assert d1.linearization == d2.linearization


class TestSelectorMetrics:
    def test_evaluations_and_decision_recorded(self, data):
        reg = MetricsRegistry()
        from repro.core.selector import EupaSelector

        config = IsobarConfig()  # full candidate space
        decision = EupaSelector(config, metrics=reg).select(data)
        evals = reg.counter("isobar_selector_evaluations_total")
        assert evals.total() == len(decision.candidates)
        decisions = reg.counter("isobar_selector_decisions_total")
        assert decisions.value(
            codec=decision.codec_name,
            linearization=decision.linearization.value,
        ) == 1
        assert (
            reg.gauge("isobar_selector_sample_elements").value()
            == decision.sample_elements
        )


class TestSalvageMetrics:
    def test_recovered_and_lost_counters(self, data):
        c = IsobarCompressor(_config())
        blob = bytearray(c.compress(data))
        # Flip a payload byte deep inside the container: one chunk dies.
        blob[len(blob) // 2] ^= 0xFF
        reg = MetricsRegistry()
        result = salvage_decompress(bytes(blob), policy="skip", metrics=reg)
        assert not result.report.complete
        chunks = reg.counter("isobar_salvage_chunks_total")
        assert chunks.value(status="recovered") == result.report.recovered_chunks
        elements = reg.counter("isobar_salvage_elements_total")
        assert elements.value(status="recovered") == result.values.size
        assert (
            elements.value(status="recovered") + elements.value(status="lost")
            == data.size
        )
        assert reg.counter("isobar_runs_total").value(operation="salvage") == 1
        stages = reg.counter("isobar_stage_calls_total")
        assert stages.value(stage="scan") == 1

    def test_pipeline_lenient_decompress_feeds_registry(self, data):
        c = IsobarCompressor(_config(), collect_metrics=True)
        blob = c.compress(data)
        restored = c.decompress(blob, errors="skip")
        assert np.array_equal(restored, data)
        assert (
            c.metrics.counter("isobar_runs_total").value(operation="salvage")
            == 1
        )


class TestStreamingMetrics:
    def test_writer_report_and_reader_counters(self, data, tmp_path):
        path = tmp_path / "stream.isbr"
        reg = MetricsRegistry()
        chunks = [data[:15_000], data[15_000:]]
        stream_compress(chunks, path, data.dtype, _config(), metrics=reg)
        assert reg.counter("isobar_runs_total").value(operation="compress") == 1
        assert (
            reg.counter("isobar_input_bytes_total").value(operation="compress")
            == data.nbytes
        )
        # The writer emits one container chunk per write_chunk() call.
        written = reg.counter("isobar_stage_calls_total").value(stage="write")
        assert written == 2

        out = list(stream_decompress(path, metrics=reg))
        assert np.array_equal(np.concatenate(out), data)
        assert reg.counter("isobar_chunks_decoded_total").total() == 2
        assert (
            reg.counter("isobar_stage_calls_total").value(stage="decode") == 2
        )

    def test_writer_publishes_report_on_close(self, data, tmp_path):
        from repro.core.stream import StreamingWriter

        path = tmp_path / "stream.isbr"
        writer = StreamingWriter.open(
            path, data.dtype, _config(), collect_metrics=True
        )
        assert writer.last_report is None
        writer.write_chunk(data)
        writer.close()
        report = writer.last_report
        assert isinstance(report, PipelineReport)
        assert report.operation == "compress"
        assert report.input_bytes == data.nbytes
        assert report.output_bytes == writer.bytes_written
        assert "write" in report.stage_seconds


class TestPipelineReportSerde:
    def test_round_trip(self, data):
        c = IsobarCompressor(_config(), collect_metrics=True)
        c.compress(data)
        report = c.last_report
        clone = PipelineReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.render() == report.render()
