"""End-to-end tests for the ``isobar`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.loaders import load_raw, save_raw
from repro.testing.faults import chunk_chain_end


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["generate", "gts_phi_l", "out.rds"],
            ["analyze", "in.rds"],
            ["compress", "in.rds", "out.isobar"],
            ["decompress", "in.isobar", "out.rds"],
            ["bench", "--table", "4"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "bogus", "out.rds"])


class TestWorkflow:
    def test_generate_analyze_compress_decompress(self, tmp_path, capsys):
        raw = tmp_path / "field.rds"
        container = tmp_path / "field.isobar"
        restored = tmp_path / "restored.rds"

        assert main(["generate", "gts_chkp_zion", str(raw),
                     "--elements", "30000"]) == 0
        assert main(["analyze", str(raw), "--bits"]) == 0
        out = capsys.readouterr().out
        assert "improvable: yes" in out

        assert main(["compress", str(raw), str(container),
                     "--preference", "speed"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert container.stat().st_size < raw.stat().st_size

        assert main(["decompress", str(container), str(restored)]) == 0
        assert np.array_equal(load_raw(raw), load_raw(restored))

    def test_compress_with_explicit_options(self, tmp_path):
        raw = tmp_path / "x.rds"
        main(["generate", "s3d_vmag", str(raw), "--elements", "20000"])
        out = tmp_path / "x.isobar"
        assert main(["compress", str(raw), str(out), "--codec", "zlib",
                     "--linearization", "column",
                     "--chunk-elements", "10000"]) == 0
        restored = tmp_path / "x2.rds"
        assert main(["decompress", str(out), str(restored)]) == 0
        a, b = load_raw(raw), load_raw(restored)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_non_improvable_dataset_roundtrip(self, tmp_path):
        raw = tmp_path / "sppm.rds"
        main(["generate", "msg_sppm", str(raw), "--elements", "20000"])
        out = tmp_path / "sppm.isobar"
        assert main(["compress", str(raw), str(out)]) == 0
        restored = tmp_path / "sppm2.rds"
        assert main(["decompress", str(out), str(restored)]) == 0
        assert np.array_equal(load_raw(raw), load_raw(restored))


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.rds")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_container(self, tmp_path, capsys):
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(b"not a container")
        assert main(["decompress", str(bad),
                     str(tmp_path / "out.rds")]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_codec(self, tmp_path, capsys):
        raw = tmp_path / "x.rds"
        save_raw(raw, np.arange(1000.0))
        assert main(["compress", str(raw), str(tmp_path / "x.isobar"),
                     "--codec", "snappy"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bench_without_target(self, capsys):
        assert main(["bench"]) == 2
        assert "nothing to do" in capsys.readouterr().err


class TestInspectionCommands:
    @pytest.fixture
    def container(self, tmp_path):
        raw = tmp_path / "d.rds"
        main(["generate", "num_brain", str(raw), "--elements", "60000"])
        out = tmp_path / "d.isobar"
        main(["compress", str(raw), str(out), "--chunk-elements", "30000"])
        return raw, out

    def test_info(self, container, capsys):
        _, out = container
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "float64" in text
        assert "chunks" in text
        assert "ratio" in text

    def test_extract_range(self, container, tmp_path, capsys):
        raw, out = container
        window = tmp_path / "w.rds"
        assert main(["extract", str(out), str(window),
                     "--start", "29500", "--stop", "30500"]) == 0
        full = load_raw(raw)
        extracted = load_raw(window)
        assert np.array_equal(extracted, full[29500:30500])

    def test_extract_out_of_bounds(self, container, tmp_path, capsys):
        _, out = container
        assert main(["extract", str(out), str(tmp_path / "w.rds"),
                     "--start", "0", "--stop", "999999"]) == 1
        assert "error" in capsys.readouterr().err

    def test_verify_clean(self, container, capsys):
        _, out = container
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_verify_corrupt(self, container, tmp_path, capsys):
        _, out = container
        corrupted = bytearray(out.read_bytes())
        corrupted[chunk_chain_end(bytes(corrupted)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(corrupted))
        assert main(["verify", str(bad)]) == 1
        text = capsys.readouterr().out
        assert "INVALID" in text
        assert "CRC" in text

    def test_analyze_full_profile(self, container, capsys):
        raw, _ = container
        capsys.readouterr()
        assert main(["analyze", str(raw), "--full"]) == 0
        text = capsys.readouterr().out
        assert "compressibility profile" in text
        assert "recommendation" in text

    def test_concat(self, container, tmp_path, capsys):
        raw, _ = container
        # Two containers with a pinned decision so they are mergeable.
        a, b = tmp_path / "a.isobar", tmp_path / "b.isobar"
        for out in (a, b):
            assert main(["compress", str(raw), str(out),
                         "--codec", "zlib", "--linearization", "row",
                         "--chunk-elements", "30000"]) == 0
        merged = tmp_path / "merged.isobar"
        capsys.readouterr()
        assert main(["concat", str(a), str(b), str(merged)]) == 0
        assert "no recompression" in capsys.readouterr().out
        full = load_raw(raw)
        restored = tmp_path / "restored.rds"
        assert main(["decompress", str(merged), str(restored)]) == 0
        assert np.array_equal(load_raw(restored),
                              np.concatenate([full, full]))

    def test_codecs_listing(self, capsys):
        assert main(["codecs"]) == 0
        text = capsys.readouterr().out
        for name in ("zlib", "bzip2", "lzma"):
            assert name in text

    def test_autotune(self, container, capsys):
        raw, _ = container
        capsys.readouterr()
        assert main(["autotune", str(raw),
                     "--sample-elements", "40000"]) == 0
        text = capsys.readouterr().out
        assert "chosen tau" in text
        assert "statistical floor" in text


class TestBenchCommand:
    def test_bench_table_4(self, capsys):
        assert main(["bench", "--table", "4", "--elements", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "gts_chkp_zeon" in out

    def test_bench_table_1(self, capsys):
        assert main(["bench", "--table", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_bench_figure_1(self, capsys):
        assert main(["bench", "--figure", "1", "--elements", "20000"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestSalvageCommands:
    @pytest.fixture
    def container(self, tmp_path):
        raw = tmp_path / "d.rds"
        main(["generate", "num_brain", str(raw), "--elements", "60000"])
        out = tmp_path / "d.isobar"
        main(["compress", str(raw), str(out), "--chunk-elements", "20000"])
        return raw, out

    @pytest.fixture
    def corrupted(self, container, tmp_path):
        raw, out = container
        damaged = bytearray(out.read_bytes())
        # CRC failure in the last chunk (aim before the index footer).
        damaged[chunk_chain_end(bytes(damaged)) - 2] ^= 0xFF
        bad = tmp_path / "bad.isobar"
        bad.write_bytes(bytes(damaged))
        return raw, bad

    def test_verify_deep_clean(self, container, capsys):
        _, out = container
        capsys.readouterr()
        assert main(["verify", str(out), "--deep"]) == 0
        text = capsys.readouterr().out
        assert "VALID" in text
        assert "salvage:" in text
        assert "COMPLETE" in text

    def test_verify_deep_corrupt_reports_recoverability(self, corrupted,
                                                        capsys):
        _, bad = corrupted
        capsys.readouterr()
        assert main(["verify", str(bad), "--deep"]) == 1
        text = capsys.readouterr().out
        assert "INVALID" in text
        assert "salvage:" in text
        assert "recovered 2 chunks" in text
        assert "PARTIAL" in text

    def test_salvage_clean_exits_zero(self, container, tmp_path, capsys):
        raw, out = container
        rescued = tmp_path / "rescued.rds"
        assert main(["salvage", str(out), str(rescued)]) == 0
        assert np.array_equal(load_raw(rescued), load_raw(raw))
        assert "COMPLETE" in capsys.readouterr().out

    def test_salvage_skip_recovers_survivors(self, corrupted, tmp_path,
                                             capsys):
        raw, bad = corrupted
        rescued = tmp_path / "rescued.rds"
        assert main(["salvage", str(bad), str(rescued)]) == 2
        assert np.array_equal(load_raw(rescued), load_raw(raw)[:40_000])
        text = capsys.readouterr().out
        assert "chunk 2" in text
        assert "PARTIAL" in text

    def test_salvage_zero_fill_preserves_positions(self, corrupted, tmp_path,
                                                   capsys):
        raw, bad = corrupted
        rescued = tmp_path / "rescued.rds"
        assert main(["salvage", str(bad), str(rescued),
                     "--policy", "zero_fill"]) == 2
        values = load_raw(rescued)
        original = load_raw(raw)
        assert values.size == original.size
        assert np.array_equal(values[:40_000], original[:40_000])
        assert np.all(values[40_000:] == 0)

    def test_salvage_unsalvageable_input(self, corrupted, tmp_path, capsys):
        _, bad = corrupted
        hopeless = tmp_path / "hopeless.isobar"
        hopeless.write_bytes(b"XXXX" + bad.read_bytes()[4:])
        assert main(["salvage", str(hopeless),
                     str(tmp_path / "r.rds")]) == 1
        assert "error" in capsys.readouterr().err


class TestObservabilityCommands:
    @pytest.fixture
    def raw(self, tmp_path):
        path = tmp_path / "field.rds"
        main(["generate", "gts_chkp_zion", str(path), "--elements", "30000"])
        return path

    def test_stats_prints_stage_breakdown(self, raw, capsys):
        capsys.readouterr()
        assert main(["stats", str(raw), "--preference", "speed"]) == 0
        text = capsys.readouterr().out
        assert "== compress ==" in text
        assert "== decompress ==" in text
        assert "stage select" in text
        assert "stage solve" in text
        assert "stage decode" in text
        assert "wall time" in text

    def test_stats_parallel_and_exports(self, raw, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        blob = tmp_path / "metrics.json"
        assert main(["stats", str(raw), "--workers", "2",
                     "--no-roundtrip",
                     "--prometheus", str(prom),
                     "--metrics-json", str(blob)]) == 0
        text = capsys.readouterr().out
        assert "== decompress ==" not in text
        prom_text = prom.read_text()
        assert "# TYPE isobar_runs_total counter" in prom_text
        assert 'isobar_runs_total{operation="compress"} 1' in prom_text

        from repro.observability import registry_from_json, to_prometheus_text

        reloaded = registry_from_json(blob.read_text())
        assert to_prometheus_text(reloaded) == prom_text

    def test_stats_prometheus_stdout(self, raw, capsys):
        capsys.readouterr()
        assert main(["stats", str(raw), "--no-roundtrip",
                     "--prometheus", "-"]) == 0
        assert "isobar_stage_seconds_total" in capsys.readouterr().out

    def test_compress_decompress_metrics_json(self, raw, tmp_path, capsys):
        from repro.observability import registry_from_json

        container = tmp_path / "f.isobar"
        restored = tmp_path / "f2.rds"
        cjson = tmp_path / "compress.json"
        assert main(["compress", str(raw), str(container),
                     "--metrics-json", str(cjson)]) == 0
        text = capsys.readouterr().out
        assert "operation       : compress" in text
        reg = registry_from_json(cjson.read_text())
        assert reg.get("isobar_runs_total").value(operation="compress") == 1

        assert main(["decompress", str(container), str(restored),
                     "--metrics-json", "-"]) == 0
        text = capsys.readouterr().out
        assert "operation       : decompress" in text
        assert '"isobar_chunks_decoded_total"' in text
        assert np.array_equal(load_raw(raw), load_raw(restored))

    def test_salvage_metrics_json(self, raw, tmp_path, capsys):
        container = tmp_path / "f.isobar"
        main(["compress", str(raw), str(container)])
        sjson = tmp_path / "salvage.json"
        rescued = tmp_path / "rescued.rds"
        assert main(["salvage", str(container), str(rescued),
                     "--metrics-json", str(sjson)]) == 0
        from repro.observability import registry_from_json

        reg = registry_from_json(sjson.read_text())
        assert reg.get("isobar_runs_total").value(operation="salvage") == 1
        assert (
            reg.get("isobar_salvage_chunks_total").value(status="recovered")
            >= 1
        )


class TestResilienceCommands:
    @pytest.fixture
    def raw(self, tmp_path):
        path = tmp_path / "field.rds"
        main(["generate", "gts_chkp_zion", str(path), "--elements", "30000"])
        return path

    def _chaos(self):
        from repro.testing.chaos import FlakyCodec, chaos_codec

        return chaos_codec(FlakyCodec("zlib", fail_percent=100.0))

    def test_degraded_compress_exits_two(self, raw, tmp_path, capsys):
        container = tmp_path / "f.isobar"
        with self._chaos():
            code = main(["compress", str(raw), str(container),
                         "--codec", "zlib", "--chunk-elements", "10000"])
        assert code == 2
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "zlib-fallback" in captured.err
        # The container was still written and decodes exactly with a
        # pristine registry.
        restored = tmp_path / "f.rds"
        assert main(["decompress", str(container), str(restored)]) == 0
        assert np.array_equal(load_raw(raw), load_raw(restored))

    def test_clean_compress_exits_zero(self, raw, tmp_path, capsys):
        container = tmp_path / "f.isobar"
        assert main(["compress", str(raw), str(container),
                     "--codec", "zlib"]) == 0
        assert "degraded" not in capsys.readouterr().err

    def test_strict_flag_fails_hard(self, raw, tmp_path, capsys):
        container = tmp_path / "f.isobar"
        with self._chaos():
            code = main(["compress", str(raw), str(container),
                         "--codec", "zlib", "--strict"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_resilience_json_file(self, raw, tmp_path, capsys):
        import json

        container = tmp_path / "f.isobar"
        report_path = tmp_path / "degradation.json"
        with self._chaos():
            code = main(["compress", str(raw), str(container),
                         "--codec", "zlib", "--chunk-elements", "10000",
                         "--resilience-json", str(report_path)])
        assert code == 2
        report = json.loads(report_path.read_text())
        assert report["degraded_chunks"] == 3  # 30000 / 10000
        # Under a total outage the default breaker opens mid-run, so
        # later chunks short-circuit: causes mix error and breaker_open.
        assert sum(report["causes"].values()) == 3
        assert report["causes"]["error"] >= 1
        assert all(
            e["encoding"] == "zlib-fallback" for e in report["events"]
        )

    def test_resilience_json_stdout_clean_run(self, raw, tmp_path, capsys):
        import json

        container = tmp_path / "f.isobar"
        assert main(["compress", str(raw), str(container),
                     "--codec", "zlib", "--resilience-json", "-"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["degraded_chunks"] == 0
        assert payload["events"] == []

    def test_parser_accepts_new_flags(self):
        parser = build_parser()
        args = parser.parse_args(["compress", "in.rds", "out.isobar",
                                  "--strict", "--resilience-json", "-"])
        assert args.strict
        assert args.resilience_json == "-"


class TestPlanCommand:
    @pytest.fixture
    def raw(self, tmp_path):
        path = tmp_path / "field.rds"
        main(["generate", "gts_phi_l", str(path), "--elements", "30000"])
        return path

    def test_parser_accepts_plan_and_selector(self):
        parser = build_parser()
        args = parser.parse_args(["plan", "in.rds", "--selector", "eupa",
                                  "--preference", "speed"])
        assert args.command == "plan"
        assert args.selector == "eupa"
        args = parser.parse_args(["compress", "in.rds", "out.isobar",
                                  "--selector", "my-strategy"])
        assert args.selector == "my-strategy"

    def test_plan_prints_decision(self, raw, capsys):
        capsys.readouterr()
        assert main(["plan", str(raw)]) == 0
        out = capsys.readouterr().out
        assert "decision" in out
        assert "origin" in out and "probe" in out
        assert "measured" in out

    def test_plan_json_document(self, raw, capsys):
        import json

        capsys.readouterr()
        assert main(["plan", str(raw), "--json", "--codec", "zlib"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["codec"] == "zlib"
        assert doc["origin"] == "probe"
        assert all(c["codec"] == "zlib" for c in doc["candidates"])

    def test_plan_unknown_selector_errors(self, raw, capsys):
        assert main(["plan", str(raw), "--selector", "bogus"]) != 0
        assert "error" in capsys.readouterr().err

    def test_compress_with_registered_selector_roundtrips(
        self, raw, tmp_path, custom_selector
    ):
        container = tmp_path / "f.isobar"
        restored = tmp_path / "f.rds"
        assert main(["compress", str(raw), str(container),
                     "--selector", custom_selector]) == 0
        assert main(["decompress", str(container), str(restored)]) == 0
        assert np.array_equal(load_raw(raw), load_raw(restored))

    def test_metrics_json_embeds_selector_decision(self, raw, tmp_path):
        import json

        container = tmp_path / "f.isobar"
        blob = tmp_path / "m.json"
        assert main(["compress", str(raw), str(container),
                     "--metrics-json", str(blob)]) == 0
        doc = json.loads(blob.read_text())
        decision = doc["selector_decision"]
        assert decision["origin"] == "probe"
        assert decision["failed_candidates"] == []
        assert decision["candidates"]
