"""Tier-1 gate for the repo invariant linter (``repro.devtools``).

Two layers:

* the shipped source tree must lint clean under the full rule pack,
  with every surviving suppression carrying a reason;
* each rule must fire on a known-bad fixture and stay quiet on the
  known-good twin, so a rule silently dying cannot pass unnoticed.

Fixtures run through :func:`module_from_source` with rule-scoped
module names (``repro.core.pipeline`` etc.), exactly how the engine
sees real files.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.devtools import (
    default_rules,
    lint_modules,
    lint_paths,
    module_from_source,
)
from repro.devtools.engine import META_RULE_ID, PARSE_RULE_ID
from repro.devtools.rules import (
    AsyncBlockingRule,
    ChunkModeSymmetryRule,
    ErrorHierarchyRule,
    ExceptSwallowRule,
    FacadeContractRule,
    LockOrderRule,
    MetricsGuardRule,
    RegistryLockRule,
    ResourceLifecycleRule,
    SelectorContractRule,
    ServiceStatusMapRule,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")


def run_rule(rule, source, *, module="repro.core.pipeline"):
    """Lint a dedented fixture snippet as if it lived in ``module``."""
    mod = module_from_source(
        textwrap.dedent(source), path="fixture.py", module=module
    )
    return lint_modules([mod], [rule])


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


class TestShippedTreeIsClean:
    def test_package_lints_clean(self):
        report = lint_paths([PACKAGE], default_rules())
        assert report.ok, "\n" + report.render_text()

    def test_every_suppression_carries_a_reason(self):
        report = lint_paths([PACKAGE], default_rules())
        assert report.suppressed, "expected the documented suppressions"
        for finding, suppression in report.suppressed:
            assert suppression.explained, finding.render()

    def test_py_typed_marker_ships(self):
        assert os.path.exists(os.path.join(PACKAGE, "py.typed"))


class TestMetricsGuardRule:
    BAD = """
    class Pipeline:
        def run(self):
            self.metrics.counter("chunks").inc()
    """

    def test_fires_on_unguarded_call(self):
        report = run_rule(MetricsGuardRule(), self.BAD)
        assert rule_ids(report) == ["ISO001"]

    def test_quiet_outside_hot_modules(self):
        report = run_rule(
            MetricsGuardRule(), self.BAD, module="repro.bench.tables"
        )
        assert report.ok

    def test_quiet_for_null_object_default(self):
        report = run_rule(
            MetricsGuardRule(),
            """
            NULL_TRACER = object()

            def encode(chunk, tracer=NULL_TRACER):
                tracer.add("partition", 0.1)
            """,
        )
        assert report.ok

    def test_quiet_behind_enabled_guard(self):
        report = run_rule(
            MetricsGuardRule(),
            """
            class Pipeline:
                def run(self):
                    if self._metrics.enabled:
                        self._metrics.counter("chunks").inc()
            """,
        )
        assert report.ok

    def test_null_safety_propagates_through_copies(self):
        report = run_rule(
            MetricsGuardRule(),
            """
            NULL_REGISTRY = object()

            class Pipeline:
                def __init__(self, metrics=None):
                    self._registry = NULL_REGISTRY if metrics is None else metrics

                def run(self):
                    registry = self._registry
                    registry.counter("chunks").inc()
            """,
        )
        assert report.ok


class TestRegistryLockRule:
    def test_fires_on_unlocked_mutation(self):
        report = run_rule(
            RegistryLockRule(),
            """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value
            """,
        )
        assert rule_ids(report) == ["ISO002"]

    def test_quiet_under_lock(self):
        report = run_rule(
            RegistryLockRule(),
            """
            import threading

            _REGISTRY = {}
            _REGISTRY_LOCK = threading.Lock()

            def register(name, value):
                with _REGISTRY_LOCK:
                    _REGISTRY[name] = value

            def drop(name):
                with _REGISTRY_LOCK:
                    _REGISTRY.pop(name, None)
            """,
        )
        assert report.ok

    def test_quiet_for_import_time_population(self):
        report = run_rule(
            RegistryLockRule(),
            """
            _REGISTRY = {}
            for name in ("a", "b"):
                _REGISTRY[name] = name.upper()
            """,
        )
        assert report.ok

    def test_allowlisted_function_is_exempt(self):
        report = run_rule(
            RegistryLockRule(allowlist={"bootstrap"}),
            """
            _REGISTRY = {}

            def bootstrap():
                _REGISTRY.clear()
            """,
        )
        assert report.ok


class TestChunkModeSymmetryRule:
    def test_fires_on_member_missing_from_encoder(self):
        report = run_rule(
            ChunkModeSymmetryRule(),
            """
            class ChunkMode:
                PASSTHROUGH = 0
                PARTITIONED = 1

            def encode_chunk_payload(mode):
                return ChunkMode.PARTITIONED

            def decode_chunk_payload(mode):
                if mode is ChunkMode.PARTITIONED:
                    return 1
                if mode is ChunkMode.PASSTHROUGH:
                    return 0
            """,
        )
        assert rule_ids(report) == ["ISO003"]
        assert "PASSTHROUGH" in report.findings[0].message
        assert "encoder" in report.findings[0].message

    def test_quiet_when_both_sides_match_every_member(self):
        report = run_rule(
            ChunkModeSymmetryRule(),
            """
            class ChunkMode:
                PASSTHROUGH = 0
                PARTITIONED = 1

            def encode_chunk_payload(mode):
                if mode is ChunkMode.PARTITIONED:
                    return 1
                return ChunkMode.PASSTHROUGH

            def decode_chunk_payload(mode):
                if mode is ChunkMode.PARTITIONED:
                    return 1
                if mode is ChunkMode.PASSTHROUGH:
                    return 0
            """,
        )
        assert report.ok

    def test_quiet_without_the_full_triangle(self):
        # Linting the enum alone must not flag every member as missing.
        report = run_rule(
            ChunkModeSymmetryRule(),
            """
            class ChunkMode:
                PASSTHROUGH = 0
            """,
        )
        assert report.ok


class TestFacadeContractRule:
    def test_fires_on_positional_parameters(self):
        report = run_rule(
            FacadeContractRule(),
            """
            def compress(values, level):
                return values
            """,
            module="repro.api",
        )
        assert rule_ids(report) == ["ISO004"]
        assert "level" in report.findings[0].message

    def test_fires_on_unrouted_errors_policy(self):
        report = run_rule(
            FacadeContractRule(),
            """
            def decompress(data, *, errors="raise"):
                return data
            """,
            module="repro.api",
        )
        assert rule_ids(report) == ["ISO004"]
        assert "normalize_errors" in report.findings[0].message

    def test_quiet_for_conforming_facade(self):
        report = run_rule(
            FacadeContractRule(),
            """
            def decompress(data, *, errors="raise"):
                normalize_errors(errors)
                return data

            def salvage(data, *, errors="salvage-skip"):
                return lower_layer(data, errors=errors)

            def _helper(a, b, c):
                return a
            """,
            module="repro.api",
        )
        assert report.ok

    def test_quiet_outside_facade_modules(self):
        report = run_rule(
            FacadeContractRule(),
            """
            def helper(a, b, c):
                return a
            """,
            module="repro.core.pipeline",
        )
        assert report.ok


class TestExceptSwallowRule:
    def test_fires_on_silent_broad_except(self):
        report = run_rule(
            ExceptSwallowRule(),
            """
            def run():
                try:
                    work()
                except Exception:
                    pass
            """,
            module="repro.core.pipeline",
        )
        assert rule_ids(report) == ["ISO005"]

    def test_fires_on_bare_except(self):
        report = run_rule(
            ExceptSwallowRule(),
            """
            def run():
                try:
                    work()
                except:
                    result = None
            """,
            module="repro.codecs.lzss",
        )
        assert rule_ids(report) == ["ISO005"]

    def test_quiet_when_handler_accounts_for_failure(self):
        report = run_rule(
            ExceptSwallowRule(),
            """
            def reraises():
                try:
                    work()
                except Exception:
                    raise

            def threads_it_onward(box):
                try:
                    work()
                except BaseException as exc:
                    box.append(("err", exc))

            def logs_it(log):
                try:
                    work()
                except Exception:
                    log.warning("work failed")
            """,
            module="repro.core.stream",
        )
        assert report.ok

    def test_quiet_outside_core_and_codecs(self):
        report = run_rule(
            ExceptSwallowRule(),
            """
            def run():
                try:
                    work()
                except Exception:
                    pass
            """,
            module="repro.testing.faults",
        )
        assert report.ok

    def test_narrow_except_is_fine(self):
        report = run_rule(
            ExceptSwallowRule(),
            """
            def run():
                try:
                    work()
                except KeyError:
                    pass
            """,
            module="repro.core.pipeline",
        )
        assert report.ok


class TestErrorHierarchyRule:
    def test_fires_on_builtin_raise(self):
        report = run_rule(
            ErrorHierarchyRule(),
            """
            def check(n):
                if n < 0:
                    raise ValueError("negative")
            """,
            module="repro.bench.report",
        )
        assert rule_ids(report) == ["ISO006"]

    def test_quiet_for_hierarchy_and_reraise(self):
        report = run_rule(
            ErrorHierarchyRule(),
            """
            def check(n):
                if n < 0:
                    raise InvalidInputError("negative")
                try:
                    work()
                except Exception as exc:
                    raise CodecError("wrapped") from exc

            def passthrough(exc):
                raise exc
            """,
            module="repro.core.pipeline",
        )
        assert report.ok

    def test_quiet_outside_repro(self):
        report = run_rule(
            ErrorHierarchyRule(),
            """
            def check(n):
                raise ValueError("negative")
            """,
            module="fixture",
        )
        assert report.ok


class TestServiceStatusMapRule:
    def test_fires_on_swallowed_broad_catch(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            async def handle(writer):
                try:
                    work()
                except Exception:
                    return 0
            """,
            module="repro.service.app",
        )
        assert rule_ids(report) == ["ISO007"]

    def test_fires_on_swallowed_repo_exception(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            async def handle(writer):
                try:
                    work()
                except CodecError:
                    pass
            """,
            module="repro.service.app",
        )
        assert rule_ids(report) == ["ISO007"]

    def test_quiet_when_handler_resolves(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            async def funnelled(writer):
                try:
                    work()
                except Exception as exc:
                    status = status_for_exception(exc)
                    await write_response(writer, status, error_body(exc))

            async def reraised(writer):
                try:
                    work()
                except CodecError:
                    raise

            def threaded(feed):
                try:
                    work()
                except IsobarError as exc:
                    feed.fail(exc)
            """,
            module="repro.service.app",
        )
        assert report.ok

    def test_narrow_builtin_catches_are_out_of_scope(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            def close(writer):
                try:
                    writer.close()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            """,
            module="repro.service.app",
        )
        assert report.ok

    def test_fires_on_hard_coded_500(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            async def handle(writer):
                await write_response(writer, 500, b"oops")
            """,
            module="repro.service.app",
        )
        assert rule_ids(report) == ["ISO007"]

    def test_fires_on_500_status_keyword(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            async def handle(writer):
                await write_chunked_preamble(writer, status=500)
            """,
            module="repro.service.app",
        )
        assert rule_ids(report) == ["ISO007"]

    def test_funnel_module_is_exempt(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            def error_payload(exc):
                try:
                    return mapping[type(exc)]
                except Exception:
                    return 0

            FALLBACK = error_body(None, status=500)
            """,
            module="repro.service.errors",
        )
        assert report.ok

    def test_quiet_outside_the_service_package(self):
        report = run_rule(
            ServiceStatusMapRule(),
            """
            def handle():
                try:
                    work()
                except Exception:
                    pass
            """,
            module="repro.core.pipeline",
        )
        assert report.ok


class TestSelectorContractRule:
    def test_fires_on_unlocked_registry_mutation(self):
        report = run_rule(
            SelectorContractRule(),
            """
            def sneak(factory):
                _STRATEGIES["mine"] = factory
            """,
            module="repro.core.selector",
        )
        assert rule_ids(report) == ["ISO008"]

    def test_fires_on_registry_bypass_from_another_module(self):
        report = run_rule(
            SelectorContractRule(),
            """
            from repro.core import selector

            selector._STRATEGIES["mine"] = object()
            """,
            module="repro.insitu.driver",
        )
        assert rule_ids(report) == ["ISO008"]

    def test_quiet_when_mutation_holds_the_lock(self):
        report = run_rule(
            SelectorContractRule(),
            """
            def register(name, factory):
                with _STRATEGY_LOCK:
                    _STRATEGIES[name] = factory
            """,
            module="repro.core.selector",
        )
        assert report.ok

    def test_fires_on_funnel_escape(self):
        report = run_rule(
            SelectorContractRule(),
            """
            def select(values):
                try:
                    return probe(values)
                except SelectorError:
                    raise RuntimeError("probe failed")
            """,
            module="repro.core.selector_custom",
        )
        assert rule_ids(report) == ["ISO008"]

    def test_quiet_on_reraise_and_selector_error(self):
        report = run_rule(
            SelectorContractRule(),
            """
            def select(values):
                try:
                    return probe(values)
                except Exception as exc:
                    raise SelectorError(f"probe failed: {exc}") from exc

            def degrade(values):
                try:
                    return probe(values)
                except SelectorError:
                    raise
            """,
            module="repro.core.selector_custom",
        )
        assert report.ok

    def test_funnel_check_is_scoped_to_selector_modules(self):
        report = run_rule(
            SelectorContractRule(),
            """
            def handle(values):
                try:
                    return probe(values)
                except SelectorError:
                    raise RuntimeError("translated elsewhere is ISO006's job")
            """,
            module="repro.service.app",
        )
        assert report.ok


class TestSuppressions:
    SOURCE = """
    _REGISTRY = {{}}

    def register(name, value):
        _REGISTRY[name] = value  # isobar: ignore[ISO002]{reason}
    """

    def test_unexplained_suppression_is_reported(self):
        report = run_rule(
            RegistryLockRule(),
            self.SOURCE.format(reason=""),
        )
        assert rule_ids(report) == [META_RULE_ID]
        assert len(report.suppressed) == 1

    def test_explained_suppression_silences_the_finding(self):
        report = run_rule(
            RegistryLockRule(),
            self.SOURCE.format(reason=" single-threaded bootstrap"),
        )
        assert report.ok
        finding, suppression = report.suppressed[0]
        assert finding.rule_id == "ISO002"
        assert suppression.reason == "single-threaded bootstrap"

    def test_comment_line_above_also_suppresses(self):
        report = run_rule(
            RegistryLockRule(),
            """
            _REGISTRY = {}

            def register(name, value):
                # isobar: ignore[ISO002] single-threaded bootstrap
                _REGISTRY[name] = value
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 1

    def test_unrelated_rule_id_does_not_suppress(self):
        report = run_rule(
            RegistryLockRule(),
            """
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value  # isobar: ignore[ISO005] wrong rule
            """,
        )
        assert rule_ids(report) == ["ISO002"]


class TestRunner:
    def _run(self, *argv, cwd=REPO_ROOT):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", *argv],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_clean_tree_exits_zero(self):
        proc = self._run(PACKAGE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_violation_exits_one_with_json_report(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    raise ValueError('x')\n")
        proc = self._run("--json", str(tmp_path))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert [f["rule_id"] for f in payload["findings"]] == ["ISO006"]
        assert payload["findings"][0]["line"] == 2

    def test_syntax_error_is_reported_not_fatal(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 1
        assert PARSE_RULE_ID in proc.stdout

    def test_cli_subcommand_matches_runner(self):
        from repro.cli import main

        assert main(["lint", PACKAGE]) == 0


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed in this environment",
)
def test_mypy_passes_on_strict_set():
    proc = subprocess.run(
        [
            sys.executable, "-m", "mypy",
            "--config-file", os.path.join(REPO_ROOT, "pyproject.toml"),
        ],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestLockOrderRule:
    BAD = """
    import threading

    ALPHA = threading.Lock()
    BETA = threading.Lock()

    def forward():
        with ALPHA:
            with BETA:
                pass

    def backward():
        with BETA:
            with ALPHA:
                pass
    """

    GOOD = """
    import threading

    ALPHA = threading.Lock()
    BETA = threading.Lock()

    def forward():
        with ALPHA:
            with BETA:
                pass

    def also_forward():
        with ALPHA:
            with BETA:
                pass
    """

    def test_fires_on_lexical_inversion(self):
        report = run_rule(LockOrderRule(), self.BAD)
        assert rule_ids(report) == ["ISO009"]
        assert "ALPHA" in report.findings[0].message
        assert "BETA" in report.findings[0].message

    def test_quiet_on_consistent_order(self):
        report = run_rule(LockOrderRule(), self.GOOD)
        assert report.ok

    def test_fires_on_call_under_lock(self):
        report = run_rule(
            LockOrderRule(),
            """
            import threading

            ALPHA = threading.Lock()
            BETA = threading.Lock()

            def take_beta():
                with BETA:
                    pass

            def forward():
                with ALPHA:
                    take_beta()

            def backward():
                with BETA:
                    with ALPHA:
                        pass
            """,
        )
        assert rule_ids(report) == ["ISO009"]

    def test_fires_across_modules(self):
        alpha = module_from_source(
            textwrap.dedent(
                """
                import threading
                from repro.core.beta import take_beta

                ALPHA = threading.Lock()

                def take_alpha():
                    with ALPHA:
                        pass

                def outer():
                    with ALPHA:
                        take_beta()
                """
            ),
            path="alpha.py",
            module="repro.core.alpha",
        )
        beta = module_from_source(
            textwrap.dedent(
                """
                import threading
                from repro.core.alpha import take_alpha

                BETA = threading.Lock()

                def take_beta():
                    with BETA:
                        pass

                def reverse():
                    with BETA:
                        take_alpha()
                """
            ),
            path="beta.py",
            module="repro.core.beta",
        )
        report = lint_modules([alpha, beta], [LockOrderRule()])
        assert rule_ids(report) == ["ISO009"]
        assert "repro.core.alpha.ALPHA" in report.findings[0].message
        assert "repro.core.beta.BETA" in report.findings[0].message

    def test_self_deadlock_on_plain_lock(self):
        report = run_rule(
            LockOrderRule(),
            """
            import threading

            GUARD = threading.Lock()

            def inner():
                with GUARD:
                    pass

            def outer():
                with GUARD:
                    inner()
            """,
        )
        assert rule_ids(report) == ["ISO009"]
        assert "re-acquired" in report.findings[0].message

    def test_rlock_self_nesting_is_legal(self):
        report = run_rule(
            LockOrderRule(),
            """
            import threading

            GUARD = threading.RLock()

            def inner():
                with GUARD:
                    pass

            def outer():
                with GUARD:
                    inner()
            """,
        )
        assert report.ok

    def test_instance_locks_share_one_node(self):
        report = run_rule(
            LockOrderRule(),
            """
            import threading

            class Board:
                def __init__(self):
                    self._state_lock = threading.Lock()
                    self._emit_lock = threading.Lock()

                def record(self):
                    with self._state_lock:
                        with self._emit_lock:
                            pass

                def publish(self):
                    with self._emit_lock:
                        with self._state_lock:
                            pass
            """,
        )
        assert rule_ids(report) == ["ISO009"]

    def test_deferred_bodies_do_not_inherit_held_locks(self):
        report = run_rule(
            LockOrderRule(),
            """
            import threading

            ALPHA = threading.Lock()
            BETA = threading.Lock()

            def forward():
                with ALPHA:
                    with BETA:
                        pass

            def ships_work(executor):
                with BETA:
                    def job():
                        with ALPHA:
                            pass
                    executor.submit(job)
            """,
        )
        assert report.ok


class TestAsyncBlockingRule:
    BAD = """
    import time

    async def handle(request):
        time.sleep(0.1)
    """

    def test_fires_on_sleep_in_service_handler(self):
        report = run_rule(
            AsyncBlockingRule(), self.BAD, module="repro.service.fixture"
        )
        assert rule_ids(report) == ["ISO010"]

    def test_quiet_outside_the_service_package(self):
        report = run_rule(
            AsyncBlockingRule(), self.BAD, module="repro.core.pipeline"
        )
        assert report.ok

    def test_fires_on_lock_acquisition_in_handler(self):
        report = run_rule(
            AsyncBlockingRule(),
            """
            import threading

            STATE_LOCK = threading.Lock()

            async def handle(request):
                with STATE_LOCK:
                    return request
            """,
            module="repro.service.fixture",
        )
        assert rule_ids(report) == ["ISO010"]

    def test_fires_through_sync_helper(self):
        report = run_rule(
            AsyncBlockingRule(),
            """
            import time

            def warm_up():
                time.sleep(0.5)

            async def handle(request):
                warm_up()
            """,
            module="repro.service.fixture",
        )
        assert rule_ids(report) == ["ISO010"]
        assert "warm_up" in report.findings[0].message

    def test_quiet_when_routed_through_executor(self):
        report = run_rule(
            AsyncBlockingRule(),
            """
            import asyncio

            async def handle(request, compressor):
                loop = asyncio.get_running_loop()

                def _work():
                    return compressor.compress(request.body)

                return await loop.run_in_executor(None, _work)
            """,
            module="repro.service.fixture",
        )
        assert report.ok

    def test_quiet_for_awaited_coroutines(self):
        report = run_rule(
            AsyncBlockingRule(),
            """
            import asyncio

            async def handle(request):
                await asyncio.sleep(0.01)
                return request
            """,
            module="repro.service.fixture",
        )
        assert report.ok


class TestResourceLifecycleRule:
    def test_fires_on_unreleased_local_executor(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(jobs):
                pool = ThreadPoolExecutor(4)
                return [pool.submit(job) for job in jobs]
            """,
        )
        assert rule_ids(report) == ["ISO011"]
        assert "no reachable release" in report.findings[0].message

    def test_fires_on_happy_path_only_release(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(jobs):
                pool = ThreadPoolExecutor(4)
                results = [f.result() for f in map(pool.submit, jobs)]
                pool.shutdown()
                return results
            """,
        )
        assert rule_ids(report) == ["ISO011"]
        assert "happy path" in report.findings[0].message

    def test_quiet_for_with_block(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(jobs):
                with ThreadPoolExecutor(4) as pool:
                    return [f.result() for f in map(pool.submit, jobs)]
            """,
        )
        assert report.ok

    def test_quiet_for_finally_release(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(jobs):
                pool = ThreadPoolExecutor(4)
                try:
                    return [f.result() for f in map(pool.submit, jobs)]
                finally:
                    pool.shutdown(wait=False)
            """,
        )
        assert report.ok

    def test_attribute_needs_releasing_method(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            class Service:
                def __init__(self):
                    self._executor = ThreadPoolExecutor(4)
            """,
        )
        assert rule_ids(report) == ["ISO011"]

    def test_attribute_with_teardown_method_is_quiet(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from concurrent.futures import ThreadPoolExecutor

            class Service:
                def __init__(self):
                    self._executor = ThreadPoolExecutor(4)

                def drain(self):
                    self._executor.shutdown(wait=False)
            """,
        )
        assert report.ok

    def test_created_segment_needs_unlink(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def ship(payload):
                block = SharedMemory(create=True, size=len(payload))
                try:
                    block.buf[: len(payload)] = payload
                finally:
                    block.close()
            """,
        )
        assert rule_ids(report) == ["ISO011"]
        assert "unlink" in report.findings[0].message

    def test_created_segment_fully_released_is_quiet(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def ship(payload):
                block = SharedMemory(create=True, size=len(payload))
                try:
                    block.buf[: len(payload)] = payload
                finally:
                    block.close()
                    block.unlink()
            """,
        )
        assert report.ok

    def test_attached_segment_only_needs_close(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def read(name, size):
                block = SharedMemory(name=name)
                try:
                    return bytes(block.buf[:size])
                finally:
                    block.close()
            """,
        )
        assert report.ok

    def test_done_callback_release_is_guarded(self):
        report = run_rule(
            ResourceLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def ship(pool, payload):
                block = SharedMemory(create=True, size=len(payload))
                try:
                    future = pool.submit(len, payload)
                    future.add_done_callback(
                        lambda _f: release_block(block)
                    )
                except BaseException:
                    release_block(block)
                    raise
                return future
            """,
        )
        assert report.ok
