"""Predict-first selection: online regression over content features.

The EUPA-selector (:mod:`repro.core.selector`) times every (codec,
linearization) candidate on a sample — the paper's approach, and the
accuracy oracle.  This module adds two strategies that avoid the
timing probe when they can:

``"learned"`` — :class:`LearnedSelector`
    Extracts cheap content features
    (:func:`repro.analysis.features.extract_features`) from the same
    seeded sample EUPA would draw, and asks an online ridge regressor
    (:class:`OnlineRatioModel`) for each candidate's (ratio,
    throughput).  When every candidate's prediction is *confident* —
    enough observations, low leverage (the sample looks like training
    data), low recent residual — it decides without timing.  Otherwise
    it falls back to one full EUPA probe and feeds every measured
    candidate back into the model as a training example, so accuracy
    improves across chunks, streams and service requests.

``"cached"`` — :class:`CachedSelector`
    The learned strategy behind a :class:`SelectorDecisionCache` — an
    LRU + TTL map keyed by quantized content features plus the config
    fingerprint.  Repeated or near-identical payloads (same variable,
    adjacent timesteps) skip both prediction and probing.  The default
    cache and model are process-wide singletons shared by
    :class:`~repro.core.pipeline.IsobarCompressor`,
    :func:`~repro.core.stream.stream_compress` and the service.

Every decision is produced through the same candidate space as EUPA —
``codec=`` / ``linearization=`` / ``preference=`` overrides restrict
candidates identically for every strategy — and only the *decision*
differs: containers are byte-decodable by the unchanged decoder.
Unexpected failures in the predict path degrade to the probe rather
than raising, and probe failures surface as
:class:`~repro.core.exceptions.SelectorError` (lint rule ISO008).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace as _dc_replace

import numpy as np

from repro.analysis.features import ContentFeatures, extract_features
from repro.core.analyzer import AnalysisResult, analyze
from repro.core.exceptions import ConfigurationError
from repro.core.preferences import IsobarConfig, Preference
from repro.core.selector import (
    CandidatePrediction,
    EupaSelector,
    SelectorDecision,
    register_selector_strategy,
)
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "OnlineRatioModel",
    "LearnedSelector",
    "CachedSelector",
    "SelectorDecisionCache",
    "shared_decision_cache",
    "shared_model",
]

#: Throughput observations are capped here before entering log space —
#: a sub-resolution timer reading must not poison the model with inf.
_MAX_THROUGHPUT = 1e12


class _TargetState:
    """Ridge-regression accumulator for one (codec, linearization)."""

    __slots__ = ("gram", "moment_ratio", "moment_speed", "n", "residual_ema")

    def __init__(self, dim: int, ridge: float):
        self.gram = np.eye(dim) * ridge
        self.moment_ratio = np.zeros(dim)
        self.moment_speed = np.zeros(dim)
        self.n = 0
        self.residual_ema = 0.0


class OnlineRatioModel:
    """Online ridge regression from content features to (ratio, speed).

    One independent target per (codec, linearization) pair, each
    predicting ``log(ratio)`` and ``log(throughput)`` from the feature
    vector.  Updates are rank-1 Gram accumulations — O(d^2) per
    observation, O(d^3) per prediction with d = 12 — and thread-safe,
    so one model can learn from every compressor in the process.

    Confidence combines three signals, all cheap:

    * ``n`` — at least ``min_observations`` training examples;
    * *leverage* ``x^T A^-1 x`` — how far the query sits from the
      training mass (1 for a brand-new direction, ~1/n for a repeat);
    * the exponential moving average of past one-step-ahead residuals
      in log-ratio space — drift pushes it up and probes resume.
    """

    def __init__(
        self,
        *,
        ridge: float = 1e-3,
        min_observations: int = 2,
        max_leverage: float = 0.51,
        max_residual: float = 0.05,
    ):
        self._ridge = ridge
        self._min_observations = min_observations
        self._max_leverage = max_leverage
        self._max_residual = max_residual
        self._targets: dict[tuple, _TargetState] = {}
        self._lock = threading.Lock()

    def _target(self, key: tuple, dim: int) -> _TargetState:
        state = self._targets.get(key)
        if state is None:
            state = _TargetState(dim, self._ridge)
            self._targets[key] = state
        return state

    def observe(
        self,
        features: np.ndarray,
        codec_name: str,
        linearization,
        ratio: float,
        throughput: float,
    ) -> None:
        """Feed one measured candidate evaluation into the model."""
        x = np.asarray(features, dtype=np.float64)
        y_ratio = float(np.log(max(ratio, 1e-9)))
        y_speed = float(
            np.log(min(max(throughput, 1e-9), _MAX_THROUGHPUT))
        )
        key = (codec_name, linearization)
        with self._lock:
            state = self._target(key, x.size)
            if state.n > 0:
                # One-step-ahead residual before the update: how wrong
                # the model would have been on this example.
                predicted = float(
                    x @ np.linalg.solve(state.gram, state.moment_ratio)
                )
                error = abs(predicted - y_ratio)
                state.residual_ema = 0.7 * state.residual_ema + 0.3 * error
            state.gram += np.outer(x, x)
            state.moment_ratio += x * y_ratio
            state.moment_speed += x * y_speed
            state.n += 1

    def predict(
        self, features: np.ndarray, codec_name: str, linearization
    ) -> tuple[float, float, bool]:
        """Predicted ``(ratio, throughput, confident)`` for a candidate."""
        x = np.asarray(features, dtype=np.float64)
        with self._lock:
            state = self._targets.get((codec_name, linearization))
            if state is None or state.n == 0:
                return float("nan"), float("nan"), False
            solved = np.linalg.solve(
                state.gram,
                np.column_stack(
                    (state.moment_ratio, state.moment_speed, x)
                ),
            )
            n = state.n
            residual = state.residual_ema
        ratio = float(np.exp(x @ solved[:, 0]))
        throughput = float(np.exp(x @ solved[:, 1]))
        leverage = float(x @ solved[:, 2])
        confident = (
            n >= self._min_observations
            and leverage <= self._max_leverage
            and residual <= self._max_residual
        )
        return ratio, throughput, confident

    def observation_count(self, codec_name: str, linearization) -> int:
        """Training examples seen for one candidate (0 if none)."""
        with self._lock:
            state = self._targets.get((codec_name, linearization))
            return state.n if state is not None else 0


class SelectorDecisionCache:
    """LRU + TTL map from content fingerprints to selector decisions.

    Keys combine the quantized :meth:`ContentFeatures.cache_key` with
    the config fingerprint (candidate space, preference, tau, sample
    size), so a config change can never replay a stale decision — the
    old entries simply stop matching.  Thread-safe; the clock is
    injectable for TTL tests.
    """

    def __init__(
        self,
        *,
        max_entries: int = 256,
        ttl_seconds: float = 300.0,
        clock=time.monotonic,
    ):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be positive, got {max_entries!r}"
            )
        self._max_entries = max_entries
        self._ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[SelectorDecision, float]]
        self._entries = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._expirations = 0
        self._evictions = 0

    def get(self, key: tuple) -> SelectorDecision | None:
        """The cached decision for ``key``, or ``None`` (miss/expired)."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            decision, stamp = entry
            if now - stamp > self._ttl_seconds:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return decision

    def put(self, key: tuple, decision: SelectorDecision) -> None:
        """Store ``decision`` under ``key``, evicting the LRU overflow."""
        with self._lock:
            self._entries[key] = (decision, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Lookup accounting for ``/v1/stats`` and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "ttl_seconds": self._ttl_seconds,
                "hits": self._hits,
                "misses": self._misses,
                "expirations": self._expirations,
                "evictions": self._evictions,
            }


def _config_fingerprint(config: IsobarConfig) -> tuple:
    """The config facets that change what a selector would decide."""
    return (
        config.tau,
        config.preference.value,
        config.codec,
        config.linearization.value if config.linearization else None,
        tuple(config.candidate_codecs),
        config.sample_elements,
        config.min_acceptable_ratio_fraction,
    )


#: Process-wide defaults: one model and one cache shared by every
#: compressor, streaming writer and service request that selects the
#: "learned" / "cached" strategies by name.
_SHARED_MODEL = OnlineRatioModel()
_SHARED_CACHE = SelectorDecisionCache()


def shared_model() -> OnlineRatioModel:
    """The process-wide online model behind the named strategies."""
    return _SHARED_MODEL


def shared_decision_cache() -> SelectorDecisionCache:
    """The process-wide decision cache behind ``selector="cached"``."""
    return _SHARED_CACHE


class LearnedSelector:
    """Predict-first strategy: regress, decide if confident, else probe.

    Drop-in for :class:`~repro.core.selector.EupaSelector` — the same
    ``select(values, analysis=None)`` surface, the same candidate
    space, the same :class:`SelectorDecision` — but the timing probe
    only runs when the model is uncertain, and its measurements become
    training examples.
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        model: OnlineRatioModel | None = None,
    ):
        self._config = config or IsobarConfig()
        self._metrics = NULL_REGISTRY if metrics is None else metrics
        self._instruments = PipelineInstruments(self._metrics)
        self._model = model if model is not None else shared_model()
        self._probe = EupaSelector(self._config, metrics=metrics)
        #: Why the most recent predict path degraded to a probe
        #: (``None`` while the predict path is healthy).
        self.last_degrade: str | None = None

    @property
    def config(self) -> IsobarConfig:
        """The configuration driving candidate generation and choice."""
        return self._config

    @property
    def model(self) -> OnlineRatioModel:
        """The online model this strategy reads and trains."""
        return self._model

    def draw_sample(self, values: np.ndarray) -> np.ndarray:
        """The seeded sample draw (identical to the EUPA selector's)."""
        return self._probe.draw_sample(values)

    def select(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None = None,
    ) -> SelectorDecision:
        """Decide from predictions when confident, else probe and learn."""
        started = time.perf_counter()
        sample = self._probe.draw_sample(values)
        if analysis is None:
            analysis = analyze(sample, tau=self._config.tau)
        features = None
        predictions: tuple[CandidatePrediction, ...] = ()
        try:
            features = extract_features(sample)
            predictions = self._predict_candidates(features)
        except Exception as exc:  # noqa: BLE001 - predict-path containment
            # A broken feature extraction or model must never make the
            # selector worse than EUPA: degrade to the probe.  Probe
            # failures themselves surface as SelectorError below.
            features = None
            predictions = ()
            self.last_degrade = f"{type(exc).__name__}: {exc}"
        if predictions and all(p.confident for p in predictions):
            decision = self._decide_from_predictions(
                predictions, analysis, sample
            )
            if self._metrics.enabled:
                self._instruments.record_selector(decision)
                self._instruments.selector_predictions.inc(
                    1, outcome="predicted"
                )
                self._instruments.selector_decision_seconds.observe(
                    time.perf_counter() - started, strategy="learned"
                )
            return decision
        return self._probe_and_learn(
            values, analysis, features, predictions, started
        )

    # -- prediction path --------------------------------------------------

    def _predict_candidates(
        self, features: ContentFeatures
    ) -> tuple[CandidatePrediction, ...]:
        x = np.asarray(features.vector(), dtype=np.float64)
        predictions = []
        for codec_name, lin in self._probe._candidate_space():
            ratio, throughput, confident = self._model.predict(
                x, codec_name, lin
            )
            predictions.append(
                CandidatePrediction(
                    codec_name=codec_name,
                    linearization=lin,
                    predicted_ratio=ratio,
                    predicted_throughput=throughput,
                    confident=confident,
                )
            )
        return tuple(predictions)

    def _pick_prediction(
        self, predictions: tuple[CandidatePrediction, ...]
    ) -> CandidatePrediction:
        # Mirror of EupaSelector._pick over predicted numbers, so the
        # preference semantics are identical on both paths.
        best_ratio = max(p.predicted_ratio for p in predictions)
        if self._config.preference is Preference.RATIO:
            return max(predictions, key=lambda p: p.predicted_ratio)
        floor = best_ratio * self._config.min_acceptable_ratio_fraction
        acceptable = [
            p for p in predictions if p.predicted_ratio >= floor
        ] or list(predictions)
        return max(acceptable, key=lambda p: p.predicted_throughput)

    def _decide_from_predictions(
        self,
        predictions: tuple[CandidatePrediction, ...],
        analysis: AnalysisResult,
        sample: np.ndarray,
    ) -> SelectorDecision:
        best = self._pick_prediction(predictions)
        return SelectorDecision(
            codec_name=best.codec_name,
            linearization=best.linearization,
            preference=self._config.preference,
            improvable=analysis.improvable,
            candidates=(),
            sample_elements=int(sample.size),
            origin="predicted",
            predictions=predictions,
        )

    # -- probe fallback ---------------------------------------------------

    def _probe_and_learn(
        self,
        values: np.ndarray,
        analysis: AnalysisResult,
        features: ContentFeatures | None,
        predictions: tuple[CandidatePrediction, ...],
        started: float,
    ) -> SelectorDecision:
        decision = self._probe.select_exhaustive(values, analysis=analysis)
        if features is not None:
            x = np.asarray(features.vector(), dtype=np.float64)
            for cand in decision.candidates:
                self._model.observe(
                    x, cand.codec_name, cand.linearization,
                    cand.ratio, cand.throughput,
                )
        if self._metrics.enabled:
            self._instruments.selector_predictions.inc(1, outcome="probed")
            self._instruments.selector_decision_seconds.observe(
                time.perf_counter() - started, strategy="learned"
            )
            self._record_regret(predictions, decision)
        return _dc_replace(decision, predictions=predictions)

    def _record_regret(
        self,
        predictions: tuple[CandidatePrediction, ...],
        decision: SelectorDecision,
    ) -> None:
        """Measured regret of the would-be prediction, when comparable."""
        usable = [
            p for p in predictions if np.isfinite(p.predicted_ratio)
        ]
        if len(usable) != len(predictions) or not predictions:
            return
        pick = self._pick_prediction(predictions)
        measured = {
            (c.codec_name, c.linearization): c.ratio
            for c in decision.candidates
        }
        picked = measured.get((pick.codec_name, pick.linearization))
        if picked is None or not measured:
            return
        best = max(measured.values())
        if best <= 0:
            return
        self._instruments.selector_regret.observe(
            max(0.0, (best - picked) / best)
        )


class CachedSelector:
    """The learned strategy behind a shared LRU + TTL decision cache.

    A lookup costs one sample draw plus one feature extraction — still
    an order of magnitude below a timing probe — and a hit replays the
    stored decision with ``origin="cached"``.  Misses delegate to the
    wrapped :class:`LearnedSelector` (reusing the already-extracted
    features) and store its decision.
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        cache: SelectorDecisionCache | None = None,
        inner: LearnedSelector | None = None,
    ):
        self._config = config or IsobarConfig()
        self._metrics = NULL_REGISTRY if metrics is None else metrics
        self._instruments = PipelineInstruments(self._metrics)
        self._cache = cache if cache is not None else shared_decision_cache()
        self._inner = (
            inner
            if inner is not None
            else LearnedSelector(self._config, metrics=metrics)
        )
        #: Why the most recent lookup skipped the cache (``None`` while
        #: inputs remain keyable).
        self.last_degrade: str | None = None

    @property
    def config(self) -> IsobarConfig:
        """The configuration driving candidate generation and choice."""
        return self._config

    @property
    def cache(self) -> SelectorDecisionCache:
        """The decision cache this strategy consults."""
        return self._cache

    def select(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None = None,
    ) -> SelectorDecision:
        """Replay a cached decision, or decide via the learned path."""
        started = time.perf_counter()
        key = None
        try:
            sample = self._inner.draw_sample(values)
            features = extract_features(sample)
            key = (
                _config_fingerprint(self._config),
                features.cache_key(),
            )
        except Exception as exc:  # noqa: BLE001 - cache-path containment
            # An unkeyable input skips the cache, never the decision.
            key = None
            self.last_degrade = f"{type(exc).__name__}: {exc}"
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                decision = _dc_replace(cached, origin="cached")
                if self._metrics.enabled:
                    self._instruments.selector_cache_hits.inc()
                    self._instruments.selector_predictions.inc(
                        1, outcome="cached"
                    )
                    self._instruments.selector_decision_seconds.observe(
                        time.perf_counter() - started, strategy="cached"
                    )
                return decision
            if self._metrics.enabled:
                self._instruments.selector_cache_misses.inc()
        decision = self._inner.select(values, analysis=analysis)
        if key is not None:
            # The trial's bytes serve this call only; never cache them.
            self._cache.put(key, decision.without_trial())
        return decision


register_selector_strategy(
    "learned",
    lambda config, metrics: LearnedSelector(config, metrics=metrics),
    replace=True,
)
register_selector_strategy(
    "cached",
    lambda config, metrics: CachedSelector(config, metrics=metrics),
    replace=True,
)
