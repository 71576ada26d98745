"""EUPA-selector: End User's Preference Adaptive Selector (Section II-C).

The selector decides which solver (codec) and which byte-level
linearization the workflow should use, by actually *trying* every
candidate combination on a training sample of the input and timing it:

1. draw a sample of elements from the input,
2. for each (codec, linearization) pair, run the sample through the
   same partition-and-compress path the real chunk will take,
3. pick the winner for the user's preference — best ratio (``RATIO``)
   or highest throughput whose ratio is still acceptable (``SPEED``).

Explicit user overrides of the codec and/or linearization restrict the
candidate set rather than bypassing the evaluation, so the decision
record always carries measured numbers.

Each distinct trial input is built once per decision: an improvable
sample is partitioned once per linearization and every codec
compresses that partition.  Linearizations whose inputs are
byte-identical (an undetermined sample, which passes to the solver
whole, or a partition with one compressible column) share one
compression per codec, and their rows carry the same measurement.

Under the RATIO preference a probe whose sample is the whole input is
staged: a frozen estimator (:mod:`repro.core.probe_estimator`)
predicts every candidate's solver output, the trials run in order of
prediction, and a candidate whose prediction, scaled by an exact
trial and lowered by the estimator's measured error bound, cannot
beat that trial by more than the 0.5% regret budget is not trialled
(its estimate goes on the decision's ``predictions``).

When the sample is the whole input, the winning trial's solver input
and output ride on the decision (:class:`WinningTrial`) so the encoder
can reuse them as chunk 0's compressed stream instead of solving the
same bytes again.

Sampling note: the paper samples "random elements"; we sample a few
random *contiguous runs* totalling the same element count, because
scattering individual elements would destroy the byte-stream locality
LZ77-family solvers depend on and systematically underestimate every
candidate's ratio.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.codecs.base import Codec, get_codec
from repro.core.analyzer import AnalysisResult, analyze
from repro.core.exceptions import ConfigurationError, SelectorError
from repro.core.partitioner import partition
from repro.core.preferences import IsobarConfig, Linearization, Preference
from repro.core.probe_estimator import error_bound, estimate_outputs
from repro.observability.instruments import PipelineInstruments
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "CandidateEvaluation",
    "CandidateFailure",
    "CandidatePrediction",
    "SelectorDecision",
    "SelectorStrategy",
    "WinningTrial",
    "EupaSelector",
    "register_selector_strategy",
    "selector_strategy_names",
    "resolve_selector",
]

_SAMPLE_RUNS = 8

#: The staged probe's regret budget: the chosen candidate may be at
#: most this fraction larger than a candidate the probe skipped.
REGRET_BUDGET = 0.005


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class CandidateEvaluation:
    """Measured performance of one (codec, linearization) candidate."""

    codec_name: str
    linearization: Linearization
    sample_bytes: int
    compressed_bytes: int
    compress_seconds: float

    @property
    def ratio(self) -> float:
        """End-to-end sample compression ratio (payload + raw noise)."""
        return self.sample_bytes / self.compressed_bytes

    @property
    def throughput(self) -> float:
        """Sample compression throughput in bytes/second."""
        if self.compress_seconds <= 0.0:
            return float("inf")
        return self.sample_bytes / self.compress_seconds


@dataclass(frozen=True)
class CandidateFailure:
    """A candidate whose trial evaluation raised and was skipped."""

    codec_name: str
    linearization: Linearization
    error: str


@dataclass(frozen=True)
class CandidatePrediction:
    """An estimate for one (codec, linearization) candidate.

    The staged EUPA probe emits one for each candidate its size
    estimate ruled out: ``predicted_ratio`` is the sample ratio that
    estimate implies, ``confident`` is true and
    ``predicted_throughput`` is 0.0 (no time is estimated).  A custom
    strategy may emit its own, with ``confident`` marking whether an
    estimate cleared that strategy's uncertainty rule.
    """

    codec_name: str
    linearization: Linearization
    predicted_ratio: float
    predicted_throughput: float
    confident: bool


@dataclass(frozen=True, eq=False)
class WinningTrial:
    """The winning candidate's trial solve on a sample that is the whole input.

    :func:`repro.core.pipeline.encode_chunk_payload` uses ``compressed``
    as chunk 0's solver output only when the codec object matches and
    ``solver_input`` equals the chunk's solver input byte for byte.
    The output depends on nothing else, so the linearization needs no
    check of its own: a different partition order yields other bytes.
    """

    codec: Codec
    solver_input: bytes
    compressed: bytes
    #: Wall time of the codec call alone (chunk 0's solve time).
    compress_seconds: float


@dataclass(frozen=True)
class SelectorDecision:
    """The selector's verdict plus the full evaluation record."""

    codec_name: str
    linearization: Linearization
    preference: Preference
    improvable: bool
    candidates: tuple[CandidateEvaluation, ...]
    sample_elements: int
    #: Candidates that raised during trial evaluation (skipped, not fatal).
    failed_candidates: tuple[CandidateFailure, ...] = ()
    #: How the decision was produced.  Every built-in decision is
    #: ``"probe"`` (timed candidate evaluations); a custom strategy
    #: may name its own origin, e.g. ``"predicted"`` for a decision
    #: made without timing.
    origin: str = "probe"
    #: On a probed decision, the estimates that ruled candidates out
    #: of the trials; a custom strategy's estimates otherwise.
    predictions: tuple[CandidatePrediction, ...] = ()
    #: The winning trial, kept only when the sample was the whole
    #: input.  Not part of equality, ``repr``, ``to_dict`` or pickles.
    trial: WinningTrial | None = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        # The trial holds a live codec object (possibly unpicklable)
        # and the sample's bytes; a pickled decision carries neither.
        state = dict(self.__dict__)
        state.pop("trial", None)
        return state

    def without_trial(self) -> SelectorDecision:
        """This decision minus its trial — the form to keep or store."""
        return self if self.trial is None else replace(self, trial=None)

    @property
    def chosen(self) -> CandidateEvaluation:
        """The evaluation row backing the decision."""
        for cand in self.candidates:
            if (
                cand.codec_name == self.codec_name
                and cand.linearization == self.linearization
            ):
                return cand
        raise SelectorError(
            f"decision ({self.codec_name}, {self.linearization.value}) has no "
            "matching candidate evaluation"
        )

    @property
    def chosen_prediction(self) -> CandidatePrediction | None:
        """The prediction row backing a predicted/cached decision."""
        for pred in self.predictions:
            if (
                pred.codec_name == self.codec_name
                and pred.linearization == self.linearization
            ):
                return pred
        return None

    def summary(self) -> str:
        """One-line description for logs and the CLI."""
        head = (
            f"{self.codec_name} + {self.linearization.value}-linearization "
            f"({self.preference.value} preference; "
        )
        try:
            chosen = self.chosen
        except SelectorError:
            pred = self.chosen_prediction
            if pred is not None:
                return (
                    head + f"{self.origin}, est. ratio "
                    f"{pred.predicted_ratio:.3f})"
                )
            # Fallback decisions (empty input, or every candidate
            # evaluation failed under a resilience policy) carry no
            # measured numbers.
            return head + "unevaluated fallback)"
        return head + f"sample ratio {chosen.ratio:.3f})"

    def to_dict(self) -> dict:
        """A JSON-ready document (the ``isobar plan`` / ``/v1/plan`` body)."""
        return {
            "codec": self.codec_name,
            "linearization": self.linearization.value,
            "preference": self.preference.value,
            "improvable": self.improvable,
            "origin": self.origin,
            "sample_elements": self.sample_elements,
            "candidates": [
                {
                    "codec": cand.codec_name,
                    "linearization": cand.linearization.value,
                    "sample_bytes": cand.sample_bytes,
                    "compressed_bytes": cand.compressed_bytes,
                    "compress_seconds": cand.compress_seconds,
                    "ratio": cand.ratio,
                    "throughput": cand.throughput,
                }
                for cand in self.candidates
            ],
            "predictions": [
                {
                    "codec": pred.codec_name,
                    "linearization": pred.linearization.value,
                    "predicted_ratio": pred.predicted_ratio,
                    "predicted_throughput": pred.predicted_throughput,
                    "confident": pred.confident,
                }
                for pred in self.predictions
            ],
            "failed_candidates": [
                {
                    "codec": fail.codec_name,
                    "linearization": fail.linearization.value,
                    "error": fail.error,
                }
                for fail in self.failed_candidates
            ],
        }


class EupaSelector:
    """Deterministic sample-based codec and linearization selection.

    Parameters
    ----------
    config:
        Candidate space, sample size and preference.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; when
        given, every candidate evaluation and every decision is
        recorded under the ``isobar_selector_*`` series (see
        ``docs/observability.md``).
    """

    def __init__(
        self,
        config: IsobarConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self._config = config or IsobarConfig()
        self._metrics = NULL_REGISTRY if metrics is None else metrics
        self._instruments = PipelineInstruments(self._metrics)

    @property
    def config(self) -> IsobarConfig:
        """The configuration driving candidate generation and choice."""
        return self._config

    # -- sampling -------------------------------------------------------

    def draw_sample(self, values: np.ndarray) -> np.ndarray:
        """Draw the training sample: random contiguous runs of elements."""
        flat = np.asarray(values).reshape(-1)
        target = min(self._config.sample_elements, flat.size)
        if target <= 0:
            raise SelectorError("cannot sample from an empty input")
        if target == flat.size:
            return flat
        # selector_seed pins the sample-run draw independently of the
        # shared pipeline seed, so decisions and benchmarks replay.
        seed = (
            self._config.selector_seed
            if self._config.selector_seed is not None
            else self._config.seed
        )
        rng = np.random.default_rng(seed)
        run = max(target // _SAMPLE_RUNS, 1)
        pieces = []
        remaining = target
        while remaining > 0:
            length = min(run, remaining)
            start = int(rng.integers(0, flat.size - length + 1))
            pieces.append(flat[start:start + length])
            remaining -= length
        return np.concatenate(pieces)

    # -- evaluation -------------------------------------------------------

    def _candidate_space(self) -> list[tuple[str, Linearization]]:
        codecs = (
            (self._config.codec,)
            if self._config.codec is not None
            else self._config.candidate_codecs
        )
        linearizations = (
            (self._config.linearization,)
            if self._config.linearization is not None
            else (Linearization.ROW, Linearization.COLUMN)
        )
        space = [(c, l) for c in codecs for l in linearizations]
        if not space:
            raise SelectorError("candidate space is empty; check configuration")
        return space

    def _trial_input(
        self,
        sample: np.ndarray,
        analysis: AnalysisResult,
        linearization: Linearization,
    ) -> tuple[bytes, int]:
        """The solver input for one linearization and its raw noise bytes."""
        if analysis.improvable:
            part = partition(sample, analysis.mask, linearization)
            return part.compressible, len(part.incompressible)
        return np.ascontiguousarray(sample).tobytes(), 0

    def _run_trials(
        self,
        space: list[tuple[str, Linearization]],
        sample: np.ndarray,
        analysis: AnalysisResult,
        keep: bool,
        staged: bool,
    ) -> tuple[
        list[CandidateEvaluation],
        list[CandidateFailure],
        list[CandidatePrediction],
        dict[tuple[str, Linearization], tuple[Codec, bytes, bytes, float]],
    ]:
        """Run the candidates' exact trials, building each distinct input once.

        Linearizations whose solver inputs are byte-identical share one
        compression per codec.  When ``staged`` (and the estimator
        applies) the trials run in order of estimated output, and a
        candidate is skipped when some exact trial rules it out: the
        candidate's estimate, scaled by that trial's measured output
        over its estimate and lowered by the pair's error bound, plus
        the raw noise bytes, is still no smaller than the trial's size
        over one plus the regret budget.  Otherwise every candidate
        runs, as if the bounds were infinite.

        Returns the evaluations, the failures and the estimates that
        ruled candidates out, each in candidate-space order, and, when
        ``keep`` is set, each successful candidate's codec, solver
        input, output and codec seconds.  Candidates that share an
        input or an output share the object, not a copy.
        """
        rank = {candidate: i for i, candidate in enumerate(space)}
        codecs = tuple(dict.fromkeys(c for c, _ in space))
        evaluated: list[CandidateEvaluation] = []
        failed: list[CandidateFailure] = []
        skipped: list[CandidatePrediction] = []
        outputs: dict[
            tuple[str, Linearization], tuple[Codec, bytes, bytes, float]
        ] = {}
        # (linearizations, solver input, raw noise bytes, build seconds)
        groups: list[tuple[tuple[Linearization, ...], bytes, int, float]] = []
        for lin in dict.fromkeys(l for _, l in space):
            start = time.perf_counter()
            try:
                payload, noise_bytes = self._trial_input(sample, analysis, lin)
            except Exception as exc:  # noqa: BLE001 - candidate containment
                failed.extend(
                    CandidateFailure(codec_name, lin, _describe(exc))
                    for codec_name in codecs
                )
                continue
            build_seconds = time.perf_counter() - start
            for i, (lins, other, other_noise, seconds) in enumerate(groups):
                if other_noise == noise_bytes and other == payload:
                    groups[i] = (lins + (lin,), other, other_noise, seconds)
                    break
            else:
                groups.append(((lin,), payload, noise_bytes, build_seconds))
        trials = [
            (codec_name, group) for group in groups for codec_name in codecs
        ]
        estimates = (
            estimate_outputs(sample, analysis, space) if staged else None
        )
        if estimates is not None:
            trials.sort(key=lambda t: estimates[t[0], t[1][0][0]])
        exact: list[tuple[tuple[str, Linearization], int]] = []
        for codec_name, (lins, payload, noise_bytes, build_seconds) in trials:
            candidate = (codec_name, lins[0])
            estimate = (
                self._ruled_out(candidate, noise_bytes, estimates, exact)
                if estimates is not None
                else None
            )
            if estimate is not None:
                skipped.extend(
                    CandidatePrediction(
                        codec_name=codec_name,
                        linearization=lin,
                        predicted_ratio=sample.nbytes / estimate,
                        predicted_throughput=0.0,
                        confident=True,
                    )
                    for lin in lins
                )
                continue
            try:
                codec = get_codec(codec_name)
                start = time.perf_counter()
                compressed = codec.compress(payload)
                solve_seconds = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - candidate containment
                failed.extend(
                    CandidateFailure(codec_name, lin, _describe(exc))
                    for lin in lins
                )
                continue
            size = max(len(compressed) + noise_bytes, 1)
            exact.append((candidate, size))
            for lin in lins:
                evaluated.append(CandidateEvaluation(
                    codec_name=codec_name,
                    linearization=lin,
                    sample_bytes=sample.nbytes,
                    compressed_bytes=size,
                    compress_seconds=build_seconds + solve_seconds,
                ))
                if keep:
                    outputs[codec_name, lin] = (
                        codec, payload, compressed, solve_seconds,
                    )
        evaluated.sort(key=lambda c: rank[c.codec_name, c.linearization])
        failed.sort(key=lambda f: rank[f.codec_name, f.linearization])
        skipped.sort(key=lambda p: rank[p.codec_name, p.linearization])
        return evaluated, failed, skipped, outputs

    @staticmethod
    def _ruled_out(
        candidate: tuple[str, Linearization],
        noise_bytes: int,
        estimates: dict[tuple[str, Linearization], float],
        exact: list[tuple[tuple[str, Linearization], int]],
    ) -> float | None:
        """The scaled size estimate of a candidate an exact trial rules out.

        ``None`` while no successful trial rules the candidate out.
        Uses sizes only, so the decision is a function of the input
        bytes and the config.
        """
        for trialled, size in exact:
            scaled = (
                estimates[candidate] * (size - noise_bytes)
                / estimates[trialled]
            )
            floor = noise_bytes + scaled * (
                1.0 - error_bound(candidate, trialled)
            )
            if floor >= size / (1.0 + REGRET_BUDGET):
                return noise_bytes + scaled
        return None

    # -- decision ---------------------------------------------------------

    def select(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None = None,
    ) -> SelectorDecision:
        """Trial the candidates on a sample and pick the winner.

        ``analysis`` is the analyzer verdict for the *full* input (or a
        representative chunk); when omitted it is computed from the
        sample itself.  The decision applies to the whole stream —
        Section II-F shows a single choice stays optimal across an
        entire simulation run.

        Under the RATIO preference the probe is staged: candidates the
        frozen size estimator rules out are not trialled (see
        :mod:`repro.core.probe_estimator`).  The SPEED preference
        needs every candidate's time, so it trials them all.
        """
        return self._select(
            values, analysis, self._config.preference is Preference.RATIO
        )

    def select_exhaustive(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None = None,
    ) -> SelectorDecision:
        """Trial every candidate exactly, whatever the preference.

        The oracle the staged probe is measured against, and the probe
        a learner uses to observe every candidate.
        """
        return self._select(values, analysis, False)

    def _select(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None,
        staged: bool,
    ) -> SelectorDecision:
        decide_start = time.perf_counter()
        sample = self.draw_sample(values)
        if analysis is None:
            analysis = analyze(sample, tau=self._config.tau)

        # Only a sample that is the whole input can stand in for a
        # chunk's solve, so only then are the trial outputs kept.  It
        # is also the only sample the probe is staged on: the estimator
        # was scored on whole inputs, and a sample of a larger input
        # has its probe cost spread over many chunks.
        keep = sample.size == np.asarray(values).size
        evaluated, failed, skipped, outputs = self._run_trials(
            self._candidate_space(), sample, analysis, keep, staged and keep
        )
        # A misbehaving candidate must not abort selection: it is
        # skipped, recorded on the decision, and counted.
        if self._metrics.enabled:
            for failure in failed:
                self._instruments.selector_failures.inc(
                    1, codec=failure.codec_name,
                    linearization=failure.linearization.value,
                )
        candidates = tuple(evaluated)
        if not candidates:
            details = "; ".join(
                f"({f.codec_name}, {f.linearization.value}): {f.error}"
                for f in failed
            )
            raise SelectorError(
                f"every candidate evaluation failed: {details}"
            )
        best = self._pick(candidates)
        kept = outputs.get((best.codec_name, best.linearization))
        decision = SelectorDecision(
            codec_name=best.codec_name,
            linearization=best.linearization,
            preference=self._config.preference,
            improvable=analysis.improvable,
            candidates=candidates,
            sample_elements=int(sample.size),
            failed_candidates=tuple(failed),
            predictions=tuple(skipped),
            trial=WinningTrial(*kept) if kept is not None else None,
        )
        if self._metrics.enabled:
            self._instruments.record_selector(decision)
            self._instruments.selector_decision_seconds.observe(
                time.perf_counter() - decide_start, strategy="eupa"
            )
        return decision

    def _pick(
        self, candidates: tuple[CandidateEvaluation, ...]
    ) -> CandidateEvaluation:
        best_ratio = max(cand.ratio for cand in candidates)
        if self._config.preference is Preference.RATIO:
            return max(candidates, key=lambda cand: cand.ratio)
        floor = best_ratio * self._config.min_acceptable_ratio_fraction
        acceptable = [cand for cand in candidates if cand.ratio >= floor]
        if not acceptable:
            acceptable = list(candidates)
        return max(acceptable, key=lambda cand: cand.throughput)


# -- pluggable strategy registry ------------------------------------------


@runtime_checkable
class SelectorStrategy(Protocol):
    """The contract every selection strategy implements.

    A strategy receives the full input (or a representative chunk) and
    returns a :class:`SelectorDecision`.  Strategies only influence
    the decision — containers they steer are byte-decodable by the
    unchanged decoder.  Failures must surface as
    :class:`~repro.core.exceptions.SelectorError` so every caller's
    fallback path (resilience, service status mapping) keeps working;
    lint rule ISO008 enforces this for registered strategies.
    """

    def select(
        self,
        values: np.ndarray,
        analysis: AnalysisResult | None = None,
    ) -> SelectorDecision:
        """Decide the (codec, linearization) for ``values``."""
        ...


#: A factory builds one strategy instance bound to a config and a
#: metrics registry (``metrics`` may be ``None`` for disabled mode).
StrategyFactory = Callable[
    [IsobarConfig, "MetricsRegistry | None"], SelectorStrategy
]

_STRATEGIES: dict[str, StrategyFactory] = {}
_STRATEGY_LOCK = threading.Lock()


def register_selector_strategy(
    name: str, factory: StrategyFactory, *, replace: bool = False
) -> None:
    """Register a strategy factory under ``name`` (case-insensitive).

    Raises :class:`~repro.core.exceptions.ConfigurationError` when the
    name is already taken and ``replace`` is false, so an accidental
    double registration cannot silently shadow a strategy.
    """
    key = name.lower()
    with _STRATEGY_LOCK:
        if not replace and key in _STRATEGIES:
            raise ConfigurationError(
                f"selector strategy {name!r} is already registered; "
                "pass replace=True to override"
            )
        _STRATEGIES[key] = factory


def selector_strategy_names() -> tuple[str, ...]:
    """All registered strategy names (built-ins included), sorted."""
    with _STRATEGY_LOCK:
        return tuple(sorted(_STRATEGIES))


def resolve_selector(
    config: IsobarConfig,
    *,
    metrics: MetricsRegistry | None = None,
) -> SelectorStrategy:
    """Build the strategy ``config.selector`` asks for.

    Accepts a registered name (``"eupa"`` or anything added via
    :func:`register_selector_strategy`) or a ready strategy instance,
    which is returned as-is.
    """
    selector = config.selector
    if not isinstance(selector, str):
        if callable(getattr(selector, "select", None)):
            return selector
        raise ConfigurationError(
            "selector instance must implement the SelectorStrategy "
            f"protocol (a select() method), got {selector!r}"
        )
    name = selector.lower()
    with _STRATEGY_LOCK:
        factory = _STRATEGIES.get(name)
    if factory is None:
        choices = ", ".join(repr(n) for n in selector_strategy_names())
        raise ConfigurationError(
            f"unknown selector strategy {selector!r}; expected one of: "
            f"{choices} (or a SelectorStrategy instance)"
        )
    return factory(config, metrics)


register_selector_strategy(
    "eupa", lambda config, metrics: EupaSelector(config, metrics=metrics)
)
