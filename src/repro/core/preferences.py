"""User-facing enumerations and configuration for the ISOBAR workflow.

The paper exposes two knobs to the end user:

* a *preference* between compression ratio and throughput (Section II-C,
  the EUPA-selector input ``E``), and
* optional explicit overrides of the solver and the linearization
  strategy applied to the compressible byte-columns.

This module defines those enumerations plus :class:`IsobarConfig`, the
single configuration object threaded through the analyzer, partitioner,
selector and pipeline.  Defaults mirror the paper: ``tau = 1.42``
(Section II-A) and a chunk size of 375 000 elements (Figure 8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.exceptions import ConfigurationError
from repro.core.resilience import ResiliencePolicy

__all__ = [
    "Preference",
    "Linearization",
    "IsobarConfig",
    "DEFAULT_TAU",
    "DEFAULT_CHUNK_ELEMENTS",
    "ERROR_POLICIES",
    "MIN_ANALYZER_ELEMENTS",
    "normalize_errors",
    "salvage_policy_for",
]

#: Frequency-distribution tolerance fixed by the paper's experiments;
#: the compression-ratio improvement is stable for tau in [1.4, 1.5].
DEFAULT_TAU = 1.42

#: Chunk size (in elements) where compression ratios settle (Figure 8):
#: about 375 000 doubles, i.e. roughly 3 MB.
DEFAULT_CHUNK_ELEMENTS = 375_000

#: Below this element count the byte-column statistics are too thin for
#: the analyzer to make a stable call; the workflow still runs but the
#: analyzer flags the result as low-confidence.
MIN_ANALYZER_ELEMENTS = 1_024

#: Canonical ``errors=`` policies accepted by every decoder (serial,
#: parallel, streaming and random-access): strict decode, or lenient
#: salvage that skips damaged chunks / substitutes zero elements.
ERROR_POLICIES = ("raise", "salvage-skip", "salvage-zero")

# Accepted spellings -> canonical policy.  The bare salvage policy
# names remain valid for backwards compatibility with the original
# per-decoder keywords.
_ERROR_ALIASES = {
    "raise": "raise",
    "salvage-skip": "salvage-skip",
    "salvage-zero": "salvage-zero",
    "skip": "salvage-skip",
    "zero_fill": "salvage-zero",
}

# Canonical policy -> the salvage decoder's internal policy name.
_SALVAGE_POLICY = {
    "raise": "raise",
    "salvage-skip": "skip",
    "salvage-zero": "zero_fill",
}


def normalize_errors(value: str) -> str:
    """Canonicalize an ``errors=`` policy, validating it.

    Every decoder entry point funnels its ``errors`` keyword through
    here, so unknown policies raise the same
    :class:`~repro.core.exceptions.ConfigurationError` everywhere and
    legacy spellings (``"skip"``, ``"zero_fill"``) keep working.
    """
    try:
        return _ERROR_ALIASES[value]
    except (KeyError, TypeError):
        choices = ", ".join(repr(p) for p in ERROR_POLICIES)
        raise ConfigurationError(
            f"unknown errors policy {value!r}; expected one of: {choices}"
        ) from None


def salvage_policy_for(errors: str) -> str:
    """Map a canonical ``errors=`` policy to the salvage policy name."""
    return _SALVAGE_POLICY[normalize_errors(errors)]


class Preference(enum.Enum):
    """End-user optimisation target for the EUPA-selector.

    ``RATIO`` selects the candidate with the best compression ratio;
    ``SPEED`` selects the fastest candidate whose ratio stays above the
    configured acceptability threshold.
    """

    RATIO = "ratio"
    SPEED = "speed"

    @classmethod
    def parse(cls, value: "Preference | str") -> "Preference":
        """Coerce a string such as ``"speed"`` into a :class:`Preference`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ConfigurationError(
                f"unknown preference {value!r}; expected one of: {choices}"
            ) from None


class Linearization(enum.Enum):
    """Byte-level linearization applied to the compressible columns.

    ``ROW`` keeps the per-element byte groups adjacent (the bytes of one
    element's compressible columns are emitted together, element by
    element).  ``COLUMN`` emits whole byte-columns one after another —
    the classic "shuffle" layout that groups same-significance bytes.
    """

    ROW = "row"
    COLUMN = "column"

    @classmethod
    def parse(cls, value: "Linearization | str") -> "Linearization":
        """Coerce a string such as ``"row"`` into a :class:`Linearization`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown linearization {value!r}; expected one of: {choices}"
            ) from None


@dataclass(frozen=True)
class IsobarConfig:
    """Complete configuration of one ISOBAR-compress run.

    Parameters
    ----------
    tau:
        Analyzer tolerance multiplier.  A byte-column is *incompressible*
        when every one of its 256 value frequencies is below
        ``tau * N / 256``.  Must lie in ``(1.0, 256.0)``; 1 would mark
        every column incompressible only for perfectly uniform data,
        while 256 marks every column compressible.
    chunk_elements:
        Number of elements per chunk fed to the analyzer and solver.
    preference:
        EUPA-selector optimisation target.
    codec:
        Explicit solver override (codec registry name) or ``None`` to let
        the selector decide between the candidate codecs.
    linearization:
        Explicit linearization override or ``None`` for selector choice.
    candidate_codecs:
        Codec names the selector may choose between when no explicit
        override is given.  The paper uses zlib and bzlib2.
    sample_elements:
        Number of elements in the training sample the selector times.
    min_acceptable_ratio_fraction:
        Under the ``SPEED`` preference, a candidate is acceptable when
        its sampled ratio is at least this fraction of the best sampled
        ratio.  1.0 degenerates to the ``RATIO`` behaviour.
    seed:
        Seed for the selector's random sample draw, making runs
        reproducible.
    selector:
        Selection strategy: a registered name — ``"eupa"`` (default,
        the paper's timing probe) or one added with
        :func:`~repro.core.selector.register_selector_strategy` — or
        any object implementing the
        :class:`~repro.core.selector.SelectorStrategy` protocol.
        Every strategy honours the ``preference`` / ``codec`` /
        ``linearization`` overrides identically and only influences
        the decision, never the container format.
    selector_seed:
        Optional dedicated seed for the selector's sample-run draw;
        ``None`` falls back to ``seed``.  Pin it to replay decisions
        and benchmarks independently of the pipeline seed.
    resilience:
        Per-chunk fault-containment policy
        (:class:`~repro.core.resilience.ResiliencePolicy`).  The
        default policy degrades failing chunks through the
        codec → ``zlib`` → raw fallback chain so compression never
        fails on encodable input; ``None`` restores the legacy
        fail-fast behaviour (the first solver error aborts the run).
    """

    tau: float = DEFAULT_TAU
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS
    preference: Preference = Preference.RATIO
    codec: str | None = None
    linearization: Linearization | None = None
    candidate_codecs: tuple[str, ...] = ("zlib", "bzip2")
    sample_elements: int = 65_536
    min_acceptable_ratio_fraction: float = 0.85
    seed: int = 0x150BA2
    selector: "str | object" = "eupa"
    selector_seed: int | None = None
    resilience: ResiliencePolicy | None = field(default_factory=ResiliencePolicy)

    def __post_init__(self) -> None:
        if not 1.0 < self.tau < 256.0:
            raise ConfigurationError(
                f"tau must be in (1.0, 256.0), got {self.tau!r}"
            )
        if self.chunk_elements < 1:
            raise ConfigurationError(
                f"chunk_elements must be positive, got {self.chunk_elements!r}"
            )
        if self.sample_elements < 1:
            raise ConfigurationError(
                f"sample_elements must be positive, got {self.sample_elements!r}"
            )
        if not 0.0 < self.min_acceptable_ratio_fraction <= 1.0:
            raise ConfigurationError(
                "min_acceptable_ratio_fraction must be in (0, 1], got "
                f"{self.min_acceptable_ratio_fraction!r}"
            )
        if not self.candidate_codecs and self.codec is None:
            raise ConfigurationError(
                "candidate_codecs may not be empty unless an explicit codec "
                "override is set"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            raise ConfigurationError(
                "resilience must be a ResiliencePolicy or None, got "
                f"{self.resilience!r}"
            )
        if isinstance(self.selector, str):
            object.__setattr__(self, "selector", self.selector.lower())
        elif not callable(getattr(self.selector, "select", None)):
            raise ConfigurationError(
                "selector must be a registered strategy name or an object "
                f"with a select() method, got {self.selector!r}"
            )
        if self.selector_seed is not None and not isinstance(
            self.selector_seed, int
        ):
            raise ConfigurationError(
                f"selector_seed must be an int or None, got "
                f"{self.selector_seed!r}"
            )
        # Normalise string inputs so callers may pass plain strings.
        object.__setattr__(self, "preference", Preference.parse(self.preference))
        if self.linearization is not None:
            object.__setattr__(
                self, "linearization", Linearization.parse(self.linearization)
            )

    def replace(self, **changes: object) -> "IsobarConfig":
        """Return a copy of this config with ``changes`` applied."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)
