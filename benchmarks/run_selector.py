#!/usr/bin/env python
"""Selector benchmark: the staged EUPA probe vs the exhaustive oracle.

For every body, measures two decision paths on identical inputs and an
identical candidate space:

* **probe** — ``EupaSelector.select_exhaustive``: the paper's oracle,
  which times every (codec, linearization) candidate on the sample;
* **staged** — ``EupaSelector.select``, the staged probe (RATIO
  preference): its decision time, its exact trials and their time, and
  its size regret against the oracle, ``chosen_size / best_size - 1``.

The bodies are the 24 registry datasets at ``--elements``, the 72 small
bodies (each dataset at 16,384, 32,768 and 65,536 elements, default
seeds) and the nine perfbench-shaped service bodies (16,000, 32,000 and
64,000 elements of ``field_f64``, ``particles_i64`` and
``repetitive_f64`` from ``repro.datasets.synthetic``, seed 7321).

Acceptance gate: staged size regret <= 0.5 % on every body
(``--smoke`` included).

Canonical invocation (records the repo's benchmark artifact)::

    PYTHONPATH=src python benchmarks/run_selector.py --json BENCH_selector.json

``--smoke`` runs three datasets at reduced size plus the nine service
bodies, for the checks gate.
Results are wall-clock measurements: run on an idle machine, and do
not run the test suite concurrently.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.core.analyzer import analyze
from repro.core.preferences import IsobarConfig
from repro.core.probe_estimator import estimate_outputs
from repro.core.selector import REGRET_BUDGET, EupaSelector
from repro.datasets import dataset_names, generate_dataset
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)

_SMOKE_DATASETS = ("gts_phi_l", "msg_bt", "obs_error")
_SMALL_SIZES = (16_384, 32_768, 65_536)
_SERVICE_SIZES = (16_000, 32_000, 64_000)
_SERVICE_SEED = 7321
_FINGERPRINTS = {
    "field_f64": lambda n, rng: build_structured(n, np.float64, 3, rng),
    "particles_i64": lambda n, rng: build_particle_ids(n, rng),
    "repetitive_f64": lambda n, rng: build_repetitive(n, np.float64, rng),
}


def _best_of(repeats: int, fn) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _trial_groups(decision) -> dict[tuple, float]:
    """Each distinct exact trial's candidates and seconds.

    Rows that share one compression carry the same measurement, so a
    trial is the set of rows with equal codec, size and seconds.
    """
    groups: dict[tuple, list] = {}
    for cand in decision.candidates:
        key = (cand.codec_name, cand.compressed_bytes, cand.compress_seconds)
        groups.setdefault(key, []).append(cand.linearization)
    return {
        (key[0], tuple(lins)): key[2] for key, lins in groups.items()
    }


def _measure_staged(
    values: np.ndarray, repeats: int, config: IsobarConfig
) -> dict:
    """Staged vs exhaustive probe on one body: time, trials, regret.

    Decision times are best-of-``repeats``.  Trial times are each
    trial's best over the exhaustive runs, so the staged trials are
    timed exactly as the oracle's same trials and the trial-time
    fraction carries no run-to-run noise.
    """
    selector = EupaSelector(config)
    trial_seconds: dict[tuple, float] = {}

    def oracle_run():
        decision = selector.select_exhaustive(values)
        for trial, seconds in _trial_groups(decision).items():
            trial_seconds[trial] = min(
                seconds, trial_seconds.get(trial, float("inf"))
            )
        return decision

    oracle_seconds, oracle = _best_of(repeats, oracle_run)
    staged_seconds, staged = _best_of(repeats, lambda: selector.select(values))
    sizes = {
        (c.codec_name, c.linearization): c.compressed_bytes
        for c in oracle.candidates
    }
    chosen = sizes[staged.codec_name, staged.linearization]
    trialled = {(c.codec_name, c.linearization) for c in staged.candidates}
    staged_trials = [
        (codec, lins) for codec, lins in trial_seconds
        if any((codec, lin) in trialled for lin in lins)
    ]
    # Stage 1 runs where the staged probe applies: on a sample that is
    # the whole input and the estimator covers.
    stage1_ms = 0.0
    sample = selector.draw_sample(values)
    analysis = analyze(sample, tau=config.tau)
    space = selector._candidate_space()
    if sample.size == np.asarray(values).size and estimate_outputs(
        sample, analysis, space
    ) is not None:
        stage1_seconds, _ = _best_of(
            repeats, lambda: estimate_outputs(sample, analysis, space)
        )
        stage1_ms = round(stage1_seconds * 1e3, 3)
    return {
        "probe_choice": f"{oracle.codec_name}+{oracle.linearization.value}",
        "staged_choice": f"{staged.codec_name}+{staged.linearization.value}",
        "probe_ms": round(oracle_seconds * 1e3, 3),
        "probe_trials": len(trial_seconds),
        "probe_trial_ms": round(sum(trial_seconds.values()) * 1e3, 3),
        "staged_ms": round(staged_seconds * 1e3, 3),
        "staged_trials": len(staged_trials),
        "staged_trial_ms": round(
            sum(trial_seconds[t] for t in staged_trials) * 1e3, 3
        ),
        "staged_stage1_ms": stage1_ms,
        "staged_ruled_out": len(staged.predictions),
        "staged_regret": round(chosen / min(sizes.values()) - 1.0, 6),
    }


def _staged_bodies(smoke: bool):
    """(label, values): the small registry bodies and the service bodies."""
    if not smoke:
        for name in dataset_names():
            for n in _SMALL_SIZES:
                yield f"{name}@{n}", generate_dataset(name, n_elements=n)
    rng = np.random.default_rng(_SERVICE_SEED)
    for n in _SERVICE_SIZES:
        for name, build in _FINGERPRINTS.items():
            yield f"service:{name}@{n}", build(n, rng)


def _staged_summary(rows: list[dict]) -> dict:
    regrets = np.array([r["staged_regret"] for r in rows])
    probe = sum(r["probe_trial_ms"] for r in rows)
    return {
        "bodies": len(rows),
        "max_regret": round(float(regrets.max()), 6),
        "p90_regret": round(float(np.quantile(regrets, 0.9)), 6),
        "median_regret": round(float(np.median(regrets)), 6),
        "changed_choices": sum(
            r["probe_choice"] != r["staged_choice"] for r in rows
        ),
        "mean_probe_trials": round(
            float(np.mean([r["probe_trials"] for r in rows])), 3
        ),
        "mean_staged_trials": round(
            float(np.mean([r["staged_trials"] for r in rows])), 3
        ),
        "trial_ms_fraction": round(
            sum(r["staged_trial_ms"] for r in rows) / probe, 3
        ),
        "stage1_ms_fraction": round(
            sum(r["staged_stage1_ms"] for r in rows) / probe, 3
        ),
        "decision_ms_fraction": round(
            sum(r["staged_ms"] for r in rows)
            / sum(r["probe_ms"] for r in rows), 3
        ),
    }


def run(names: tuple[str, ...], n_elements: int, repeats: int,
        seed: int, smoke: bool = False) -> dict:
    config = IsobarConfig(selector_seed=seed)
    datasets = (
        (name, generate_dataset(name, n_elements=n_elements, seed=seed))
        for name in names
    )
    rows, staged_rows = [], []
    for key, bodies, sink in (
        ("dataset", datasets, rows),
        ("body", _staged_bodies(smoke), staged_rows),
    ):
        for label, values in bodies:
            row = {key: label, "n_elements": int(values.size)}
            row.update(_measure_staged(values, repeats, config))
            sink.append(row)
            print(
                f"{label:<30s} probe={row['probe_ms']:>8.3f}ms "
                f"({row['probe_trials']} trials) "
                f"staged={row['staged_ms']:>8.3f}ms "
                f"({row['staged_trials']} trials)  "
                f"regret={row['staged_regret']}",
                flush=True,
            )
    service = [r for r in staged_rows if r["body"].startswith("service:")]
    summary = {
        "datasets": len(rows),
        "staged": {
            "datasets": _staged_summary(rows),
            "small_bodies": (
                _staged_summary([
                    r for r in staged_rows if r not in service
                ]) if not smoke else None
            ),
            "service_bodies": _staged_summary(service),
            "all": _staged_summary(rows + staged_rows),
        },
    }
    return {
        "benchmark": "selector",
        "seed": seed,
        "repeats": repeats,
        "n_elements": n_elements,
        "sample_elements": config.sample_elements,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "rows": rows,
        "staged_rows": staged_rows,
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=200_000,
                        help="elements per dataset")
    parser.add_argument("--repeats", type=int, default=5,
                        help="latency repeats (best-of)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="three datasets at reduced size (checks gate)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result as JSON")
    args = parser.parse_args(argv)

    names = _SMOKE_DATASETS if args.smoke else dataset_names()
    elements = min(args.elements, 60_000) if args.smoke else args.elements
    repeats = min(args.repeats, 3) if args.smoke else args.repeats
    result = run(names, elements, repeats, args.seed, smoke=args.smoke)

    summary = result["summary"]
    staged = summary["staged"]["all"]
    print(
        f"staged: max regret={staged['max_regret']} "
        f"p90={staged['p90_regret']} median={staged['median_regret']} "
        f"service trial-time fraction="
        f"{summary['staged']['service_bodies']['trial_ms_fraction']}"
    )
    failed = staged["max_regret"] > REGRET_BUDGET
    if failed:
        print(
            f"FAIL: staged probe regret {staged['max_regret']} above "
            f"{REGRET_BUDGET}",
            file=sys.stderr,
        )

    if args.json:
        with open(args.json, "w") as sink:
            json.dump(result, sink, indent=2)
            sink.write("\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
