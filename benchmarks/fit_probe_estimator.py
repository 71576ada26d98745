#!/usr/bin/env python
"""Fit the staged EUPA probe's size estimator and measure its error bound.

The estimator (:mod:`repro.core.probe_estimator`) predicts each
(codec, linearization) candidate's trial size from the adaptive code
lengths of its solver input.  This script

1. builds bodies from :mod:`repro.datasets` — the 24 registry
   generators and the ``synthetic`` builders — at several sizes, on
   development seeds and on separate hold-out seeds;
2. runs every candidate's exact trial on each body
   (``EupaSelector.select_exhaustive``);
3. fits one ridge regression per candidate on the development bodies,
   rounding the weights to six decimals;
4. scores the rounded weights on the hold-out bodies.  For every pair
   of candidates in which one (``j``) beat the other (``k``) by more
   than the regret budget, ``j``'s estimated solver output is scaled
   by ``k``'s exact output over ``k``'s estimate; the error bound of
   the pair's kind (same codec, same linearization, or neither) is the
   largest relative over-estimate ``1 - exact_j / scaled_j``.  Only
   such an over-estimate can make the skip rule drop a better
   candidate.

The inputs and the fit are deterministic, so a rerun on the same
platform reproduces the committed constants bit for bit::

    PYTHONPATH=src python benchmarks/fit_probe_estimator.py --check

prints the constants and exits 1 when they differ from the committed
ones.  The run takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.core import probe_estimator as est
from repro.core.analyzer import analyze
from repro.core.preferences import IsobarConfig, Linearization
from repro.core.selector import REGRET_BUDGET, EupaSelector
from repro.datasets import dataset_names, generate_dataset
from repro.datasets.synthetic import (
    build_particle_ids,
    build_repetitive,
    build_structured,
)

#: Seeds the weights are fitted on.
DEV_SEEDS = tuple(range(100, 106))
#: Seeds the error bound is measured on.
HOLDOUT_SEEDS = tuple(range(200, 206))
#: Body sizes in elements.  The staged probe applies only where the
#: sample is the whole input, so every size fits the config's 65,536-
#: element sample.
SIZES = (12_000, 24_000, 36_000, 50_000, 65_000)
#: Ridge penalty of the per-candidate fit.
RIDGE = 1e-6
CANDIDATES = tuple(est.COEFFICIENTS)


def bodies(seed: int):
    """(label, values) for every generator and size on one seed."""
    for name in dataset_names():
        for n in SIZES:
            yield f"{name}@{n}", generate_dataset(name, n_elements=n, seed=seed)
    rng = np.random.default_rng(seed)
    for n in SIZES:
        for dtype in (np.float64, np.float32):
            for noise in range(np.dtype(dtype).itemsize):
                yield (f"structured_{np.dtype(dtype).name}_{noise}@{n}",
                       build_structured(n, dtype, noise, rng))
        for bits in (16, 24, 32):
            yield f"particles_{bits}@{n}", build_particle_ids(n, rng,
                                                              id_bits=bits)
        for dtype in (np.float64, np.float32, np.int64):
            yield (f"repetitive_{np.dtype(dtype).name}@{n}",
                   build_repetitive(n, dtype, rng))


def observe(seeds: tuple[int, ...], config: IsobarConfig) -> list[dict]:
    """Exact trial sizes and estimator inputs of every body."""
    selector = EupaSelector(config)
    rows = []
    for seed in seeds:
        for label, values in bodies(seed):
            sample = selector.draw_sample(values)
            analysis = analyze(sample, tau=config.tau)
            decision = selector.select_exhaustive(values, analysis=analysis)
            payload = sample.size * (
                int(np.count_nonzero(analysis.mask))
                if analysis.improvable else sample.dtype.itemsize
            )
            rows.append({
                "label": f"{label}/{seed}",
                "payload": payload,
                "noise": sample.nbytes - payload,
                "features": est.candidate_features(
                    sample, analysis, (Linearization.ROW, Linearization.COLUMN)
                ),
                "sizes": {
                    (c.codec_name, c.linearization): c.compressed_bytes
                    for c in decision.candidates
                },
            })
    return rows


def fit(rows: list[dict]) -> dict:
    weights = {}
    for codec, lin in CANDIDATES:
        x = np.array([r["features"][lin] for r in rows])
        y = np.array([
            np.log(max(r["sizes"][codec, lin] - r["noise"], 1) / r["payload"])
            for r in rows
        ])
        w = np.linalg.solve(x.T @ x + RIDGE * np.eye(x.shape[1]), x.T @ y)
        weights[codec, lin] = tuple(round(float(v), 6) for v in w)
    return weights


def predict(weights: dict, row: dict) -> dict:
    """Estimated solver output bytes per candidate."""
    return {
        (codec, lin): row["payload"] * float(
            np.exp(np.dot(weights[codec, lin], row["features"][lin]))
        )
        for codec, lin in CANDIDATES
    }


def error_bounds(weights: dict, rows: list[dict]) -> dict[str, tuple]:
    """Per pair kind: (bound rounded up to 0.001, raw bound, where)."""
    worst = {kind: (0.0, "none") for kind in est.ERROR_BOUNDS}
    for row in rows:
        pred, size, noise = predict(weights, row), row["sizes"], row["noise"]
        for j in CANDIDATES:
            for k in CANDIDATES:
                if size[j] >= size[k] / (1.0 + REGRET_BUDGET):
                    continue
                scaled = pred[j] / pred[k] * (size[k] - noise)
                err = 1.0 - (size[j] - noise) / scaled
                kind = est.pair_class(j, k)
                if err > worst[kind][0]:
                    worst[kind] = (err, f"{row['label']} {j[0]}+{j[1].value}"
                                        f" vs {k[0]}+{k[1].value}")
    return {
        kind: (float(np.ceil(err * 1000.0) / 1000.0), err, where)
        for kind, (err, where) in worst.items()
    }


def render(weights: dict, bounds: dict) -> str:
    lines = ["ERROR_BOUNDS: dict[str, float] = {"]
    for kind, (bound, _, _) in bounds.items():
        lines.append(f"    {kind!r}: {bound},")
    lines += ["}", "COEFFICIENTS: dict[...] = {"]
    for (codec, lin), w in weights.items():
        lines.append(f"    ({codec!r}, Linearization.{lin.name}): {w},")
    lines.append("}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the committed constants match")
    parser.add_argument("--json", metavar="PATH",
                        help="write the fit report as JSON")
    args = parser.parse_args(argv)

    config = IsobarConfig()
    dev = observe(DEV_SEEDS, config)
    holdout = observe(HOLDOUT_SEEDS, config)
    weights = fit(dev)
    bounds = error_bounds(weights, holdout)
    print(render(weights, bounds))
    print(f"# {len(dev)} development and {len(holdout)} hold-out bodies")
    for kind, (_, err, where) in bounds.items():
        print(f"# {kind}: {err:.4f} set by {where}")
    if args.json:
        with open(args.json, "w") as sink:
            json.dump({
                "dev_seeds": DEV_SEEDS, "holdout_seeds": HOLDOUT_SEEDS,
                "sizes": SIZES, "dev_bodies": len(dev),
                "holdout_bodies": len(holdout),
                "error_bounds": {k: {"bound": b, "measured": e, "set_by": w}
                                 for k, (b, e, w) in bounds.items()},
                "coefficients": {f"{c}+{l.value}": w
                                 for (c, l), w in weights.items()},
            }, sink, indent=2)
            sink.write("\n")
    if args.check:
        committed = {k: tuple(v) for k, v in est.COEFFICIENTS.items()}
        if committed != weights or est.ERROR_BOUNDS != {
            kind: bound for kind, (bound, _, _) in bounds.items()
        }:
            print("FAIL: committed estimator constants differ",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
