"""Command-line front end: generate benchmarks, sweep directions, build the
comparison table, check the entropy bound per angle, and classify.

All numeric output is printed with 12 significant digits; CSV is the
interchange format (nothing is plotted here) and JSON sidecars carry the
argmin/argmax summaries and run configuration.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .datasets import (
    DATASET_NAMES,
    GENERATOR_NAME,
    GENERATOR_VERSION,
    DatasetSpec,
    generate,
    load_csv,
    load_libsvm,
    pca_top2,
    save_csv,
)
from .geometry import LabeledDataset, project
from .objectives import projected_pair
from .risk import (
    DEFAULT_GRID_POINTS,
    build_multithreshold_model,
    classify,
    empirical_balanced_error,
)
from .sweep import (
    DEFAULT_TAIL_K,
    SWEEP_FIELDS,
    bound_sweep,
    compare,
    melc_direction,
    select_best,
    sweep,
)

DEFAULT_ANGLES = 360


@dataclass
class RunConfig:
    command: str
    inputs: list
    output: str | None
    angles: int = DEFAULT_ANGLES
    grid_points: int = DEFAULT_GRID_POINTS
    tail_k: float = DEFAULT_TAIL_K
    seed: int = 0
    bandwidth_override: float | None = None
    pca2: bool = False
    name: str = ""
    n_per_component: int = 0
    train: str | None = None
    test: str | None = None

    def __post_init__(self):
        if self.angles < 2:
            raise ValueError("--angles must be at least 2")
        if self.grid_points < 64:
            raise ValueError("--grid-points must be at least 64")


def _fmt(value) -> str:
    return f"{value:.12g}"


def _load_dataset(path):
    if str(path).endswith((".libsvm", ".svm", ".txt")):
        return load_libsvm(path)
    return load_csv(path)


def _as_2d(data, config):
    if data.dim == 2:
        return data
    if config.pca2:
        embedded, _ = pca_top2(data)
        return embedded
    raise ValueError(
        f"dataset has dimension {data.dim}; pass --pca2 to embed it first"
    )


def _sidecar_path(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return (root if ext else out_path) + ".json"


def cmd_datagen(config: RunConfig) -> int:
    spec = DatasetSpec(
        name=config.name, seed=config.seed, n_per_component=config.n_per_component
    )
    data = generate(spec)
    save_csv(
        data,
        config.output,
        metadata={
            "name": spec.name,
            "seed": spec.seed,
            "n": spec.n_per_component,
            "generator": GENERATOR_NAME,
            "version": GENERATOR_VERSION,
        },
    )
    return 0


def cmd_sweep(config: RunConfig) -> int:
    data = _as_2d(_load_dataset(config.inputs[0]), config)
    records = sweep(
        data,
        config.angles,
        bandwidth_override=config.bandwidth_override,
        grid_points=config.grid_points,
    )
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write("angle_rad,cip,sqrt_cip," + ",".join(SWEEP_FIELDS[1:]) + "\n")
        for record in records:
            row = [record.angle, record.cip, math.sqrt(record.cip)]
            row += [getattr(record, field) for field in SWEEP_FIELDS[1:]]
            handle.write(",".join(_fmt(value) for value in row) + "\n")

    def dot(record, value_field):
        value = getattr(record, value_field)
        entry = {
            "angle_rad": record.angle,
            "direction": [float(c) for c in record.direction.components],
            value_field: value if math.isfinite(value) else None,
        }
        if not math.isfinite(value):
            # The potential underflowed: strict JSON has no infinity.
            entry["separable"] = True
        return entry

    at_hinge = select_best(records, "hinge", minimize=True)
    at_entropy = select_best(records, "h2x", minimize=False)
    summary = {
        "config": _config_metadata(config),
        "min_hinge": dot(at_hinge, "hinge") | {"linear01": at_hinge.linear01},
        "min_linear01": dot(select_best(records, "linear01", minimize=True), "linear01"),
        "max_h2x": dot(at_entropy, "h2x") | {"eaa_risk": at_entropy.eaa_risk},
        "min_cip": dot(select_best(records, "cip", minimize=True), "cip"),
        "min_eaa_risk": dot(select_best(records, "eaa_risk", minimize=True), "eaa_risk"),
    }
    with open(_sidecar_path(config.output), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return 0


def _config_metadata(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "inputs": [str(p) for p in config.inputs],
        "angles": config.angles,
        "grid_points": config.grid_points,
        "tail_k": config.tail_k,
        "bandwidth_override": config.bandwidth_override,
    }


def cmd_table(config: RunConfig) -> int:
    rows = []
    for path in config.inputs:
        data = _as_2d(_load_dataset(path), config)
        rows.append(
            compare(
                data,
                config.angles,
                bandwidth_override=config.bandwidth_override,
                grid_points=config.grid_points,
                dataset_name=os.path.basename(str(path)),
            )
        )
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write(
            "dataset,E_hinge,cos_hinge,E_melc,cos_melc,hinge_separable,melc_separable\n"
        )
        for row in rows:
            handle.write(
                ",".join(
                    [
                        row.dataset,
                        _fmt(row.e_hinge),
                        _fmt(row.cos_hinge),
                        _fmt(row.e_melc),
                        _fmt(row.cos_melc),
                        str(row.hinge_separable).lower(),
                        str(row.melc_separable).lower(),
                    ]
                )
                + "\n"
            )
    return 0


def cmd_bound_check(config: RunConfig) -> int:
    data = _as_2d(_load_dataset(config.inputs[0]), config)
    results = bound_sweep(
        data,
        config.angles,
        bandwidth_override=config.bandwidth_override,
        tail_k=config.tail_k,
        grid_points=config.grid_points,
    )

    lines = ["angle_rad,lhs,rhs,slack,holds,separable"]
    min_slack = math.inf
    min_slack_angle = None
    violations = 0
    separable_count = 0
    for angle, result in results:
        both_finite = math.isfinite(result.lhs) and math.isfinite(result.rhs)
        slack = result.lhs - result.rhs if both_finite else math.inf
        lines.append(
            ",".join(
                [
                    _fmt(angle),
                    _fmt(result.lhs),
                    _fmt(result.rhs),
                    _fmt(slack),
                    str(result.holds).lower(),
                    str(result.separable).lower(),
                ]
            )
        )
        if result.separable:
            separable_count += 1
        else:
            if slack < min_slack:
                min_slack = slack
                min_slack_angle = angle
        if not result.holds:
            violations += 1
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    summary = {
        "config": _config_metadata(config),
        "angles": config.angles,
        "violations": violations,
        "separable_angles": separable_count,
        "min_slack": None if min_slack_angle is None else min_slack,
        "min_slack_angle_rad": min_slack_angle,
    }
    print(json.dumps(summary))
    return 1 if violations else 0


def cmd_classify(config: RunConfig) -> int:
    train = _load_dataset(config.train)
    test = _load_dataset(config.test)
    if train.dim != 2:
        if not config.pca2:
            raise ValueError(
                f"training set has dimension {train.dim}; pass --pca2 to embed it first"
            )
        # Embed the test set with the training embedding, not its own.
        mean = train.points.mean(axis=0)
        train, components = pca_top2(train)
        test = LabeledDataset.from_arrays(
            (test.points - mean) @ components.T, test.labels
        )
    elif test.dim != 2:
        raise ValueError("test set dimension does not match the 2-D training set")
    angle, direction = melc_direction(
        train, config.angles, bandwidth_override=config.bandwidth_override
    )
    minus, plus = project(train, direction)
    sigma = config.bandwidth_override
    pair = projected_pair(minus, plus, sigma, sigma)
    model = build_multithreshold_model(pair, direction, config.grid_points)
    predictions = classify(model, test.points)
    with open(config.output, "w", encoding="utf-8") as handle:
        handle.write("prediction\n" + "".join(np.where(predictions > 0, "+1\n", "-1\n").tolist()))
    summary = {
        "config": _config_metadata(config),
        "angle_rad": angle,
        "direction": [float(c) for c in direction.components],
        "thresholds": [float(t) for t in model.thresholds],
        "leftmost_sign": model.leftmost_sign,
        "bandwidths": [pair.f_minus.bandwidth, pair.f_plus.bandwidth],
        "balanced_error": empirical_balanced_error(model, test),
        "n_test": test.n_points,
    }
    with open(_sidecar_path(config.output), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(json.dumps({"balanced_error": summary["balanced_error"], "angle_rad": angle}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melc",
        description="Multithreshold entropy linear classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic benchmark CSV")
    p.add_argument("--name", required=True, choices=DATASET_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True, help="points per component")
    p.add_argument("--out", required=True)

    def common(p, with_sigma=True):
        p.add_argument("--angles", type=int, default=DEFAULT_ANGLES)
        p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
        if with_sigma:
            p.add_argument(
                "--sigma",
                type=float,
                default=None,
                help="fixed KDE bandwidth for both classes instead of the Silverman rule",
            )
        p.add_argument("--pca2", action="store_true", help="embed on top-2 principal components first")

    p = sub.add_parser("sweep", help="evaluate every objective on the angle grid")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("table", help="surrogate-vs-direct comparison per dataset")
    p.add_argument("--data", action="append", required=True)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("bound-check", help="entropy bound on overlap, per angle")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tail-k", type=float, default=DEFAULT_TAIL_K)
    common(p)

    p = sub.add_parser("classify", help="train on one file, predict another")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    inputs = []
    if getattr(args, "data", None) is not None:
        inputs = args.data if isinstance(args.data, list) else [args.data]
    return RunConfig(
        command=args.command,
        inputs=inputs,
        output=getattr(args, "out", None),
        angles=getattr(args, "angles", DEFAULT_ANGLES),
        grid_points=getattr(args, "grid_points", DEFAULT_GRID_POINTS),
        tail_k=getattr(args, "tail_k", DEFAULT_TAIL_K),
        seed=getattr(args, "seed", 0),
        bandwidth_override=getattr(args, "sigma", None),
        pca2=getattr(args, "pca2", False),
        name=getattr(args, "name", ""),
        n_per_component=getattr(args, "n", 0),
        train=getattr(args, "train", None),
        test=getattr(args, "test", None),
    )


_COMMANDS = {
    "datagen": cmd_datagen,
    "sweep": cmd_sweep,
    "table": cmd_table,
    "bound-check": cmd_bound_check,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except Exception as exc:  # surface a clean one-line error, nonzero exit
        print(f"melc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
