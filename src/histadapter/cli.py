"""Command-line entry points: train, eval, gradcheck, ablate, params, synth-dump.

``train``, ``eval`` and ``ablate`` take ``--config PATH`` (flat key=value
file), ``--seed N``, ``--out DIR`` and ``--set key=value`` overrides; the
other commands take only the flags they read, and reject the rest.
Commands are deterministic given (seed, config).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from histadapter.config import RunConfig, load_config
from histadapter.gradcheck import run_gradient_checks
from histadapter.metrics import METRIC_CSV_HEADER
from histadapter.overhead import account, format_report
from histadapter.synth import TRAIN_STREAM, _draw, dump_dataset, style_bank
from histadapter.training import evaluate_run, train_run
from histadapter.vit import PRESETS

__all__ = ["main"]


def _config_flags(parser):
    """The flags :func:`_config_from` reads."""
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config field")


def _config_from(args) -> RunConfig:
    overrides = {}
    for item in args.sets:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    return load_config(args.config, overrides)


def cmd_train(args) -> int:
    cfg = _config_from(args)
    result = train_run(cfg)
    print(f"wrote {result.log_path} and {result.checkpoint_path}")
    print("final losses: " + ", ".join(f"{k}={v:.6g}" for k, v in result.final_losses.items()))
    return 0


def cmd_eval(args) -> int:
    cfg = _config_from(args)
    out_dir = Path(cfg.out)
    path = out_dir / "metrics.csv"
    header = path.read_text().split("\n", 1)[0] if path.exists() else ""
    if header not in ("", METRIC_CSV_HEADER):
        raise ValueError(f"{path} has header {header!r}; eval appends rows under "
                         f"{METRIC_CSV_HEADER!r}")
    report = evaluate_run(cfg, args.checkpoint)
    row = report.csv_row(cfg.protocol_name, cfg.seed, cfg.variant, cfg.fusion,
                         cfg.tsr_lambda, cfg.theta)
    out_dir.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        if not header:
            fh.write(METRIC_CSV_HEADER + "\n")
        fh.write(row + "\n")
    print(METRIC_CSV_HEADER)
    print(row)
    return 0


def cmd_gradcheck(args) -> int:
    start = time.time()
    reports = run_gradient_checks(instances_per_op=args.instances, seed=args.seed)
    for report in reports:
        print(report)
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed "
          f"in {time.time() - start:.1f}s")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["op,max_relative_error,element_count,passed"]
        lines += [f"{r.op_name},{r.max_relative_error:.6e},{r.element_count},{int(r.passed)}"
                  for r in reports]
        (out_dir / "gradcheck.csv").write_text("\n".join(lines) + "\n")
    return 1 if failures else 0


def _parse_list(text: str, cast, flag: str):
    values = [cast(part) for part in text.split(",") if part != ""]
    if not values:
        raise ValueError(f"{flag} needs at least one value, got {text!r}")
    return values


def cmd_ablate(args) -> int:
    base = _config_from(args)
    variants = _parse_list(args.variants, str, "--variants")
    thetas = _parse_list(args.thetas, float, "--thetas")
    lambdas = _parse_list(args.lambdas, float, "--lambdas")
    fusions = _parse_list(args.fusions, str, "--fusions")
    seeds = _parse_list(args.seeds, int, "--seeds")
    out_dir = Path(base.out)
    cells = [((variant, theta, lam, fusion), [
        replace(base, variant=variant, theta=theta, tsr_lambda=lam, fusion=fusion, seed=seed,
                out=str(out_dir / f"{variant}-t{theta}-l{lam}-{fusion}-s{seed}")).validate()
        for seed in seeds])
        for variant in variants for theta in thetas for lam in lambdas for fusion in fusions]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [METRIC_CSV_HEADER]
    means: dict = {}
    for cell, cfgs in cells:
        cell_hters = []
        for cfg in cfgs:
            result = train_run(cfg)
            report = evaluate_run(cfg, result.checkpoint_path)
            rows.append(report.csv_row(cfg.protocol_name, cfg.seed, cfg.variant, cfg.fusion,
                                       cfg.tsr_lambda, cfg.theta))
            cell_hters.append(report.hter)
            print(rows[-1])
        means[cell] = float(np.mean(cell_hters))
    (out_dir / "ablation.csv").write_text("\n".join(rows) + "\n")
    summary = ["variant,theta,lambda,fusion,mean_hter"]
    summary += [f"{v},{t:.10g},{l:.10g},{f},{m:.10g}" for (v, t, l, f), m in means.items()]
    (out_dir / "ablation_summary.csv").write_text("\n".join(summary) + "\n")
    print(f"wrote {out_dir / 'ablation.csv'} and summary")
    return 0


def cmd_params(args) -> int:
    report = account(args.preset, adapter_dim=args.adapter_dim)
    print(format_report(report))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["preset,backbone_params,adapter_params,param_ratio,backbone_macs,adapter_macs,mac_ratio",
                 f"{report.preset},{report.backbone_params},{report.adapter_params},"
                 f"{report.param_ratio:.8f},{report.backbone_macs},{report.adapter_macs},"
                 f"{report.mac_ratio:.8f}"]
        (out_dir / "overhead.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_synth_dump(args) -> int:
    styles = style_bank(args.domains, args.style_seed)
    batch = _draw([(style, args.per_class, i, TRAIN_STREAM) for i, style in enumerate(styles)],
                  args.side)
    manifest = dump_dataset(batch, args.out)
    print(f"wrote {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="histadapter",
        description="Train and evaluate token-histogram adapters on synthetic domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train adapters + head on source domains")
    _config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out domain")
    _config_flags(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--instances", type=int, default=5, help="random instances per op")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="grid over variant x theta x lambda x fusion")
    _config_flags(p)
    p.add_argument("--variants", default="full,vanilla_linear")
    p.add_argument("--thetas", default="0.7")
    p.add_argument("--lambdas", default="0,0.1")
    p.add_argument("--fusions", default="sum")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("params", help="parameter / MAC overhead accounting")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--preset", default="base", choices=sorted(PRESETS))
    p.add_argument("--adapter-dim", type=int, default=8)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("synth-dump", help="write the synthetic dataset to disk")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--domains", type=int, default=4)
    p.add_argument("--per-class", type=int, default=16)
    p.add_argument("--side", type=int, default=32)
    p.add_argument("--style-seed", type=int, default=7)
    p.set_defaults(fn=cmd_synth_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
