"""Command-line entry point.

Subcommands: generate, preprocess, train, finetune, eval, hpo. Each takes
only the flags it reads: --seed on generate, train, finetune and hpo;
--out-dir on train, finetune, eval and hpo; --config <json> and --preset
on train and finetune, where config precedence is defaults < preset <
config file < command-line flags. Those four echo what they ran with into
the output directory as effective_config.json. The CTG_RESULTS_DIR
environment variable sets the default output root. train and finetune run
one command body around one train.fit call, finetune starting from its --from
checkpoint, whose config must equal each model setting actually given (by
preset, config file or flag; defaults are not compared). Both record the
model config they ran under "model" in effective_config.json and print the
path of the checkpoint they write. Settings are checked and input files read
before the output directory is made, so a command rejected for them writes
nothing; eval analyses and hpo searches before making theirs, so a rejected
eval or hpo, one whose every trial failed included, writes nothing either.
Checks inside training run after effective_config.json is written.

The model runs its two channels on two threads, and both make BLAS calls, so
each BLAS call gets half the usable cores (at least one) unless the thread
variables are already set. BLAS reads them when numpy loads, so this default
is set at import, before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


if "numpy" not in sys.modules:
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, str(max(1, _usable_cpus() // 2)))

# the package imports load numpy, so they follow the thread default
from . import data as datamod
from . import evaluation as evalmod
from .errors import CliError, CtgformerError, TrainError
from .hpo import SearchSpace, best_trial, preset_configs, run_search, write_leaderboard
from .model import ModelConfig, load_checkpoint, predict_scores, save_checkpoint
from .numcore import ACTIVATIONS
from .signal import preprocess, window_count
from .train import TRAIN_KEYS, TrainConfig, fit, write_train_log

MODEL_KEYS = tuple(ModelConfig.__dataclass_fields__)


def _resolve_out_dir(arg, subcommand: str) -> Path:
    if arg:
        out = Path(arg)
    else:
        root = os.environ.get("CTG_RESULTS_DIR", "results")
        out = Path(root) / subcommand
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not found: {p}")
    return p


def _load_config_file(path) -> dict:
    p = _require_file(path, "config file")
    try:
        payload = json.loads(p.read_text())
    except ValueError as exc:
        raise CliError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"config file {p} must hold a JSON object")
    unknown = set(payload).difference(MODEL_KEYS, TRAIN_KEYS)
    if unknown:
        raise CliError(f"config file {p} has unknown keys: {sorted(unknown)}")
    return payload


def _settings(args) -> tuple:
    """(ModelConfig kwargs, TrainConfig kwargs) by precedence: defaults <
    preset < config file < flags."""
    model_kwargs, train_kwargs = preset_configs(args.preset) if args.preset else ({}, {})
    overrides = _load_config_file(args.config) if args.config else {}
    # a model or train key without a flag reads None and leaves the rest alone
    flags = {k: getattr(args, k, None) for k in MODEL_KEYS + TRAIN_KEYS}
    if args.separate_backbones:
        flags["share_backbone"] = False
    overrides.update({k: v for k, v in flags.items() if v is not None})
    for key, value in overrides.items():
        (train_kwargs if key in TRAIN_KEYS else model_kwargs)[key] = value
    return model_kwargs, train_kwargs


def _thread_settings() -> dict:
    """The BLAS thread variables as this process saw them, and the usable CPU count."""
    return {**{var: os.environ.get(var) for var in THREAD_VARS}, "usable_cpus": _usable_cpus()}


def _echo_config(out_dir: Path, payload: dict) -> None:
    path = out_dir / "effective_config.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _parse_band(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise CliError(f"--dtd-band must look like LO:HI, got {text!r}") from exc


def _add_model_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    p.add_argument("--preset", default=None, help="named preset, e.g. paper-best")
    p.add_argument("--n-layers", type=int, default=None)
    p.add_argument("--n-heads", type=int, default=None)
    p.add_argument("--d-model", type=int, default=None)
    p.add_argument("--d-ff", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--fc-dropout", type=float, default=None)
    p.add_argument("--attn-dropout", type=float, default=None)
    p.add_argument("--patch-len", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--activation", choices=ACTIVATIONS, default=None)
    p.add_argument("--separate-backbones", action="store_true")
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--split-fraction", type=float, default=0.8)
    p.add_argument("--dtd-band", default=None, help="restrict cases to LO:HI days to delivery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctgformer",
                                     description="patch-transformer CTG classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic cohort file")
    g.add_argument("--n-per-class", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--missing-rate", type=float, default=None)
    g.add_argument("--contraction-rate", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)

    pp = sub.add_parser("preprocess", help="clip, scale, window and mask raw traces")
    pp.add_argument("--raw", required=True)
    pp.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train from a cohort file")
    tr.add_argument("--data", required=True)
    _add_model_train_flags(tr)

    ft = sub.add_parser("finetune", help="resume training from a checkpoint")
    ft.add_argument("--from", dest="from_ckpt", required=True)
    ft.add_argument("--data", required=True)
    _add_model_train_flags(ft)

    ev = sub.add_parser("eval", help="ROC analysis of predictions or a checkpoint")
    ev.add_argument("--preds", default=None)
    ev.add_argument("--ckpt", default=None)
    ev.add_argument("--data", default=None)
    ev.add_argument("--threshold", default="all",
                    choices=("all", "default", "youden", "high_sensitivity",
                             "high_specificity"))
    ev.add_argument("--dtd-max", type=float, default=None)
    ev.add_argument("--sens-target", type=float, default=0.90)
    ev.add_argument("--spec-target", type=float, default=0.90)
    ev.add_argument("--out-dir", default=None)

    hp = sub.add_parser("hpo", help="random hyperparameter search")
    hp.add_argument("--data", required=True)
    hp.add_argument("--trials", type=int, default=100)
    hp.add_argument("--max-epochs", type=int, default=60)
    hp.add_argument("--patience", type=int, default=10)
    hp.add_argument("--prune", action="store_true")
    hp.add_argument("--split-fraction", type=float, default=0.8)
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--out-dir", default=None)

    return parser


def cmd_generate(args) -> int:
    kwargs = {"n_per_class": args.n_per_class, "seed": args.seed}
    if args.missing_rate is not None:
        kwargs["missing_rate"] = args.missing_rate
    if args.contraction_rate is not None:
        kwargs["contraction_rate"] = args.contraction_rate
    cohort = datamod.generate_cohort(datamod.GenSpec(**kwargs))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datamod.write_cohort(cohort, out)
    npo, apo = cohort.class_counts
    print(f"wrote {len(cohort.traces)} traces ({npo} control, {apo} case) to {out}")
    print(f"digest {cohort.digest()}")
    return 0


def cmd_preprocess(args) -> int:
    raws = datamod.read_raw_traces(_require_file(args.raw, "raw trace file"))
    traces = []
    dropped = 0
    for raw in raws:
        windows = preprocess(raw)
        dropped += window_count(len(raw.fhr)) - len(windows)
        traces.extend(windows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datamod.write_cohort(datamod.Cohort(traces), out)
    print(f"wrote {len(traces)} windows to {out} ({dropped} dropped by the 30% rule)")
    return 0


def _prepare_sets(args):
    cohort = datamod.read_cohort(_require_file(args.data, "cohort file"))
    if args.dtd_band:
        cohort = datamod.filter_dtd(cohort, _parse_band(args.dtd_band))
    train_cohort, val_cohort = datamod.split(cohort, fraction=args.split_fraction,
                                             seed=args.seed)
    return train_cohort.traces, val_cohort.traces


def _from_checkpoint(path, model_kwargs: dict) -> tuple:
    """(config, params) of the checkpoint at ``path``; each model setting given
    must equal the checkpoint's value."""
    params, cfg = load_checkpoint(path)
    given = ModelConfig(**{**cfg.as_dict(), **model_kwargs}).as_dict()
    diffs = [f"{k} {v!r} in the checkpoint, {given[k]!r} given"
             for k, v in cfg.as_dict().items() if v != given[k]]
    if diffs:
        raise TrainError(f"checkpoint config does not match: {'; '.join(diffs)}")
    return cfg, params


def cmd_train(args) -> int:
    """train, and finetune: the same fit started from the --from checkpoint,
    whose config must match the model settings given."""
    model_kwargs, train_kwargs = _settings(args)
    if args.command == "finetune":
        ckpt = _require_file(args.from_ckpt, "checkpoint")
        cfg, init = _from_checkpoint(ckpt, model_kwargs)
        source = {"from": str(ckpt)}
    else:
        cfg, init, source = ModelConfig(**model_kwargs), None, {}
    train_cfg = TrainConfig(seed=args.seed, **train_kwargs)
    train_traces, val_traces = _prepare_sets(args)
    out_dir = _resolve_out_dir(args.out_dir, args.command)
    _echo_config(out_dir, {"command": args.command, "data": args.data, "seed": args.seed,
                           "split_fraction": args.split_fraction,
                           "dtd_band": args.dtd_band, "model": cfg.as_dict(), **source,
                           "train": vars(train_cfg), "threads": _thread_settings()})
    params, log = fit(cfg, train_cfg, train_traces, val_traces, init=init, verbose=True)
    save_checkpoint(params, cfg, out_dir / "best.ckpt")
    write_train_log(log, out_dir / "train_log.csv")
    print(f"stop={log.stop_reason} best_epoch={log.best_epoch} "
          f"best_val_auc={log.best_val_auc!r}")
    print(f"checkpoint {out_dir / 'best.ckpt'}")
    return 0


def _metrics_line(name: str, rep) -> str:
    if not rep.attained:
        return f"{name}: target unattainable"
    m = rep.metrics

    def fmt(v):
        return "n/a" if v != v else f"{v:.4f}"

    return (f"{name}: threshold={rep.threshold!r} sens={fmt(m.sensitivity)} "
            f"spec={fmt(m.specificity)} ppv={fmt(m.ppv)} npv={fmt(m.npv)} "
            f"f1={fmt(m.f1)} acc={fmt(m.accuracy)}")


def cmd_eval(args) -> int:
    if args.preds:
        scored = evalmod.read_predictions(_require_file(args.preds, "predictions file"))
    elif args.ckpt and args.data:
        params, cfg = load_checkpoint(_require_file(args.ckpt, "checkpoint"))
        cohort = datamod.read_cohort(_require_file(args.data, "cohort file"))
        scores = predict_scores(cohort.traces, cfg, params)
        scored = [evalmod.Prediction(t.trace_id, float(s), t.label, t.days_to_delivery)
                  for t, s in zip(cohort.traces, scores)]
    else:
        raise CliError("eval needs --preds, or --ckpt together with --data")
    preds = scored if args.dtd_max is None else evalmod.filter_by_dtd(scored, args.dtd_max)
    analysis = evalmod.analyze(preds, sens_target=args.sens_target,
                               spec_target=args.spec_target)
    out_dir = _resolve_out_dir(args.out_dir, "eval")
    if not args.preds:
        evalmod.write_predictions(scored, out_dir / "preds.csv")
    evalmod.write_report(analysis, out_dir / "report.json")
    evalmod.write_roc_points(analysis, out_dir / "roc_points.csv")
    _echo_config(out_dir, {"command": "eval", "preds": args.preds, "ckpt": args.ckpt,
                           "data": args.data, "dtd_max": args.dtd_max,
                           "sens_target": args.sens_target,
                           "spec_target": args.spec_target})
    print(f"auc={analysis.auc!r} over {len(preds)} predictions")
    names = (args.threshold,) if args.threshold != "all" else \
        ("default", "youden", "high_sensitivity", "high_specificity")
    for name in names:
        print(_metrics_line(name, analysis.thresholds[name]))
    return 0


def cmd_hpo(args) -> int:
    cohort = datamod.read_cohort(_require_file(args.data, "cohort file"))
    train_cohort, val_cohort = datamod.split(cohort, fraction=args.split_fraction,
                                             seed=args.seed)
    space = SearchSpace()
    trials = run_search(space, train_cohort.traces, val_cohort.traces,
                        n_trials=args.trials, max_epochs=args.max_epochs,
                        patience=args.patience, seed=args.seed, prune=args.prune,
                        verbose=True)
    out_dir = _resolve_out_dir(args.out_dir, "hpo")
    _echo_config(out_dir, {"command": "hpo", "data": args.data, "seed": args.seed,
                           "trials": args.trials, "max_epochs": args.max_epochs,
                           "patience": args.patience, "prune": args.prune,
                           "space": vars(space), "threads": _thread_settings()})
    write_leaderboard(trials, out_dir / "leaderboard.csv")
    trials_dir = out_dir / "trials"
    trials_dir.mkdir(exist_ok=True)
    for t in trials:
        if t.log is not None:
            tdir = trials_dir / f"{t.index:03d}"
            tdir.mkdir(exist_ok=True)
            write_train_log(t.log, tdir / "train_log.csv")
    best = best_trial(trials)
    print(f"best trial {best.index}: val_auc={best.best_val_auc!r} "
          f"d_model={best.model_config.d_model} n_layers={best.model_config.n_layers}")
    print(f"leaderboard {out_dir / 'leaderboard.csv'}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "finetune": cmd_train,
    "eval": cmd_eval,
    "hpo": cmd_hpo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CtgformerError as exc:
        print(f"error[{exc.module}]: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
