"""The benchmark's workloads, driven through ctgformer's public functions.

``train-small`` and ``train-wide`` call ``train.fit`` exactly as
``ctgformer train`` does; their traced runs replay fit's epoch loop from its
public parts (forward_batch, bce_loss_batch, backward, Adam.step,
predictions_for, auc) so that every call gets a span, and a gate requires the
replay to match fit bit for bit. Their set-up takes the generated cohort
through the raw file, ``preprocess`` and the cohort file, as ``ctgformer
preprocess`` and ``ctgformer train`` read it.

Every input is built from the run's seed. Sizes are fixed, so the amount of
work does not depend on the seed; only the signal content does.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctgformer.data import (
    Cohort,
    GenSpec,
    generate_cohort,
    read_cohort,
    read_raw_traces,
    split,
    stack_traces,
    write_cohort,
    write_raw_traces,
)
from ctgformer.errors import CtgformerError
from ctgformer.evaluation import (
    Prediction,
    analyze,
    auc,
    evaluate_by_dtd,
    write_predictions,
    write_report,
    write_roc_points,
)
from ctgformer.hpo import preset_configs
from ctgformer.model import (
    ModelConfig,
    clone_param_data,
    forward_batch,
    init_params,
    load_checkpoint,
    load_param_data,
    named_tensors,
    predict_scores,
    save_checkpoint,
)
from ctgformer.model.net import max_forward_chunk
from ctgformer.numcore import Graph, backward
from ctgformer.signal import MISSING, WINDOW_LEN, RawTrace, preprocess, trace_to_raw
from ctgformer.train import (
    IMPROVE_DELTA,
    Adam,
    EpochRecord,
    TrainConfig,
    TrainLog,
    bce_loss_batch,
    fit,
    predictions_for,
)

from tracing import SpanStats, Tracer

AUC_TARGET = 0.90
# Set-up runs this many times before the first fit and once more after each
# fit, and setup_s is their median, so the repeats are spread over the run.
SETUP_REPEATS = 5
DTD_MAX_DAYS = 2.0
FHR_GAP_SHARE = 0.10        # extra raw recordings whose window breaks the 30% FHR rule
BATCH_KEYS = ("fhr", "fhr_mask", "toco", "toco_mask", "labels")


def acceptance_config() -> tuple:
    """paper-best scaled to d_model 128, 2 layers, as the acceptance suite runs it."""
    model_kwargs, train_kwargs = preset_configs("paper-best")
    model_kwargs.update(d_model=128, n_layers=2)
    return ModelConfig(**model_kwargs), train_kwargs


def paper_best_config() -> tuple:
    model_kwargs, train_kwargs = preset_configs("paper-best")
    return ModelConfig(**model_kwargs), train_kwargs


@dataclass(frozen=True)
class TrainSize:
    n_train: int
    n_val: int
    n_heldout: int
    epochs: int


SIZES = {
    "train-small": TrainSize(n_train=192, n_val=48, n_heldout=48, epochs=4),
    "train-wide": TrainSize(n_train=48, n_val=8, n_heldout=32, epochs=3),
}
TINY_SIZES = {
    "train-small": TrainSize(n_train=24, n_val=8, n_heldout=8, epochs=1),
    "train-wide": TrainSize(n_train=8, n_val=8, n_heldout=8, epochs=1),
}
CONFIGS = {"train-small": acceptance_config, "train-wide": paper_best_config}


class Gates:
    """Correctness checks; any failure makes the run exit non-zero. Repeated
    checks of one gate are folded into a count, keeping the first failure."""

    def __init__(self):
        self.results = {}        # name -> [checks, failures, detail]

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.results.setdefault(name, [0, 0, detail])
        entry[0] += 1
        if not ok:
            if not entry[1]:
                entry[2] = detail
            entry[1] += 1

    @property
    def passed(self) -> bool:
        return all(failures == 0 for _, failures, _ in self.results.values())


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)     # end-to-end: name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    failed_base: str = ""
    report: list = field(default_factory=list)      # extra printed lines
    record: dict = field(default_factory=dict)      # digests, seeds, computed counts
    untraced_rate: float = math.nan                 # for the tracing overhead


def peak_rss_mib() -> float:
    """Peak resident set so far. Read after the first fit run or pass, so the
    value does not depend on how many of them fit in --seconds."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- computed counts

def gemm_flops_per_trace(cfg: ModelConfig) -> tuple:
    """(forward, backward) GEMM FLOPs for one trace, computed from the config.

    Two FLOPs per multiply-add. Backward forms the gradient of every operand
    that requires one: both operands for weight and activation products, the
    weight only where the other side is data (patches, pooling weights).
    """
    n, p, d, f, layers = cfg.n_patches, cfg.patch_len, cfg.d_model, cfg.d_ff, cfg.n_layers
    # (multiply-adds, operands needing a gradient) per channel
    per_channel = [(n * p * d, 1),                 # patch embedding
                   (layers * 4 * n * d * d, 2),    # Q, K, V, O projections
                   (layers * 2 * n * n * d, 2),    # scores and weighted values, all heads
                   (layers * 2 * n * d * f, 2),    # feed-forward
                   (n * d, 1)]                     # masked mean pooling
    head = (cfg.channels * d, 2)
    terms = [(m * cfg.channels, g) for m, g in per_channel] + [head]
    forward = sum(2 * m for m, _ in terms)
    return forward, sum(2 * m * g for m, g in terms)


def cohort_payload_bytes(n_traces: int) -> int:
    """float64 values plus bool masks of both channels, computed from shapes."""
    return n_traces * 2 * WINDOW_LEN * (8 + 1)


# ---------------------------------------------------------------- shared set-up

def build_cohort(tr: Tracer, spec: GenSpec, work: Path, gates: Gates) -> tuple:
    """Generate a cohort and take it through the raw and cohort file formats
    the way ``ctgformer preprocess`` and ``ctgformer train`` read it."""
    with tr.span("data.generate_cohort", items=2 * spec.n_per_class):
        generated = generate_cohort(spec)
    raws = []
    for t in generated.traces:
        with tr.span("signal.trace_to_raw"):
            raws.append(trace_to_raw(t))
    # Extra copies of a fixed share of the recordings with 40% of their FHR
    # missing: preprocess must drop each of them under the 30% rule, so the
    # kept windows are exactly the generated cohort.
    n_gap = max(1, round(FHR_GAP_SHARE * len(raws)))
    for raw in raws[:n_gap]:
        fhr = raw.fhr.copy()
        fhr[:int(0.4 * WINDOW_LEN)] = MISSING
        raws.append(RawTrace(trace_id=f"{raw.trace_id}-gap", fhr=fhr, toco=raw.toco,
                             label=raw.label, days_to_delivery=raw.days_to_delivery))
    raw_path = work / "cohort_raw.csv"
    with tr.span("data.write_raw_traces", items=len(raws)) as s:
        write_raw_traces(raws, raw_path)
    s["bytes"] = raw_path.stat().st_size
    with tr.span("data.read_raw_traces", items=len(raws)):
        raws = read_raw_traces(raw_path)
    windows, dropped = [], 0
    for raw in raws:
        with tr.span("signal.preprocess") as s:
            kept = preprocess(raw)
        s["kept"], s["dropped"] = len(kept), -(-len(raw.fhr) // WINDOW_LEN) - len(kept)
        windows.extend(kept)
        dropped += s["dropped"]
    gates.check("window_counts", len(windows) == len(generated.traces) and dropped == n_gap,
                f"kept {len(windows)} and dropped {dropped} windows, designed "
                f"{len(generated.traces)} kept and {n_gap} past the 30% FHR rule")
    cohort_path = work / "cohort.csv"
    with tr.span("data.write_cohort", items=len(windows)) as s:
        write_cohort(Cohort(windows), cohort_path)
    s["bytes"] = cohort_path.stat().st_size
    with tr.span("data.read_cohort", items=len(windows)):
        cohort = read_cohort(cohort_path)
    gates.check("cohort_file_round_trip", cohort.digest() == Cohort(windows).digest(),
                "write_cohort then read_cohort keeps the digest")
    gates.check("raw_path_within_1ulp", all(
        a.trace_id == b.trace_id and np.array_equal(a.fhr_mask, b.fhr_mask)
        and np.array_equal(a.toco_mask, b.toco_mask)
        and np.allclose(a.fhr, b.fhr, rtol=0, atol=1e-15)
        and np.allclose(a.toco, b.toco, rtol=0, atol=1e-15)
        for a, b in zip(generated.traces, cohort.traces, strict=True)),
                "generated windows survive the raw file and preprocess within 1e-15")
    files = {"raw_file_bytes": raw_path.stat().st_size,
             "cohort_file_bytes": cohort_path.stat().st_size,
             "cohort_payload_bytes_computed": cohort_payload_bytes(len(windows))}
    return cohort, files


def three_way_split(tr: Tracer, cohort: Cohort, size: TrainSize, seed: int) -> tuple:
    total = size.n_train + size.n_val + size.n_heldout
    with tr.span("data.split"):
        train, rest = split(cohort, size.n_train / total, seed=seed)
    with tr.span("data.split"):
        val, heldout = split(rest, size.n_val / (size.n_val + size.n_heldout), seed=seed)
    return train.traces, val.traces, heldout.traces


def warm_up(tr: Tracer, cfg: ModelConfig, traces: list, seed: int) -> None:
    """One small training step and one scoring call, so allocator growth and
    BLAS thread start-up land in set-up rather than in the first epoch."""
    with tr.span("model.init_params"):
        params = init_params(cfg, seed=seed)
    with tr.span("data.stack_traces"):
        batch = stack_traces(traces[:2])
    with Graph() as g:
        with tr.span("model.forward_batch", traces=2):
            probs = forward_batch(batch, cfg, params, training=True,
                                  rng=np.random.default_rng(seed))
        with tr.span("train.bce_loss_batch"):
            loss = bce_loss_batch(probs, batch["labels"])
    with tr.span("numcore.backward", tape_nodes=len(g)):
        backward(loss, g, retain_intermediate_grads=False)
    with tr.span("model.predict_scores", traces=2):
        predict_scores(traces[:2], cfg, params)


# ---------------------------------------------------------------- training

def traced_fit(tr: Tracer, cfg: ModelConfig, train_cfg: TrainConfig,
               train_traces: list, val_traces: list) -> tuple:
    """``train.fit`` rebuilt from its public parts, one span per call.

    Mirrors fit's seed streams, batching, chunking by ``max_forward_chunk``,
    best-epoch snapshot and patience rule, so the loss sequence and final
    parameters must match fit's bit for bit (checked by a gate)."""
    with tr.span("bench.fit"):
        return _replay_fit(tr, cfg, train_cfg, train_traces, val_traces)


def _replay_fit(tr: Tracer, cfg: ModelConfig, train_cfg: TrainConfig,
                train_traces: list, val_traces: list) -> tuple:
    seeds = np.random.SeedSequence(train_cfg.seed).generate_state(2).tolist()
    with tr.span("model.init_params"):
        params = init_params(cfg, seed=int(seeds[0]))
    rng = np.random.default_rng(int(seeds[1]))
    with tr.span("data.stack_traces"):
        stacked = stack_traces(list(train_traces))
    with tr.span("train.Adam"):
        optimizer = Adam(named_tensors(params), lr=train_cfg.learning_rate)
    n, bs = len(stacked["labels"]), train_cfg.batch_size
    chunk = min(bs, max_forward_chunk(cfg))
    log = TrainLog()
    best_auc, best = -math.inf, None
    for epoch in range(1, train_cfg.max_epochs + 1):
        with tr.span("bench.epoch"):
            tic = time.perf_counter()
            order = rng.permutation(n)
            losses = []
            for lo in range(0, n, bs):
                batch_idx = order[lo:lo + bs]
                batch_loss = 0.0
                with tr.span("bench.step"):
                    for co in range(0, len(batch_idx), chunk):
                        idx = batch_idx[co:co + chunk]
                        piece = {k: stacked[k][idx] for k in BATCH_KEYS}
                        weight = len(idx) / len(batch_idx)
                        with Graph() as g:
                            with tr.span("model.forward_batch", traces=len(idx)):
                                probs = forward_batch(piece, cfg, params, training=True, rng=rng)
                            with tr.span("train.bce_loss_batch"):
                                loss = weight * bce_loss_batch(probs, piece["labels"])
                        with tr.span("numcore.backward", tape_nodes=len(g)):
                            backward(loss, g, retain_intermediate_grads=False)
                        batch_loss += loss.item()
                    with tr.span("train.Adam.step"):
                        optimizer.step()
                losses.append(batch_loss)
            mean_loss = float(np.mean(losses))
            with tr.span("train.predictions_for", traces=len(val_traces)):
                preds = predictions_for(val_traces, cfg, params)
            with tr.span("evaluation.auc"):
                val_auc = auc(preds)
            log.epochs.append(EpochRecord(epoch, mean_loss, val_auc, time.perf_counter() - tic))
        if val_auc > best_auc + IMPROVE_DELTA or best is None:
            best_auc, log.best_epoch = val_auc, epoch
            with tr.span("model.clone_param_data"):
                best = clone_param_data(params)
        if epoch - log.best_epoch >= train_cfg.patience:
            log.stop_reason = "early_stop"
            break
    else:
        log.stop_reason = "max_epochs"
    log.best_val_auc = best_auc
    with tr.span("model.load_param_data"):
        load_param_data(params, best)
    return params, log


def params_equal(a, b) -> bool:
    na, nb = named_tensors(a), named_tensors(b)
    return list(na) == list(nb) and all(
        na[k].data.tobytes() == nb[k].data.tobytes() for k in na)


def checkpoint_round_trip(tr: Tracer, params, cfg: ModelConfig, path: Path,
                          gates: Gates) -> None:
    with tr.span("model.save_checkpoint"):
        save_checkpoint(params, cfg, path)
    with tr.span("model.load_checkpoint"):
        loaded, loaded_cfg = load_checkpoint(path)
    gates.check("checkpoint_bit_exact", loaded_cfg == cfg and params_equal(params, loaded),
                "save_checkpoint then load_checkpoint returns identical tensors")


def evaluate(tr: Tracer, preds: list, work: Path, gates: Gates):
    """ROC analysis plus the days-to-delivery subset, written as reports."""
    with tr.span("evaluation.analyze"):
        analysis = analyze(preds)
    with tr.span("evaluation.evaluate_by_dtd"):
        near = evaluate_by_dtd(preds, DTD_MAX_DAYS)
    with tr.span("evaluation.auc"):
        mann_whitney = auc(preds)
    gates.check("trapezoid_equals_mann_whitney",
                abs(analysis.auc - mann_whitney) <= 1e-12,
                f"analyze {analysis.auc!r} vs auc {mann_whitney!r} (tolerance 1e-12)")
    with tr.span("bench.report"):
        with tr.span("evaluation.write_predictions"):
            write_predictions(preds, work / "preds.csv")
        with tr.span("evaluation.write_report"):
            write_report(analysis, work / "report.json")
        with tr.span("evaluation.write_report"):
            write_report(near, work / "report_near_delivery.json")
        with tr.span("evaluation.write_roc_points"):
            write_roc_points(analysis, work / "roc_points.csv")
    return mann_whitney


def time_to_target(log: TrainLog):
    elapsed = 0.0
    for e in log.epochs:
        elapsed += e.seconds
        if e.val_auc >= AUC_TARGET:
            return elapsed
    return None


def run_train(name: str, seed: int, seconds: float, tiny: bool, tr: Tracer,
              work: Path, gates: Gates) -> Result:
    size = (TINY_SIZES if tiny else SIZES)[name]
    cfg, train_kwargs = CONFIGS[name]()
    train_cfg = TrainConfig(max_epochs=size.epochs, patience=size.epochs + 1, seed=seed,
                            **train_kwargs)
    spec = GenSpec(n_per_class=(size.n_train + size.n_val + size.n_heldout) // 2, seed=seed)
    res = Result(failed_base="fit runs (a run fails if it raises or never reaches "
                             f"validation AUC {AUC_TARGET})")

    setup_times, digests = [], []

    def set_up() -> tuple:
        tic = time.perf_counter()
        with tr.span("bench.setup"):
            cohort, files = build_cohort(tr, spec, work, gates)
            splits = three_way_split(tr, cohort, size, seed)
            warm_up(tr, cfg, splits[0], seed)
        setup_times.append(time.perf_counter() - tic)
        digests.append(cohort.digest())
        return files, splits

    for _ in range(SETUP_REPEATS):
        files, (train, val, heldout) = set_up()

    fwd, bwd = gemm_flops_per_trace(cfg)
    res.record.update(files, cohort_digest=digests[0], gen_seed=spec.seed, split_seed=seed,
                      train_seed=seed, config=cfg.as_dict(), train_config=vars(train_cfg),
                      sizes=vars(size), gemm_flops_forward_per_trace_computed=fwd,
                      gemm_flops_backward_per_trace_computed=bwd)

    runs = []       # (TrainLog.key(), held-out score bytes) of each same-seed fit
    if tr.enabled:
        # One untraced fit: a same-seed repeat that the traced replay must
        # match bit for bit, and the untraced side of the tracing overhead.
        tr.enabled = False
        ref_params, ref_log = fit(cfg, train_cfg, train, val)
        runs.append((ref_log.key(), predict_scores(heldout, cfg, ref_params).tobytes()))
        tr.enabled = True
        res.untraced_rate = size.n_train / statistics.median([e.seconds for e in ref_log.epochs])

    epoch_seconds, times_to_target, heldout_auc, rss = [], [], None, None
    fit_s, spent = 0.0, 0.0
    # As many whole fit runs as fit in --seconds of fit time, and at least
    # one; the set-ups between them do not count against --seconds.
    while res.attempted == 0 or spent + fit_s < seconds:
        res.attempted += 1
        tic = time.perf_counter()
        try:
            if tr.enabled:
                params, log = traced_fit(tr, cfg, train_cfg, train, val)
            else:
                params, log = fit(cfg, train_cfg, train, val)
            with tr.span("model.predict_scores", traces=len(heldout)):
                scores = predict_scores(heldout, cfg, params)
        except CtgformerError as exc:
            res.failed += 1
            spent += time.perf_counter() - tic
            res.report.append(f"fit run {res.attempted} failed: {type(exc).__name__}: {exc}")
            continue
        if tr.enabled and heldout_auc is None:
            gates.check("traced_loop_matches_fit",
                        runs[0][0] == log.key() and params_equal(ref_params, params),
                        "loss sequence, validation AUCs and final parameters bit for bit")
        runs.append((log.key(), scores.tobytes()))
        preds = [Prediction(t.trace_id, float(np.clip(s, 0.0, 1.0)), t.label, t.days_to_delivery)
                 for t, s in zip(heldout, scores)]
        heldout_auc = evaluate(tr, preds, work, gates)
        checkpoint_round_trip(tr, params, cfg, work / "best.ckpt", gates)
        fit_s = time.perf_counter() - tic
        spent += fit_s
        rss = rss or peak_rss_mib()
        set_up()
        epoch_seconds.extend(e.seconds for e in log.epochs)
        reached = time_to_target(log)
        if reached is None:
            res.failed += 1
        else:
            times_to_target.append(reached)

    gates.check("setup_repeatable", len(set(digests)) == 1,
                f"{len(digests)} set-ups build the same cohort")
    if len(runs) > 1:
        gates.check("same_seed_repeats", len(set(runs)) == 1,
                    f"{len(runs)} fit runs: identical TrainLog.key() and held-out scores")
    else:
        res.report.append("same_seed_repeats not checked: one fit run fitted in --seconds "
                          "(every --trace 1 run checks it)")
    if not epoch_seconds:
        return res

    epoch_p50 = statistics.median(epoch_seconds)
    throughput = size.n_train / epoch_p50
    setup_p50 = statistics.median(setup_times)
    res.metrics = {
        "setup_s": (setup_p50, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_s": (epoch_p50, "s"),
        "auc": (heldout_auc, "1"),
        "peak_rss_mib": (rss, "MiB"),
    }
    res.report += [
        f"train_traces_per_s {throughput:.6g} 1/s at epoch_s p50 {epoch_p50:.6g} s, "
        f"max {max(epoch_seconds):.6g} s (n={len(epoch_seconds)} epochs of "
        f"{size.n_train} traces; epoch time includes validation scoring)",
        (f"time_to_auc90_s p50 {statistics.median(times_to_target):.6g} s "
         f"(n={len(times_to_target)} fit runs)") if times_to_target else
        f"time_to_auc90_s: validation AUC {AUC_TARGET} not reached in {size.epochs} epochs",
        f"heldout_auc {heldout_auc!r} over {len(heldout)} held-out traces",
        f"setup_s p50 {setup_p50:.6g} s, max {max(setup_times):.6g} s "
        f"(n={len(setup_times)})",
    ]
    res.record.update(epoch_seconds=epoch_seconds, setup_seconds=setup_times,
                      time_to_auc90_s=times_to_target)
    return res


def per_layer_metrics(stats: SpanStats, cfg: ModelConfig) -> dict:
    """The per-layer metrics of a traced run, name -> (value, unit).

    Times are medians per call, or per optimizer step; counts are per traced
    fit, per forward chunk, or per set-up (one read of the raw file)."""
    fwd, bwd = gemm_flops_per_trace(cfg)
    fits = len(stats.named("bench.fit"))
    step_fwd = stats.per_parent("model.forward_batch", "bench.step")
    step_bwd = stats.per_parent("numcore.backward", "bench.step")
    trained = sum(stats.per_parent("model.forward_batch", "bench.step", "traces"))
    step_ids = {s[0] for s in stats.named("bench.step")}
    chunks = sum(1 for s in stats.named("model.forward_batch") if s[1] in step_ids)
    predict_s = stats.total_self("model.predict_scores")
    return {
        "numcore.backward_s": (statistics.median(step_bwd), "s"),
        "numcore.tape_nodes": (max(stats.attr_values("numcore.backward", "tape_nodes")), "count"),
        "model.forward_train_s": (statistics.median(step_fwd), "s"),
        "model.score_traces_per_s": (stats.rate("model.predict_scores", "traces"), "1/s"),
        "model.train_gflops": ((fwd + bwd) * trained / (sum(step_fwd) + sum(step_bwd)) / 1e9,
                               "GFLOP/s"),
        "model.score_gflops": (fwd * stats.attr_total("model.predict_scores", "traces")
                               / predict_s / 1e9, "GFLOP/s"),
        "model.checkpoint_load_s": (stats.median_self("model.load_checkpoint"), "s"),
        "model.checkpoint_save_s": (stats.median_self("model.save_checkpoint"), "s"),
        "train.loss_s": (statistics.median(stats.per_parent("train.bce_loss_batch", "bench.step")), "s"),
        "train.adam_step_s": (stats.median_self("train.Adam.step"), "s"),
        "train.val_score_s": (stats.median_self("train.predictions_for"), "s"),
        "train.snapshot_s": (stats.median_self("model.clone_param_data"), "s"),
        "train.steps": (len(stats.named("bench.step")) // fits, "count"),
        "train.forward_chunks": (chunks // fits, "count"),
        "evaluation.auc_s": (stats.median_self("evaluation.auc"), "s"),
        "evaluation.analyze_s": (stats.median_self("evaluation.analyze"), "s"),
        "evaluation.write_s": (statistics.median(stats.per_parent("evaluation.write_", "bench.report")), "s"),
        "data.generate_s": (stats.median_self("data.generate_cohort"), "s"),
        "data.read_raw_traces_per_s": (stats.rate("data.read_raw_traces", "items"), "1/s"),
        "data.write_cohort_mib_per_s": (stats.rate("data.write_cohort", "bytes") / 2 ** 20, "MiB/s"),
        "data.read_cohort_traces_per_s": (stats.rate("data.read_cohort", "items"), "1/s"),
        "signal.preprocess_s": (stats.median_self("signal.preprocess"), "s"),
        "signal.windows_kept": (stats.per_parent("signal.preprocess", "bench.setup", "kept")[0], "count"),
        "signal.windows_dropped": (stats.per_parent("signal.preprocess", "bench.setup", "dropped")[0], "count"),
    }
