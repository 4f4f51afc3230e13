"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them)."""

import time

import numpy as np

from ctgformer.data import GenSpec, filter_dtd, generate_cohort, split
from ctgformer.evaluation import (
    Prediction,
    auc,
    confusion_at,
    metrics,
    youden_threshold,
)
from ctgformer.hpo import SearchSpace, best_trial, preset_configs, run_search
from ctgformer.model import (
    ModelConfig,
    forward_batch,
    init_params,
    instance_normalize,
    load_checkpoint,
    make_patches,
    named_tensors,
    pool_channel,
    predict_scores,
    run_encoder,
    save_checkpoint,
)
from ctgformer.numcore import Graph, Tensor, backward, grad_check
from ctgformer.numcore.ops import _sigmoid
from ctgformer.train import Adam, TrainConfig, bce_loss_batch, fit, predictions_for

TINY = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                   d_model=8, d_ff=16, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)


def report(n, detail):
    print(f"PASS criterion {n}: {detail}")


def tiny_batch(rng, b=2, seq_len=32, missing=0.1):
    out = {}
    for ch, mk in (("fhr", "fhr_mask"), ("toco", "toco_mask")):
        vals = rng.uniform(0, 1, (b, seq_len))
        mask = rng.random((b, seq_len)) >= missing
        mask[:, :4] = True
        out[ch] = np.where(mask, vals, 0.0)
        out[mk] = mask
    return out


def test_criterion_01_gradient_fidelity():
    tic = time.perf_counter()
    params = init_params(TINY, seed=3)
    batch = tiny_batch(np.random.default_rng(1), b=2)
    labels = np.array([1.0, 0.0])

    def f():
        return bce_loss_batch(forward_batch(batch, TINY, params, training=False), labels)

    tensors = list(named_tensors(params).values())
    rep = grad_check(f, tensors, eps=1e-5, tol=1e-4, max_coords_per_param=25, seed=0)
    elapsed = time.perf_counter() - tic
    assert rep.checked >= 200
    assert rep.max_rel_err < 1e-4, rep.worst[:3]
    assert elapsed < 60.0
    report(1, f"max rel err {rep.max_rel_err:.2e} over {rep.checked} coords "
              f"in {elapsed:.1f}s")


def test_criterion_02_patch_count_oracle():
    def brute(seq, p, s):
        count = 0
        j = 0
        while j * s + p <= seq:
            count += 1
            j += 1
        return count

    def model_counts(seq, p, s):
        # the count that sizes the positional table, and the count make_patches cuts
        cut = make_patches(np.zeros((1, seq)), np.ones((1, seq), dtype=bool), p, s)[0].shape[1]
        return ModelConfig(seq_len=seq, patch_len=p, stride=s).n_patches, cut

    checked = 0
    for seq in range(1, 65):          # exhaustive small grid
        for p in range(1, seq + 1):
            for s in range(1, p + 1):
                assert model_counts(seq, p, s) == (brute(seq, p, s),) * 2
                checked += 1
    rng = np.random.default_rng(0)    # random triples across the full range
    for _ in range(2000):
        seq = int(rng.integers(1, 2001))
        p = int(rng.integers(1, seq + 1))
        s = int(rng.integers(1, p + 1))
        assert model_counts(seq, p, s) == (brute(seq, p, s),) * 2
        checked += 1
    assert model_counts(960, 16, 16) == (60, 60)
    report(2, f"{checked} (L,P,S) triples match enumeration; paper-best N=60")


def test_criterion_03_instance_norm_invariants():
    rng = np.random.default_rng(7)
    worst_mu, worst_sigma = 0.0, 0.0
    for _ in range(1000):
        vals = rng.uniform(0, 1, 960)
        mask = rng.random(960) >= rng.uniform(0.0, 0.3)
        mask[:2] = True
        vals = np.where(mask, vals, 0.0)
        out, _, _ = instance_normalize(vals[None], mask[None])
        obs = out[0][mask]
        worst_mu = max(worst_mu, abs(float(obs.mean())))
        worst_sigma = max(worst_sigma, abs(float(obs.std()) - 1.0))
    assert worst_mu < 1e-10
    assert worst_sigma < 1e-6

    params = init_params(TINY, seed=5)
    worst_diff = 0.0
    for i in range(20):
        batch = tiny_batch(np.random.default_rng(100 + i), b=1)
        p0 = forward_batch(batch, TINY, params).data
        scaled = dict(batch)
        a, b = float(rng.uniform(0.2, 3.0)), float(rng.uniform(-1.0, 1.0))
        scaled["fhr"] = np.where(batch["fhr_mask"], a * batch["fhr"] + b, 0.0)
        scaled["toco"] = np.where(batch["toco_mask"], a * batch["toco"] + b, 0.0)
        p1 = forward_batch(scaled, TINY, params).data
        worst_diff = max(worst_diff, float(np.max(np.abs(p1 - p0))))
    assert worst_diff < 1e-8
    report(3, f"1000 traces: |mu|<{worst_mu:.1e}, |sigma-1|<{worst_sigma:.1e}; "
              f"affine forward diff<{worst_diff:.1e}")


def test_criterion_04_masking_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(100):
        d = int(rng.choice([8, 16]))
        heads = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(4, 13))
        layers = int(rng.integers(1, 3))
        cfg = ModelConfig(seq_len=n * 4, patch_len=4, stride=4, n_layers=layers,
                          n_heads=heads, d_model=d, d_ff=d,
                          dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)
        params = init_params(cfg, seed=i)
        backbone = params.backbone_for(0)
        e_full = rng.normal(size=(n, d))
        keep = rng.random(n) >= 0.4
        if not keep.any():
            keep[0] = True
        masked = pool_channel(run_encoder(Tensor(e_full[None]), backbone, keep[None], cfg),
                              keep[None])
        kept = np.ones((1, int(keep.sum())), dtype=bool)
        deleted = pool_channel(run_encoder(Tensor(e_full[keep][None]), backbone, kept, cfg), kept)
        worst = max(worst, float(np.max(np.abs(masked.data - deleted.data))))
    assert worst < 1e-10
    report(4, f"100 random configurations, masked-vs-deleted diff < {worst:.1e}")


def test_criterion_05_permutation():
    cfg = ModelConfig(seq_len=64, patch_len=8, stride=8, n_layers=1, n_heads=2,
                      d_model=8, d_ff=16, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)
    n_patches = cfg.n_patches
    rng = np.random.default_rng(3)
    batch = tiny_batch(rng, b=1, seq_len=64)

    def permute(b, perm):
        out = {}
        for ch, mk in (("fhr", "fhr_mask"), ("toco", "toco_mask")):
            out[ch] = b[ch].reshape(1, n_patches, 8)[:, perm].reshape(1, 64)
            out[mk] = b[mk].reshape(1, n_patches, 8)[:, perm].reshape(1, 64)
        return out

    params = init_params(cfg, seed=9)
    for bb in params.backbones:
        bb.w_pos.data = np.zeros_like(bb.w_pos.data)
    p0 = float(forward_batch(batch, cfg, params).data[0])
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(n_patches)
        p1 = float(forward_batch(permute(batch, perm), cfg, params).data[0])
        worst = max(worst, abs(p1 - p0))
    assert worst < 1e-8

    for bb in params.backbones:
        bb.w_pos.data = rng.normal(scale=0.5, size=bb.w_pos.data.shape)
    p0 = float(forward_batch(batch, cfg, params).data[0])
    differing = 0
    total = 0
    while total < 100:
        perm = rng.permutation(n_patches)
        if np.array_equal(perm, np.arange(n_patches)):
            continue
        total += 1
        p1 = float(forward_batch(permute(batch, perm), cfg, params).data[0])
        differing += bool(abs(p1 - p0) > 1e-6)
    assert differing >= 95
    report(5, f"zero-positions diff < {worst:.1e}; nonzero positions: "
              f"{differing}/100 permutations moved the output > 1e-6")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(13)
    worst_auc = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))  # rounding forces ties
        labels = rng.integers(0, 2, n)
        labels[0], labels[1 % n] = 1, 0
        preds = [Prediction(str(i), float(s), int(l))
                 for i, (s, l) in enumerate(zip(scores, labels))]
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        oracle = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.shape[0] * neg.shape[1])
        worst_auc = max(worst_auc, abs(auc(preds) - oracle))
    assert worst_auc <= 1e-12

    for _ in range(200):   # six metrics equal direct confusion counting exactly
        n = int(rng.integers(2, 100))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        preds = [Prediction(str(i), float(s), int(l))
                 for i, (s, l) in enumerate(zip(scores, labels))]
        t = float(rng.random())
        c = confusion_at(preds, t)
        tp = int(np.sum((scores >= t) & (labels == 1)))
        fp = int(np.sum((scores >= t) & (labels == 0)))
        fn = int(np.sum((scores < t) & (labels == 1)))
        tn = int(np.sum((scores < t) & (labels == 0)))
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        m = metrics(c)
        if tp + fn:
            assert m.sensitivity == tp / (tp + fn)
        if tn + fp:
            assert m.specificity == tn / (tn + fp)
        if tp + fp:
            assert m.ppv == tp / (tp + fp)
        if tn + fn:
            assert m.npv == tn / (tn + fn)
        assert m.accuracy == (tp + tn) / n

    checked = 0
    for n in (10, 37, 128, 400, 1000, 1000, 1000):  # youden vs exhaustive cut search
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 1, 0
        preds = [Prediction(str(i), float(s), int(l))
                 for i, (s, l) in enumerate(zip(scores, labels))]
        cut = youden_threshold(preds)
        best_j, best_cut = -np.inf, None
        for cand in sorted({p.score for p in preds}):
            m = metrics(confusion_at(preds, cand))
            j = m.sensitivity + m.specificity - 1.0
            if j > best_j:
                best_j, best_cut = j, cand
        assert cut == best_cut
        checked += 1
    report(6, f"AUC oracle diff <= {worst_auc:.1e} on 1000 sets; metrics exact on 200 "
              f"sets; youden matches exhaustive search on {checked} sets up to n=1000")


def test_criterion_07_optimisation_sanity():
    tic = time.perf_counter()
    rng = np.random.default_rng(2)
    n = 32
    t = np.arange(32) / 32.0
    fhr = np.empty((n, 32))
    toco = rng.uniform(0, 1, (n, 32))
    labels = np.array([i % 2 for i in range(n)], dtype=np.float64)
    for i in range(n):
        cycles = 2 if labels[i] == 0 else 6   # frequency survives instance norm
        fhr[i] = 0.5 + 0.4 * np.sin(2 * np.pi * cycles * t + rng.uniform(0, 2 * np.pi)) \
            + 0.05 * rng.normal(size=32)
    batch = {"fhr": np.clip(fhr, 0, 1), "fhr_mask": np.ones((n, 32), dtype=bool),
             "toco": toco, "toco_mask": np.ones((n, 32), dtype=bool),
             "labels": labels}

    params = init_params(TINY, seed=1)
    opt = Adam(named_tensors(params), lr=1e-2)
    train_rng = np.random.default_rng(0)
    train_auc, epochs_used = 0.0, 0
    for epoch in range(1, 201):
        order = train_rng.permutation(n)
        piece = {k: batch[k][order] for k in batch}
        with Graph() as g:
            logits = forward_batch(piece, TINY, params, training=True, rng=train_rng)
            loss = bce_loss_batch(logits, piece["labels"])
        backward(loss, g)
        opt.step()
        scores = _sigmoid(forward_batch(batch, TINY, params).data.astype(np.float64))
        preds = [Prediction(str(i), float(s), int(l))
                 for i, (s, l) in enumerate(zip(scores, labels))]
        train_auc, epochs_used = auc(preds), epoch
        if train_auc >= 0.99:
            break
    elapsed = time.perf_counter() - tic
    assert train_auc >= 0.99
    assert elapsed < 120.0
    report(7, f"training AUC {train_auc:.3f} after {epochs_used} epochs "
              f"in {elapsed:.1f}s")


def test_criterion_08_synthetic_end_to_end():
    tic = time.perf_counter()
    cohort = generate_cohort(GenSpec(n_per_class=1000, seed=42))
    # paper-best preset scaled for desk runtime: d_model 128, 2 layers
    model_kwargs, train_kwargs = preset_configs("paper-best")
    model_kwargs.update({"d_model": 128, "n_layers": 2})
    cfg = ModelConfig(**model_kwargs)
    train_cfg = TrainConfig(max_epochs=3, patience=10, seed=42, **train_kwargs)
    train_set, val_set = split(cohort, 0.8, seed=42)
    params, log = fit(cfg, train_cfg, train_set.traces, val_set.traces)
    held_out = auc(predictions_for(val_set.traces, cfg, params))
    elapsed = time.perf_counter() - tic
    assert held_out >= 0.90
    assert elapsed < 600.0
    report(8, f"held-out AUC {held_out:.4f} in {elapsed:.0f}s "
              f"({len(log.epochs)} epochs, best {log.best_val_auc:.4f})")


def test_criterion_09_early_stopping(tmp_path):
    cohort = generate_cohort(GenSpec(n_per_class=16, seed=9))
    train_set, val_set = split(cohort, 0.75, seed=0)
    cfg = ModelConfig(seq_len=960, patch_len=32, stride=32, n_layers=1, n_heads=2,
                      d_model=16, d_ff=16, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)
    train_cfg = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=60,
                            patience=10, seed=0)
    params, log = fit(cfg, train_cfg, train_set.traces, val_set.traces)
    assert len(log.epochs) == 11          # patience + 1
    assert log.stop_reason == "early_stop"
    ckpt = tmp_path / "best.ckpt"
    save_checkpoint(params, cfg, ckpt)
    loaded, cfg2 = load_checkpoint(ckpt)
    revaluated = auc(predictions_for(val_set.traces, cfg2, loaded))
    assert abs(revaluated - log.best_val_auc) <= 1e-12
    report(9, f"halted after {len(log.epochs)} epochs; checkpoint reproduces "
              f"best val AUC within {abs(revaluated - log.best_val_auc):.1e}")


def test_criterion_10_temporal_shift(tmp_path):
    cfg = ModelConfig(seq_len=960, patch_len=32, stride=32, n_layers=1, n_heads=2,
                      d_model=32, d_ff=32, dropout=0.1, fc_dropout=0.1, attn_dropout=0.1)
    wins = 0
    outcomes = []
    for seed in range(10):
        cohort = generate_cohort(GenSpec(n_per_class=150, seed=100 + seed))
        far = filter_dtd(cohort, (3, 7))
        near = filter_dtd(cohort, (0, 2))
        far_train, far_val = split(far, 0.8, seed=seed)
        near_train, near_val = split(near, 0.8, seed=seed)
        pre_params, _ = fit(cfg, TrainConfig(1e-3, 24, 8, 10, seed=seed),
                            far_train.traces, far_val.traces)
        zero_shot = auc(predictions_for(near_val.traces, cfg, pre_params))
        ckpt = tmp_path / f"pre{seed}.ckpt"
        save_checkpoint(pre_params, cfg, ckpt)
        init, ckpt_cfg = load_checkpoint(ckpt)
        _, ft_log = fit(ckpt_cfg, TrainConfig(5e-4, 24, 8, 10, seed=seed),
                        near_train.traces, near_val.traces, init=init)
        wins += ft_log.best_val_auc >= zero_shot
        outcomes.append((round(zero_shot, 3), round(ft_log.best_val_auc, 3)))
    assert wins >= 8, outcomes
    report(10, f"finetuned >= zero-shot in {wins}/10 seeds: {outcomes}")


def test_criterion_11_hpo_reproducibility():
    cohort = generate_cohort(GenSpec(n_per_class=16, seed=4))
    train_set, val_set = split(cohort, 0.75, seed=0)
    space = SearchSpace()
    runs = []
    for _ in range(2):
        trials = run_search(space, train_set.traces, val_set.traces, n_trials=5,
                            max_epochs=2, patience=10, seed=2)
        runs.append(trials)
    a, b = runs
    assert [t.model_config for t in a] == [t.model_config for t in b]
    assert [(t.learning_rate, t.batch_size) for t in a] == \
        [(t.learning_rate, t.batch_size) for t in b]
    assert [t.log.key() for t in a] == [t.log.key() for t in b]
    assert best_trial(a).model_config == best_trial(b).model_config
    for t in a:
        cfg = t.model_config
        assert cfg.n_layers in space.n_layers
        assert cfg.n_heads in space.n_heads
        assert cfg.d_model in space.d_model
        assert cfg.d_ff in space.d_ff
        assert cfg.patch_len in space.patch_len
        assert cfg.stride in space.stride
        assert cfg.activation in space.activation
        assert t.learning_rate in space.learning_rate
        assert t.batch_size in space.batch_size
        for rate in (cfg.dropout, cfg.fc_dropout, cfg.attn_dropout):
            assert 0.1 <= rate <= 0.5

    model_kwargs, train_kwargs = preset_configs("paper-best")
    cfg = ModelConfig.from_dict(ModelConfig(**model_kwargs).as_dict())
    assert (cfg.n_layers, cfg.n_heads, cfg.d_model, cfg.d_ff) == (6, 4, 512, 128)
    assert (cfg.dropout, cfg.fc_dropout, cfg.attn_dropout) == (0.1, 0.4, 0.2)
    assert (cfg.patch_len, cfg.stride, cfg.kernel_size) == (16, 16, 15)
    assert cfg.activation == "relu"
    assert train_kwargs == {"learning_rate": 1e-4, "batch_size": 48}
    report(11, "5-trial search bit-identical across reruns; all configs in the "
               "published grids; paper-best preset exact")


def test_criterion_12_checkpoint_round_trip(tmp_path):
    cohort = generate_cohort(GenSpec(n_per_class=50, seed=21))
    assert len(cohort.traces) == 100
    cfg = ModelConfig(seq_len=960, patch_len=32, stride=32, n_layers=2, n_heads=4,
                      d_model=32, d_ff=48, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)
    params = init_params(cfg, seed=8)
    before = predict_scores(cohort.traces, cfg, params)
    ckpt = tmp_path / "roundtrip.ckpt"
    save_checkpoint(params, cfg, ckpt)
    loaded, cfg2 = load_checkpoint(ckpt)
    after = predict_scores(cohort.traces, cfg2, loaded)
    assert np.array_equal(before, after)   # bit-identical
    report(12, "save->load->forward bit-identical on 100 traces")
