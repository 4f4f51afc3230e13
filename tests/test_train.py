import hashlib
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from ctgformer.errors import TrainError
from ctgformer.data import GenSpec, generate_cohort, split
from ctgformer.evaluation import Prediction, auc
from ctgformer.model import (
    ModelConfig,
    cast_params,
    init_params,
    load_checkpoint,
    named_tensors,
    predict_scores,
    save_checkpoint,
    working_copy,
)
from ctgformer.model.net import TRAIN_DTYPE
from ctgformer.model.params import clone_param_data, load_param_data
import ctgformer.train as train_module
from ctgformer.train import (
    ADAM_BLOCK,
    Adam,
    BatchGrads,
    TrainConfig,
    bce_loss,
    bce_loss_batch,
    fit,
    predictions_for,
    train_epoch,
    write_train_log,
)
from ctgformer.numcore import Graph, Tensor, backward
from ctgformer.numcore.tensor import fork_join

SMALL_CFG = ModelConfig(seq_len=960, patch_len=32, stride=32, n_layers=1, n_heads=2,
                        d_model=16, d_ff=16, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)


@pytest.fixture(scope="module")
def small_sets():
    cohort = generate_cohort(GenSpec(n_per_class=16, seed=1))
    train, val = split(cohort, 0.75, seed=1)
    return train.traces, val.traces


class TestBceLoss:
    def test_perfect_prediction_is_zero(self):
        assert bce_loss(1.0, 1) == pytest.approx(0.0, abs=1e-11)
        assert bce_loss(0.0, 0) == pytest.approx(0.0, abs=1e-11)

    def test_half_gives_log_two(self):
        assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_symmetry(self):
        assert bce_loss(0.5, 0) == bce_loss(0.5, 1)

    def test_always_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            assert bce_loss(rng.random(), int(rng.integers(0, 2))) >= 0.0

    def test_batch_version_matches_scalar_mean(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0.01, 0.99, 16)
        labels = rng.integers(0, 2, 16).astype(float)
        batch = bce_loss_batch(Tensor(np.log(probs / (1.0 - probs))), labels).item()
        scalar = np.mean([bce_loss(p, int(y)) for p, y in zip(probs, labels)])
        assert batch == pytest.approx(scalar, abs=1e-12)

    def test_batch_gradient_sign(self):
        logits = Tensor(np.log([3.0 / 7.0, 4.0]), requires_grad=True)  # p = 0.3, 0.8
        with Graph() as g:
            loss = bce_loss_batch(logits, np.array([1.0, 0.0]))
        backward(loss, g)
        assert logits.grad[0] < 0  # raising the logit toward label 1 lowers loss
        assert logits.grad[1] > 0

    def test_confident_mistake_keeps_its_gradient(self):
        logits = Tensor(np.array([40.0, -40.0]), requires_grad=True)
        with Graph() as g:
            loss = bce_loss_batch(logits, np.array([0.0, 1.0]))
        backward(loss, g)
        assert loss.item() == pytest.approx(40.0, abs=1e-12)
        assert np.allclose(logits.grad, [0.5, -0.5], atol=1e-12)


class TestAdamAndEpoch:
    def test_zero_learning_rate_keeps_params(self, small_sets):
        train_traces, _ = small_sets
        from ctgformer.data import stack_traces

        params = init_params(SMALL_CFG, 3)
        before = {n: t.data.copy() for n, t in named_tensors(params).items()}
        tc = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=1, seed=0)
        opt = Adam(named_tensors(params), lr=0.0)
        train_epoch(params, SMALL_CFG, tc, stack_traces(train_traces),
                    np.random.default_rng(0), opt)
        for n, t in named_tensors(params).items():
            assert t.data.tobytes() == before[n].tobytes(), n

    def test_step_matches_reference_formula_bit_for_bit(self):
        # float32 moments and update from the float32 gradient, subtracted
        # from the float64 parameters: over 2.5 blocks and a ragged tail,
        # and over a whole tensor whose data is not C-contiguous
        for shape, order in (((5 * ADAM_BLOCK // 64 + 1, 32), "C"), ((64, 32), "F")):
            rng = np.random.default_rng(5)
            t = Tensor(np.asarray(rng.normal(size=shape), order=order), requires_grad=True)
            data, m, v = t.data.copy(), np.zeros(shape, np.float32), np.zeros(shape, np.float32)
            opt = Adam({"w": t}, lr=3e-4)
            for step in range(1, 4):
                g = rng.normal(size=shape)
                t.grad = g.copy()
                opt.step()
                g = g.astype(np.float32)
                m = 0.9 * m + (1 - 0.9) * g
                v = 0.999 * v + (1 - 0.999) * (g * g)
                data = data - 3e-4 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
                assert opt.m["w"].tobytes() == m.tobytes() and opt.v["w"].tobytes() == v.tobytes()
                assert t.data.tobytes() == data.tobytes() and t.grad is None

    def test_same_seed_identical_params(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, seed=9)
        p1, _ = fit(SMALL_CFG, tc, train_traces, val_traces)
        p2, _ = fit(SMALL_CFG, tc, train_traces, val_traces)
        for (n1, t1), (n2, t2) in zip(named_tensors(p1).items(), named_tensors(p2).items()):
            assert t1.data.tobytes() == t2.data.tobytes(), n1

    def test_loss_decreases_on_separable_set(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=20,
                         patience=20, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        first = np.mean([e.train_loss for e in log.epochs[:3]])
        last = np.mean([e.train_loss for e in log.epochs[-3:]])
        assert last < first

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(TrainError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("field,value,noun", [
        ("batch_size", 4.0, "an integer"), ("seed", True, "an integer"),
        ("learning_rate", False, "a number"), ("max_epochs", "2", "an integer"),
    ])
    def test_fields_hold_their_declared_types(self, field, value, noun):
        with pytest.raises(TrainError, match=f"^{field} must be {noun}, got "):
            TrainConfig(**{field: value})

    def test_empty_dataset_rejected(self, small_sets):
        _, val_traces = small_sets
        tc = TrainConfig(max_epochs=1)
        with pytest.raises(TrainError):
            fit(SMALL_CFG, tc, [], val_traces)

    def test_non_finite_loss_names_epoch_and_batch(self, small_sets):
        train_traces, val_traces = small_sets
        params = init_params(SMALL_CFG, 3)
        params.b_head.data = np.full_like(params.b_head.data, np.nan)
        tc = TrainConfig(batch_size=8, max_epochs=2, seed=0)
        with pytest.raises(TrainError, match="non-finite loss nan at epoch 1, batch 0"):
            fit(SMALL_CFG, tc, train_traces, val_traces, init=params)


class TestChunkedStep:
    """``fit`` trains on one float32 working copy and adds up a batch's
    chunk gradients in a ``BatchGrads``, which carries at most one float64
    array per tensor."""

    CFG = replace(SMALL_CFG, dropout=0.1, fc_dropout=0.1, attn_dropout=0.1,
                  share_backbone=False)

    @staticmethod
    def adam_with_grads(n_chunks):
        """An Adam over ``CFG``'s parameters, with their working copy, and
        ``n_chunks`` float32 gradient dicts."""
        params = init_params(TestChunkedStep.CFG, 4)
        named = named_tensors(params)
        copy = named_tensors(working_copy(params, TRAIN_DTYPE))
        rng = np.random.default_rng(8)
        chunks = [{k: rng.normal(size=t.shape).astype(np.float32) for k, t in named.items()}
                  for _ in range(n_chunks)]
        return Adam(named, lr=1e-3, working=copy), chunks

    @staticmethod
    def batch_grads(chunks):
        grads = BatchGrads()
        for c in chunks:
            grads.add(dict(c))
        return grads.grads

    @staticmethod
    def state(opt):
        return [a.tobytes() for k in opt.named for a in
                (opt.named[k].data, opt.m[k], opt.v[k], opt.working[k].data)]

    @staticmethod
    def pinned_fit(cfg, chunk, sets, monkeypatch, tmp_path):
        """sha256 of the checkpoint and of ``TrainLog.key()`` of a 3-epoch
        fit of ``cfg`` in batches of 8 split into forward chunks of
        ``chunk``; checks the bytes a batch carries after each chunk."""
        carried = []   # the bytes a batch carries after each of its chunks
        add = BatchGrads.add

        def spy(self, grads):
            add(self, grads)
            carried.append(sum(g.nbytes for g in self.grads.values()))

        monkeypatch.setattr(train_module, "max_forward_chunk", lambda cfg: chunk)
        monkeypatch.setattr(BatchGrads, "add", spy)
        train_traces, val_traces = sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=3, patience=5, seed=2)
        params, log = fit(cfg, tc, train_traces, val_traces)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, path)
        # float32 until a tensor's second gradient, then one float64 sum
        n_params = sum(t.size for t in named_tensors(params).values())
        n_chunks = -(-8 // chunk)
        assert carried == 3 * 3 * ([4 * n_params] + [8 * n_params] * (n_chunks - 1))
        return (hashlib.sha256(path.read_bytes()).hexdigest(),
                hashlib.sha256(repr(log.key()).encode()).hexdigest())

    # batches of 8 in forward chunks of 3, 3, 2 or of 2, 2, 2, 2 (x86-64,
    # numpy's bundled OpenBLAS); taken when Adam's moments became float32,
    # after the per-epoch losses of both fits had matched those of float64
    # moments to 1e-8 relative, with equal validation AUCs
    @pytest.mark.parametrize("chunk,ckpt_sha,log_sha", [
        (3, "08545d25b940b7649f286fee8478b498d2753be51f5a68ca9ff31c6c5cc3e50f",
         "9deaf32d4eb8b4fc6afbe2c5d400886dbfaab9136d1d7c99a6e53a4e85dba83e"),
        (2, "546e266c334368dbabc146b0e4cd48c14c46a205c5b8cdb6468209d37676e324",
         "6427d2b272fb04c068e8839d56acdc98447a1075413f615a896b7e5dc111903f"),
    ], ids=["chunk3", "chunk2"])
    def test_multi_chunk_fit_bytes_are_pinned(self, small_sets, monkeypatch, tmp_path,
                                              chunk, ckpt_sha, log_sha):
        assert self.pinned_fit(self.CFG, chunk, small_sets, monkeypatch, tmp_path) == (
            ckpt_sha, log_sha)

    def test_two_layer_fit_bytes_are_pinned(self, small_sets, monkeypatch, tmp_path):
        # the second layer's input and each FFN input are remade from a
        # layer norm's xhat in backward, with attention dropout on (x86-64,
        # numpy's bundled OpenBLAS; taken as the two pins above)
        cfg = replace(self.CFG, n_layers=2)
        assert self.pinned_fit(cfg, 3, small_sets, monkeypatch, tmp_path) == (
            "14bdf916bf17d5afe3b8b97c0f5219fa79e6e3cbfbd2f708b596b47e237cf2c7",
            "0fd8c454f3b8ee084af3323628f54a2125aba0d4c45d9787d36f3f7456761905")

    def test_chunk_gradients_sum_in_float64_in_chunk_order(self):
        opt, chunks = self.adam_with_grads(4)
        named = named_tensors(init_params(self.CFG, 4))
        for k, t in named.items():   # how backward accumulated float64 gradients
            f64 = [c[k].astype(np.float64) for c in chunks]
            t.grad = f64[0] + f64[1] + f64[2] + f64[3]
        ref = Adam(named, lr=1e-3)
        opt.step(self.batch_grads(chunks))
        ref.step()
        for k, t in opt.named.items():
            assert t.data.tobytes() == named[k].data.tobytes(), k
            assert opt.working[k].data.tobytes() == t.data.astype(np.float32).tobytes(), k

    def test_batch_grads_leave_the_chunk_gradients_as_they_were(self):
        # backward may hand two leaves one adjoint array, so no chunk's
        # gradient is written to
        _, chunks = self.adam_with_grads(3)
        shared = next(iter(chunks[0]))
        chunks[0]["other"] = chunks[0][shared]
        before = [{k: g.copy() for k, g in c.items()} for c in chunks]
        grads = self.batch_grads(chunks)
        for c, b in zip(chunks, before):
            assert all(c[k].tobytes() == b[k].tobytes() for k in b)
        assert grads["other"] is chunks[0][shared] and grads[shared].dtype == np.float64

    def test_step_bytes_depend_on_neither_thread_nor_gradient_dtype(self):
        # one tensor of 2.5 blocks and a ragged tail between two small ones;
        # the same steps from the main thread (on both threads), inside a
        # branch (where fork_join runs both halves inline), and from the
        # float64 casts of the float32 gradients
        shapes = {"w": (4, 6), "big": (5 * ADAM_BLOCK // 2 + 7,), "b": (5,)}

        def adam():
            rng = np.random.default_rng(3)
            named = {k: Tensor(rng.normal(size=s)) for k, s in shapes.items()}
            copy = {k: Tensor(t.data.astype(TRAIN_DTYPE)) for k, t in named.items()}
            return Adam(named, lr=1e-3, working=copy)

        rng = np.random.default_rng(4)
        steps = [{k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
                 for _ in range(3)]
        main, branch, cast = adam(), adam(), adam()
        assert all(main.halves)
        for g in steps:
            main.step(dict(g))
            fork_join(lambda: branch.step(dict(g)), lambda: None)
            cast.step({k: a.astype(np.float64) for k, a in g.items()})
        assert self.state(main) == self.state(branch) == self.state(cast)

    def test_batch_grads_keep_every_sum_under_fast_thread_switching(self):
        # add's two threads pop from one chunk dict and write one gradient
        # dict; switching threads every microsecond loses no tensor and no
        # addition
        rng = np.random.default_rng(6)
        chunks = [{f"t{i}": rng.normal(size=3).astype(np.float32) for i in range(2000)}
                  for _ in range(3)]
        given = [dict(c) for c in chunks]
        grads, interval = BatchGrads(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for c in given:
                grads.add(c)
        finally:
            sys.setswitchinterval(interval)
        assert given == [{}, {}, {}] and set(grads.grads) == set(chunks[0])
        for k, g in grads.grads.items():
            want = np.add(chunks[0][k], chunks[1][k], dtype=np.float64)
            want += chunks[2][k]
            assert g.tobytes() == want.tobytes(), k

    def test_non_finite_gradient_changes_nothing(self):
        opt, chunks = self.adam_with_grads(2)
        opt.step(self.batch_grads(chunks))
        before = self.state(opt)
        clean = [{k: g.copy() for k, g in c.items()} for c in chunks]
        names = list(opt.named)
        first, later = names[3], names[-1]
        chunks[1][later].flat[0] = np.nan
        chunks[1][first].flat[-1] = np.inf
        with pytest.raises(TrainError, match=rf"^non-finite gradient in {re.escape(first)} "
                                             r"at step 2$"):
            opt.step(self.batch_grads(chunks))
        assert self.state(opt) == before and opt.t == 1
        # only the half the worker thread steps has them; both halves do
        head, tail = opt.halves
        for poisoned in ((tail[2], tail[1]), (tail[0], head[-1])):
            chunks = [{k: g.copy() for k, g in c.items()} for c in clean]
            for name, value in zip(poisoned, (np.nan, -np.inf)):
                chunks[1][name].flat[0] = value
            first = min(poisoned, key=names.index)
            with pytest.raises(TrainError, match=rf"^non-finite gradient in {re.escape(first)} "
                                                 r"at step 2$"):
                opt.step(self.batch_grads(chunks))
            assert self.state(opt) == before and opt.t == 1

    def test_non_finite_gradient_names_epoch_batch_and_tensor(self, small_sets, monkeypatch):
        take, calls = train_module.take_grads, []

        def poisoned(named):
            grads = take(named)
            calls.append(None)
            if len(calls) == 4:   # 3 batches of 2 chunks: batch 1's second chunk
                grads["backbone0.layer0.ln2_bias"][3] = np.nan
                grads["head.w"][0] = np.nan
            return grads

        monkeypatch.setattr(train_module, "take_grads", poisoned)
        monkeypatch.setattr(train_module, "max_forward_chunk", lambda cfg: 4)
        train_traces, val_traces = small_sets
        tc = TrainConfig(batch_size=8, max_epochs=2, seed=0)
        with pytest.raises(TrainError, match=r"^non-finite gradient in "
                                             r"backbone0\.layer0\.ln2_bias at epoch 1, batch 1$"):
            fit(SMALL_CFG, tc, train_traces, val_traces)


class TestFit:
    def test_improving_auc_runs_to_max_epochs(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=4,
                         patience=10, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        assert log.stop_reason == "max_epochs"
        assert len(log.epochs) == 4

    def test_frozen_auc_stops_after_patience_plus_one(self, small_sets):
        train_traces, val_traces = small_sets
        # lr=0 freezes the parameters, hence the validation AUC
        tc = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=60,
                         patience=10, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        assert log.stop_reason == "early_stop"
        assert len(log.epochs) == 11  # patience + 1
        assert log.best_epoch == 1

    def test_returned_params_reproduce_best_auc(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=10,
                         patience=10, seed=1)
        params, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        reval = auc(predictions_for(val_traces, SMALL_CFG, params))
        assert abs(reval - log.best_val_auc) <= 1e-12
        assert log.best_val_auc == max(e.val_auc for e in log.epochs)

    def test_best_epoch_is_first_attaining_max(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=12,
                         patience=20, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        best = log.best_val_auc
        firsts = [e.epoch for e in log.epochs if e.val_auc >= best - 1e-12]
        assert log.best_epoch == firsts[0]

    def test_epochs_after_best_bounded_by_patience(self, small_sets):
        train_traces, val_traces = small_sets
        for seed in (0, 1, 2):
            tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=15,
                             patience=3, seed=seed)
            _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
            assert log.epochs[-1].epoch - log.best_epoch <= 3

    @staticmethod
    def snapshot_events(monkeypatch, aucs=None):
        """The order in which ``fit`` runs epochs ("epoch") and copies the
        parameters out ("clone") and back ("load"); with ``aucs`` the
        validation AUCs are those, in turn."""
        events = []

        def log(event, fn):
            def spy(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)
            monkeypatch.setattr(train_module, fn.__name__, spy)

        log("epoch", train_epoch)
        log("clone", clone_param_data)
        log("load", load_param_data)
        if aucs is not None:
            aucs = iter(aucs)
            monkeypatch.setattr(train_module, "_val_auc", lambda *args: next(aucs))
        return events

    @pytest.mark.parametrize("aucs,events", [
        ((0.5,), ["epoch"]),
        ((0.5, 0.6, 0.7), ["epoch", "clone", "epoch", "clone", "epoch"]),
        ((0.5, 0.7, 0.6), ["epoch", "clone", "epoch", "clone", "epoch", "load"]),
        ((0.7, 0.5, 0.6), ["epoch", "clone", "epoch", "epoch", "load"]),
    ], ids=["one-epoch", "best-last", "best-second", "best-first"])
    def test_best_params_are_copied_only_before_an_epoch_overwrites_them(
            self, small_sets, monkeypatch, aucs, events):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=len(aucs),
                         patience=10, seed=3)
        best = aucs.index(max(aucs)) + 1
        got = self.snapshot_events(monkeypatch, aucs)
        params, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        assert got == events and log.best_epoch == best
        # the same bytes as a fit whose every epoch improves and that stops
        # at the best epoch
        tc.max_epochs = best
        self.snapshot_events(monkeypatch, [0.1 * i for i in range(best)])
        ref, _ = fit(SMALL_CFG, tc, train_traces, val_traces)
        for name, t in named_tensors(ref).items():
            assert named_tensors(params)[name].data.tobytes() == t.data.tobytes(), name

    def test_early_stop_copies_the_best_epoch_once(self, small_sets, monkeypatch):
        train_traces, val_traces = small_sets
        # lr=0 freezes the parameters, hence the validation AUC
        tc = TrainConfig(learning_rate=0.0, batch_size=8, max_epochs=10, patience=3, seed=0)
        events = self.snapshot_events(monkeypatch)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        assert log.stop_reason == "early_stop" and log.best_epoch == 1
        assert events == ["epoch", "clone", "epoch", "epoch", "epoch", "load"]

    def test_deterministic_log_key(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3, seed=4)
        _, log1 = fit(SMALL_CFG, tc, train_traces, val_traces)
        _, log2 = fit(SMALL_CFG, tc, train_traces, val_traces)
        assert log1.key() == log2.key()

    def test_overlapping_sets_rejected(self, small_sets):
        train_traces, val_traces = small_sets
        with pytest.raises(TrainError, match="overlap"):
            fit(SMALL_CFG, TrainConfig(max_epochs=1), train_traces,
                train_traces[:2])

    @pytest.mark.parametrize("missing", [0, 1])
    def test_one_class_validation_set_rejected_before_training(self, small_sets, missing,
                                                               monkeypatch):
        def no_epoch(*args, **kwargs):
            raise AssertionError("train_epoch ran")

        monkeypatch.setattr("ctgformer.train.train_epoch", no_epoch)
        epochs = []
        train_traces, val_traces = small_sets
        one_class = [t for t in val_traces if t.label != missing]
        with pytest.raises(TrainError, match=f"no trace with label {missing}"):
            fit(SMALL_CFG, TrainConfig(max_epochs=2), train_traces, one_class,
                stop_hook=lambda epoch, val_auc: epochs.append(epoch))
        assert epochs == []

    def test_seq_len_mismatch_rejected_before_init(self, small_sets, monkeypatch):
        def no_init(*args, **kwargs):
            raise AssertionError("init_params ran")

        monkeypatch.setattr("ctgformer.train.init_params", no_init)
        train_traces, val_traces = small_sets
        cfg = replace(SMALL_CFG, seq_len=480)
        with pytest.raises(TrainError, match="seq_len 480 does not match the 960-sample"):
            fit(cfg, TrainConfig(max_epochs=1), train_traces, val_traces)

    def test_stop_hook_prunes(self, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=10, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces,
                     stop_hook=lambda epoch, val_auc: epoch >= 2)
        assert log.stop_reason == "pruned"
        assert len(log.epochs) == 2


class TestValidationDtype:
    """``fit`` scores validation in ``TRAIN_DTYPE`` through ``predictions_for``;
    ``predict_scores`` of the float64 parameters is the float64 path."""

    @staticmethod
    def per_epoch_aucs(seed: int) -> list:
        """(logged val_auc, AUC of predictions_for, float64 AUC, positives,
        negatives) after every epoch of a short seeded fit, read through
        ``stop_hook`` on the parameters that epoch left."""
        cohort = generate_cohort(GenSpec(n_per_class=24, seed=seed))
        train, val = split(cohort, 0.5, seed=seed)
        params = init_params(SMALL_CFG, seed)
        n_pos = sum(t.label for t in val.traces)
        rows = []

        def hook(epoch, val_auc):
            scores64 = predict_scores(val.traces, SMALL_CFG, params)
            auc64 = auc([Prediction(t.trace_id, float(s), t.label, t.days_to_delivery)
                         for t, s in zip(val.traces, scores64)])
            rows.append((val_auc, auc(predictions_for(val.traces, SMALL_CFG, params)),
                         auc64, n_pos, len(val.traces) - n_pos))
            return False

        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=4, patience=10, seed=seed)
        _, log = fit(SMALL_CFG, tc, train.traces, val.traces, init=params, stop_hook=hook)
        assert [e.val_auc for e in log.epochs] == [r[0] for r in rows]
        return rows

    def test_predictions_for_scores_a_train_dtype_copy(self, small_sets):
        _, val_traces = small_sets
        params = init_params(SMALL_CFG, 5)
        got = np.array([p.score for p in predictions_for(val_traces, SMALL_CFG, params)])
        want = predict_scores(val_traces, SMALL_CFG, cast_params(params, TRAIN_DTYPE))
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != predict_scores(val_traces, SMALL_CFG, params).tobytes()

    def test_every_epoch_val_auc_is_predictions_for_auc(self, monkeypatch):
        fit_scored = []

        def spy(traces, cfg, params):
            preds = predictions_for(traces, cfg, params)
            fit_scored.append(auc(preds))
            return preds

        monkeypatch.setattr(train_module, "predictions_for", spy)
        rows = self.per_epoch_aucs(seed=3)
        assert fit_scored == [logged for logged, *_ in rows]
        for logged, rescored, *_ in rows:
            assert logged == rescored

    def test_float32_validation_auc_gap_on_trained_params(self):
        # Seeds 0-7 of this set-up, 4 epochs each, all gave a gap of 0 (the
        # largest probability difference was 3e-8): float32 moved no pair of
        # scores past each other. The bound allows one flipped pair.
        for seed in range(5):
            for _, auc32, auc64, n_pos, n_neg in self.per_epoch_aucs(seed):
                assert abs(auc32 - auc64) <= 1.0 / (n_pos * n_neg)

    def test_float32_logit_of_twenty_scores_below_one(self, small_sets):
        _, val_traces = small_sets
        params = cast_params(init_params(SMALL_CFG, 0), np.float32)
        params.w_head.data[:] = 0.0
        params.b_head.data[:] = 20.0
        scores = predict_scores(val_traces, SMALL_CFG, params)
        assert np.float32(1.0) / (np.float32(1.0) + np.exp(np.float32(-20.0))) == 1.0
        assert np.all(scores < 1.0)
        assert np.all(scores == 1.0 / (1.0 + math.exp(-20.0)))


class TestFinetune:
    def make_checkpoint(self, tmp_path, small_sets, seed=0):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=3, seed=seed)
        params, _ = fit(SMALL_CFG, tc, train_traces, val_traces)
        path = tmp_path / "pre.ckpt"
        save_checkpoint(params, SMALL_CFG, path)
        return path

    def test_zero_epoch_finetune_equals_zero_shot(self, tmp_path, small_sets):
        train_traces, val_traces = small_sets
        ckpt = self.make_checkpoint(tmp_path, small_sets)
        init, cfg = load_checkpoint(ckpt)
        params, log = fit(cfg, TrainConfig(max_epochs=0), train_traces, val_traces,
                          init=init)
        pre_params, pre_cfg = load_checkpoint(ckpt)
        zero_shot = auc(predictions_for(val_traces, pre_cfg, pre_params))
        assert log.best_val_auc == pytest.approx(zero_shot, abs=1e-15)
        assert log.best_epoch == 0 and not log.epochs

    def test_finetune_resumes_training(self, tmp_path, small_sets):
        train_traces, val_traces = small_sets
        ckpt = self.make_checkpoint(tmp_path, small_sets)
        init, cfg = load_checkpoint(ckpt)
        params, log = fit(cfg, TrainConfig(learning_rate=1e-3, batch_size=8,
                                           max_epochs=2, seed=1),
                          train_traces, val_traces, init=init)
        assert len(log.epochs) == 2
        assert cfg == SMALL_CFG


class TestTrainLogIO:
    def test_lines_parse(self, tmp_path, small_sets):
        train_traces, val_traces = small_sets
        tc = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2, seed=0)
        _, log = fit(SMALL_CFG, tc, train_traces, val_traces)
        path = tmp_path / "log.csv"
        write_train_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,val_auc,seconds"
        assert len(lines) == len(log.epochs) + 1
        for line, rec in zip(lines[1:], log.epochs):
            epoch, loss, val_auc, seconds = line.split(",")
            assert int(epoch) == rec.epoch
            assert float(loss) == rec.train_loss
            assert float(val_auc) == rec.val_auc
            assert float(seconds) >= 0.0
