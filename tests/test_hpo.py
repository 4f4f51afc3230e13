import pytest

from ctgformer.errors import HpoError
from ctgformer.data import GenSpec, generate_cohort, split
from ctgformer.model import ModelConfig
from ctgformer.hpo import (
    PAPER_BEST,
    PRUNE_MIN_EPOCH,
    MedianPruner,
    SearchSpace,
    TrialRecord,
    best_trial,
    leaderboard_rows,
    preset_configs,
    run_search,
    sample_trial,
    write_leaderboard,
)
from ctgformer.train import TrainLog, EpochRecord

# scaled-down space so unit tests stay fast; the default space is the
# published grid and is exercised in the acceptance suite
FAST_SPACE = SearchSpace(
    seq_len=960,
    n_layers=(1,),
    n_heads=(2,),
    d_model=(8, 16),
    d_ff=(8, 16),
    dropout_range=(0.1, 0.5),
    learning_rate=(1e-3, 5e-4),
    batch_size=(8, 16),
    patch_len=(32,),
    stride=(32,),
    activation=("relu", "gelu"),
)


@pytest.fixture(scope="module")
def tiny_sets():
    cohort = generate_cohort(GenSpec(n_per_class=12, seed=2))
    train, val = split(cohort, 0.75, seed=0)
    return train.traces, val.traces


class TestSampleTrial:
    def test_negative_seed_rejected(self):
        with pytest.raises(HpoError, match="seed must be non-negative, got -1"):
            sample_trial(SearchSpace(), -1, 0)

    def test_values_in_published_grids(self):
        space = SearchSpace()
        for i in range(200):
            cfg, lr, bs = sample_trial(space, seed=1, index=i)
            assert cfg.n_layers in space.n_layers
            assert cfg.n_heads in space.n_heads
            assert cfg.d_model in space.d_model
            assert cfg.d_ff in space.d_ff
            assert cfg.patch_len in space.patch_len
            assert cfg.stride in space.stride
            assert cfg.activation in space.activation
            assert lr in space.learning_rate
            assert bs in space.batch_size
            for rate in (cfg.dropout, cfg.fc_dropout, cfg.attn_dropout):
                assert 0.1 <= rate <= 0.5
            assert cfg.d_model % cfg.n_heads == 0

    def test_deterministic_per_seed_and_index(self):
        a = sample_trial(SearchSpace(), seed=1, index=5)
        b = sample_trial(SearchSpace(), seed=1, index=5)
        assert a == b
        c = sample_trial(SearchSpace(), seed=1, index=6)
        assert a != c

    def test_grid_frequencies_roughly_uniform(self):
        space = SearchSpace()
        counts = {v: 0 for v in space.d_model}
        n = 1000
        for i in range(n):
            cfg, _, _ = sample_trial(space, seed=3, index=i)
            counts[cfg.d_model] += 1
        for v, c in counts.items():
            assert abs(c / n - 1 / 7) < 0.05, (v, c)

    def test_divisibility_repair(self):
        # a space whose only conflict-free pair requires resampling
        space = SearchSpace(n_heads=(16, 32), d_model=(64, 48))
        for i in range(100):
            cfg, _, _ = sample_trial(space, seed=7, index=i)
            assert cfg.d_model % cfg.n_heads == 0


class TestPresets:
    def test_paper_best_exact_values(self):
        model_kwargs, train_kwargs = preset_configs("paper-best")
        cfg = ModelConfig(**model_kwargs)
        assert cfg.n_layers == 6
        assert cfg.n_heads == 4
        assert cfg.d_model == 512
        assert cfg.d_ff == 128
        assert cfg.dropout == 0.1
        assert cfg.fc_dropout == 0.4
        assert cfg.attn_dropout == 0.2
        assert cfg.patch_len == 16
        assert cfg.stride == 16
        assert cfg.kernel_size == 15
        assert cfg.activation == "relu"
        assert train_kwargs == {"learning_rate": 1e-4, "batch_size": 48}

    def test_paper_best_round_trips_through_config_parsing(self):
        model_kwargs, _ = preset_configs("paper-best")
        cfg = ModelConfig(**model_kwargs)
        again = ModelConfig.from_dict(cfg.as_dict())
        assert again == cfg
        for key, value in PAPER_BEST.items():
            if key in ("learning_rate", "batch_size"):
                continue
            assert getattr(again, key) == value

    def test_unknown_preset(self):
        with pytest.raises(HpoError):
            preset_configs("bayes-best")


class TestMedianPruner:
    def log_with(self, aucs):
        log = TrainLog()
        log.epochs = [EpochRecord(i + 1, 0.5, a, 0.0) for i, a in enumerate(aucs)]
        return log

    def test_inactive_before_min_epoch(self):
        p = MedianPruner()
        p.record_completed(self.log_with([0.9] * 12))
        assert not p.should_prune(9, 0.0)

    def test_prunes_below_median(self):
        p = MedianPruner()
        for top in (0.8, 0.85, 0.9):
            p.record_completed(self.log_with([top] * 12))
        assert p.should_prune(10, 0.84)
        assert not p.should_prune(10, 0.85)  # at the median survives
        assert not p.should_prune(10, 0.9)

    def test_no_history_never_prunes(self):
        p = MedianPruner()
        assert not p.should_prune(15, 0.0)


class TestRunSearch:
    def test_negative_seed_rejected_before_any_trial(self, tiny_sets, monkeypatch):
        import ctgformer.hpo as hpo

        def no_fit(*args, **kwargs):
            raise AssertionError("a trial started")

        monkeypatch.setattr(hpo, "fit", no_fit)
        train_traces, val_traces = tiny_sets
        with pytest.raises(HpoError, match="seed must be non-negative, got -3"):
            run_search(FAST_SPACE, train_traces, val_traces, n_trials=2, seed=-3)

    def test_single_trial_is_best(self, tiny_sets):
        train_traces, val_traces = tiny_sets
        trials = run_search(FAST_SPACE, train_traces, val_traces, n_trials=1,
                            max_epochs=2, seed=5)
        assert len(trials) == 1
        assert best_trial(trials).index == 0

    def test_running_best_monotone(self, tiny_sets):
        train_traces, val_traces = tiny_sets
        trials = run_search(FAST_SPACE, train_traces, val_traces, n_trials=4,
                            max_epochs=2, seed=6)
        best_so_far = -1.0
        for t in trials:
            if t.best_val_auc is not None:
                best_so_far = max(best_so_far, t.best_val_auc)
            assert best_trial(trials[:t.index + 1]).best_val_auc == best_so_far

    def test_five_trial_determinism(self, tiny_sets):
        train_traces, val_traces = tiny_sets
        a = run_search(FAST_SPACE, train_traces, val_traces, n_trials=5,
                       max_epochs=2, seed=7)
        b = run_search(FAST_SPACE, train_traces, val_traces, n_trials=5,
                       max_epochs=2, seed=7)
        assert [t.model_config for t in a] == [t.model_config for t in b]
        assert [t.best_val_auc for t in a] == [t.best_val_auc for t in b]
        assert best_trial(a).model_config == best_trial(b).model_config
        assert [t.log.key() for t in a] == [t.log.key() for t in b]

    def test_ties_break_to_earlier_trial(self):
        trials = [
            TrialRecord(0, ModelConfig(), 1e-4, 48, status="completed", best_val_auc=0.9),
            TrialRecord(1, ModelConfig(), 1e-4, 48, status="completed", best_val_auc=0.9),
        ]
        assert best_trial(trials).index == 0

    def test_pruned_never_best_unless_nothing_completed(self):
        trials = [
            TrialRecord(0, ModelConfig(), 1e-4, 48, status="pruned", best_val_auc=0.99),
            TrialRecord(1, ModelConfig(), 1e-4, 48, status="completed", best_val_auc=0.6),
        ]
        assert best_trial(trials).index == 1
        only_pruned = [TrialRecord(0, ModelConfig(), 1e-4, 48, status="pruned",
                                   best_val_auc=0.7)]
        assert best_trial(only_pruned).index == 0

    @pytest.mark.parametrize("prune", [True, False])
    def test_completed_history_prunes_a_later_trial(self, monkeypatch, prune):
        import ctgformer.hpo as hpo

        # each trial's validation AUC by epoch; trial 1 falls below trial 0's
        # AUC at the pruner's first epoch, trial 2 stays above it
        k = PRUNE_MIN_EPOCH
        curves = iter([[0.8] * (k + 2), [0.9] * (k - 1) + [0.5] * 3,
                       [0.6] * (k - 1) + [0.85] * 3])

        def scripted_fit(cfg, train_cfg, train, val, stop_hook=None):
            log = TrainLog()
            for epoch, val_auc in enumerate(next(curves), start=1):
                log.epochs.append(EpochRecord(epoch, 0.5, val_auc, 0.0))
                if stop_hook is not None and stop_hook(epoch, val_auc):
                    log.stop_reason = "pruned"
                    break
            log.best_val_auc = max(e.val_auc for e in log.epochs)
            return None, log

        monkeypatch.setattr(hpo, "fit", scripted_fit)
        trials = run_search(FAST_SPACE, [], [], n_trials=3, prune=prune)
        if prune:
            assert [t.status for t in trials] == ["completed", "pruned", "completed"]
            assert len(trials[1].log.epochs) == k
        else:
            assert [t.status for t in trials] == ["completed"] * 3

    def test_all_failed_raises(self, tiny_sets):
        train_traces, _ = tiny_sets
        with pytest.raises(HpoError, match="failed"):
            # validation set shares ids with training -> every fit errors out
            run_search(FAST_SPACE, train_traces, train_traces[:4], n_trials=2,
                       max_epochs=1, seed=1)


class TestLeaderboard:
    def make_trials(self):
        def rec(i, auc_val, status="completed"):
            log = TrainLog()
            log.best_epoch = 1
            log.best_val_auc = auc_val
            log.epochs = [EpochRecord(1, 0.6, auc_val, 0.0)]
            return TrialRecord(i, ModelConfig(), 1e-4, 48, status=status,
                               best_val_auc=auc_val, log=log)

        return [rec(0, 0.7), rec(1, 0.9), rec(2, 0.8)]

    def test_sorted_descending(self):
        rows = leaderboard_rows(self.make_trials())
        assert [r["trial"] for r in rows] == [1, 2, 0]
        assert [r["rank"] for r in rows] == [1, 2, 3]
        # independent sort oracle
        aucs = [float(r["best_val_auc"]) for r in rows]
        assert aucs == sorted(aucs, reverse=True)

    def test_single_trial_rank_one(self, tmp_path):
        trials = self.make_trials()[:1]
        path = tmp_path / "leaderboard.csv"
        write_leaderboard(trials, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,0,completed")

    def test_written_rows_exact(self, tmp_path):
        scored = self.make_trials()[0]
        scored.model_config = ModelConfig(dropout=0.1 + 0.2, activation="gelu")
        failed = TrialRecord(3, ModelConfig(), 5e-06, 16, status="failed", error="boom")
        path = tmp_path / "leaderboard.csv"
        write_leaderboard([failed, scored], path)
        assert path.read_text().splitlines() == [
            "rank,trial,status,best_val_auc,best_epoch,epochs_run,n_layers,n_heads,"
            "d_model,d_ff,dropout,fc_dropout,attn_dropout,patch_len,stride,activation,"
            "learning_rate,batch_size",
            "1,0,completed,0.7,1,1,6,4,512,128,0.30000000000000004,0.4,0.2,16,16,gelu,"
            "0.0001,48",
            "2,3,failed,,,,6,4,512,128,0.1,0.4,0.2,16,16,relu,5e-06,16",
        ]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(HpoError):
            write_leaderboard([], tmp_path / "x.csv")
