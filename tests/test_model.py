import hashlib
import itertools
import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from ctgformer.errors import CheckpointError, ModelError
from ctgformer.numcore import Graph, Tensor, as_tensor, backward, grad_check, matmul, reshape
from ctgformer.numcore.ops import _record
from ctgformer.numcore.tensor import _find_arrays
from ctgformer.model import (
    ModelConfig,
    attention,
    cast_params,
    classify,
    embed_patches,
    encode_channel,
    encoder_layer,
    ffn,
    forward_batch,
    init_params,
    instance_normalize,
    load_checkpoint,
    make_patches,
    named_tensors,
    pool_channel,
    predict_scores,
    save_checkpoint,
    working_copy,
)
from ctgformer.model.net import FORWARD_BUDGET_BYTES, TRAIN_DTYPE, max_forward_chunk, tape_bytes
from ctgformer.model.params import clone_param_data, load_param_data
from ctgformer.hpo import preset_configs
from ctgformer.train import Adam, bce_loss_batch
from ctgformer.data import GenSpec, generate_cohort


def scalar_loss(t):
    """The sum of ``t``'s entries as a (1, 1) tensor; its adjoint is exactly ones."""
    return matmul(reshape(t, (1, t.size)), np.ones((t.size, 1)))


def concat(tensors, axis: int = -1) -> Tensor:
    """Join along ``axis``; the adjoint is one slice of ``g`` per part."""
    ts = [as_tensor(t) for t in tensors]
    splits = list(itertools.accumulate(t.shape[axis] for t in ts))[:-1]
    out = np.concatenate([t.data for t in ts], axis=axis)
    return _record(tuple(ts), out, lambda g: tuple(np.split(g, splits, axis=axis)))


TINY = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                   d_model=8, d_ff=16, dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)


def random_batch(rng, b=2, seq_len=32, missing=0.1):
    vals = rng.uniform(0, 1, (b, seq_len))
    masks = rng.random((b, seq_len)) >= missing
    masks[:, :4] = True  # keep at least a few observed samples
    vals = np.where(masks, vals, 0.0)
    return vals, masks


def batch_dict(rng, b=2, seq_len=32, missing=0.1):
    fhr, fhr_mask = random_batch(rng, b, seq_len, missing)
    toco, toco_mask = random_batch(rng, b, seq_len, missing)
    return {"fhr": fhr, "fhr_mask": fhr_mask, "toco": toco, "toco_mask": toco_mask}


def test_model_exports_are_batch_only():
    import ctgformer.model as model

    for name in model.__all__:
        assert getattr(model, name) is not None, name
    assert not {"forward", "predict", "PatchSet"} & set(model.__all__)


class TestConfig:
    def test_paper_best_patch_count(self):
        assert ModelConfig().n_patches == 60

    def test_divisibility_enforced(self):
        with pytest.raises(ModelError):
            ModelConfig(d_model=100, n_heads=8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ModelError, match="unknown"):
            ModelConfig.from_dict({"d_model": 64, "n_heads": 4, "warp_factor": 9})

    def test_round_trip_dict(self):
        cfg = ModelConfig(d_model=64, n_heads=4, n_layers=3)
        assert ModelConfig.from_dict(cfg.as_dict()) == cfg

    @pytest.mark.parametrize("field", ["d_model", "d_ff", "stride", "n_layers", "n_heads"])
    def test_widths_and_counts_must_be_positive(self, field):
        with pytest.raises(ModelError, match=f"^{field} must be at least 1, got 0$"):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("field,value,noun", [
        ("patch_len", 16.5, "an integer"), ("d_model", True, "an integer"),
        ("seq_len", "960", "an integer"), ("dropout", True, "a number"),
        ("share_backbone", "false", "true or false"), ("share_backbone", 0, "true or false"),
        ("activation", 1, "a string"),
    ])
    def test_fields_hold_their_declared_types(self, field, value, noun):
        with pytest.raises(ModelError, match=f"^{field} must be {noun}, got "):
            ModelConfig(**{field: value})

    def test_numpy_numbers_and_ints_for_floats_are_accepted(self):
        cfg = ModelConfig(d_model=np.int64(64), dropout=0, attn_dropout=np.float64(0.1))
        assert cfg.d_model == 64 and cfg.dropout == 0


def param_digest(params) -> str:
    """sha256 over every tensor's name and bytes, in ``named_tensors`` order."""
    h = hashlib.sha256()
    for name, t in named_tensors(params).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


class TestInitParams:
    @pytest.mark.parametrize("share,seed,digest", [
        (True, 0, "f2233846f62bd7b38feb1e28e3c46e349c83205da1580d4143fd972e129f333b"),
        (True, 7, "480205eedd488394fd270c8563bb60c15bccc551ed6fa5d37327ffdc837b7551"),
        (False, 0, "3f5bdd81bfbb1244b67dacfc2cc89ea7aa8edf85aa070ec94290a741c578b9fb"),
        (False, 7, "c57b224a4347d4fbb46d6335360ddee9fa1f332b5445bc9759673d0c46f99fe3"),
    ], ids=["shared-seed0", "shared-seed7", "separate-seed0", "separate-seed7"])
    def test_bytes_are_pinned(self, share, seed, digest):
        # every seeded run starts here, so these bytes must not move; each
        # w_qkv's three (d, d) blocks are drawn as three weight matrices
        assert param_digest(init_params(acceptance_config(share_backbone=share), seed)) == digest

    def test_deep_separate_backbones_have_a_seed_for_every_weight(self):
        # 342 layers on two backbones make 4107 weight matrices; the first
        # layers keep the seeds, and so the bytes, of a shallow model's
        small = dict(d_model=8, n_heads=2, d_ff=8, share_backbone=False)
        deep = named_tensors(init_params(ModelConfig(n_layers=342, **small), 4))
        shallow = named_tensors(init_params(ModelConfig(n_layers=2, **small), 4))
        assert len(deep) == 2 * (2 + 10 * 342) + 2
        for name in ("backbone0.layer0.w_qkv", "backbone0.layer1.w_ffn2"):
            assert deep[name].data.tobytes() == shallow[name].data.tobytes()

    def test_fan_bound_zeros_and_ones(self):
        for name, t in named_tensors(init_params(acceptance_config(share_backbone=False), 1)).items():
            assert t.requires_grad and t.data.dtype == np.float64, name
            if name.endswith("gain"):
                assert np.all(t.data == 1.0), name
            elif t.data.ndim == 1 or name.endswith("w_pos"):
                assert np.all(t.data == 0.0), name
            else:
                bound = 1.0 / np.sqrt(t.data.shape[0])
                assert np.all(np.abs(t.data) <= bound), name
                assert np.max(np.abs(t.data)) > bound / 2, name   # actually spread out


class TestInstanceNormalize:
    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=960)
        x = (x - x.mean()) / x.std()
        out, mu, sigma = instance_normalize(x[None], np.ones((1, 960), dtype=bool))
        assert np.allclose(out[0], x, atol=1e-6)

    def test_constant_signal_zeroed(self):
        out, mu, sigma = instance_normalize(np.full((1, 960), 0.5), np.ones((1, 960), dtype=bool))
        assert np.all(out == 0.0)
        assert sigma[0] == pytest.approx(1e-8)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0, 1, 960)
            mask = rng.random(960) >= 0.2
            mask[:2] = True
            x = np.where(mask, x, 0.0)
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-1, 1)
            y = np.where(mask, a * x + b, 0.0)
            out_x, _, _ = instance_normalize(x[None], mask[None])
            out_y, _, _ = instance_normalize(y[None], mask[None])
            assert np.allclose(out_x, out_y, atol=1e-9)

    def test_observed_stats(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 960)
        mask = rng.random(960) >= 0.3
        x = np.where(mask, x, 0.0)
        out, _, _ = instance_normalize(x[None], mask[None])
        out = out[0]
        obs = out[mask]
        assert abs(obs.mean()) < 1e-10
        assert abs(obs.std() - 1.0) < 1e-6
        assert np.all(out[~mask] == 0.0)

    def test_too_few_observed(self):
        mask = np.zeros(960, dtype=bool)
        mask[0] = True
        with pytest.raises(ModelError, match="2 observed"):
            instance_normalize(np.zeros((1, 960)), mask[None])


def model_patch_counts(seq_len, patch_len, stride):
    """The count that sizes the positional table and the count make_patches cuts."""
    ones = np.ones((1, seq_len), dtype=bool)
    cut = make_patches(np.zeros((1, seq_len)), ones, patch_len, stride)[0].shape[1]
    return ModelConfig(seq_len=seq_len, patch_len=patch_len, stride=stride).n_patches, cut


class TestMakePatches:
    def test_paper_best_sixty(self):
        assert model_patch_counts(960, 16, 16) == (60, 60)

    def test_overlapping_stride(self):
        assert model_patch_counts(960, 16, 8) == (119, 119)

    def test_single_whole_patch(self):
        patches, _ = make_patches(np.arange(32.0)[None], np.ones((1, 32), dtype=bool), 32, 32)
        assert patches.shape == (1, 1, 32)
        assert np.array_equal(patches[0, 0], np.arange(32.0))

    def test_patch_content_indices(self):
        patches, _ = make_patches(np.arange(32.0)[None], np.ones((1, 32), dtype=bool), 8, 4)
        for j in range(patches.shape[1]):
            assert np.array_equal(patches[0, j], np.arange(j * 4, j * 4 + 8, dtype=float))

    def test_count_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        # exhaustive small grid
        for seq in range(1, 40):
            for p in range(1, seq + 1):
                for s in range(1, p + 1):
                    brute = sum(1 for j in range(seq) if j * s + p <= seq)
                    assert model_patch_counts(seq, p, s) == (brute, brute)
        # random larger triples
        for _ in range(300):
            seq = int(rng.integers(1, 2001))
            p = int(rng.integers(1, seq + 1))
            s = int(rng.integers(1, p + 1))
            brute = sum(1 for j in range(seq) if j * s + p <= seq)
            assert model_patch_counts(seq, p, s) == (brute, brute)

    def test_mask_majority_rule(self):
        mask = np.ones(32, dtype=bool)
        mask[0:5] = False   # patch 0 has 5/8 missing -> masked
        mask[8:12] = False  # patch 1 has exactly 4/8 missing -> kept
        _, patch_mask = make_patches(np.where(mask, 0.5, 0.0)[None], mask[None], 8, 8)
        assert not patch_mask[0, 0]
        assert patch_mask[0, 1]
        assert patch_mask[0, 2:].all()

    def test_patch_longer_than_sequence(self):
        with pytest.raises(ModelError):
            make_patches(np.zeros((1, 8)), np.ones((1, 8), dtype=bool), 16, 8)


class TestEmbed:
    def test_zero_weights_zero_embeddings(self):
        patches, _ = make_patches(np.arange(32.0)[None] / 32, np.ones((1, 32), dtype=bool), 8, 8)
        e = embed_patches(patches, Tensor(np.zeros((8, 4))), Tensor(np.zeros((4, 4))))
        assert np.all(e.data == 0.0)

    def test_zero_patches_give_positional_rows(self):
        patches, _ = make_patches(np.zeros((1, 32)), np.ones((1, 32), dtype=bool), 8, 8)
        w_pos = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        e = embed_patches(patches, Tensor(np.random.default_rng(1).normal(size=(8, 6))), w_pos)
        assert np.allclose(e.data[0], w_pos.data)

    def test_matches_dense_matmul_oracle(self):
        rng = np.random.default_rng(2)
        patches, _ = make_patches(rng.uniform(0, 1, (1, 32)), np.ones((1, 32), dtype=bool), 8, 4)
        w_p = rng.normal(size=(8, 6))
        w_pos = rng.normal(size=(patches.shape[1], 6))
        e = embed_patches(patches, Tensor(w_p), Tensor(w_pos))
        oracle = np.array([patches[0, j] @ w_p + w_pos[j] for j in range(len(w_pos))])
        assert np.allclose(e.data[0], oracle, atol=1e-12)

    def test_positional_row_mismatch(self):
        patches, _ = make_patches(np.zeros((1, 32)), np.ones((1, 32), dtype=bool), 8, 8)
        with pytest.raises(ModelError, match="rows"):
            embed_patches(patches, Tensor(np.zeros((8, 6))), Tensor(np.zeros((5, 6))))


class TestAttention:
    def layer(self, d, seed=0):
        """A one-layer backbone's layer."""
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1,
                          n_heads=2, d_model=d, d_ff=16)
        return init_params(cfg, seed).backbones[0].layers[0]

    def test_single_patch_passthrough(self):
        rng = np.random.default_rng(1)
        layer = self.layer(8)
        e = Tensor(rng.normal(size=(1, 1, 8)))
        out = attention(e, layer.w_qkv, layer.w_o, np.array([[True]]), n_heads=2)
        # softmax over one key is 1, so output is V projected by W_O
        v = e.data[0] @ layer.w_qkv.data[:, 16:]   # w_qkv's value block
        assert np.allclose(out.data[0], v @ layer.w_o.data, atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(2)
        layer = self.layer(8, seed=3)
        # identical embeddings give identical keys: attention averages values
        row = rng.normal(size=8)
        e = Tensor(np.tile(row, (1, 5, 1)))
        out = attention(e, layer.w_qkv, layer.w_o, np.ones((1, 5), dtype=bool), n_heads=2)
        v_mean = (e.data[0] @ layer.w_qkv.data[:, 16:]).mean(axis=0)
        assert np.allclose(out.data[0], np.tile(v_mean @ layer.w_o.data, (5, 1)), atol=1e-12)

    def test_masked_equals_deleted(self):
        rng = np.random.default_rng(4)
        layer = self.layer(8, seed=5)
        e_full = rng.normal(size=(6, 8))
        keep = np.array([True, True, False, True, False, True])
        masked_out = attention(Tensor(e_full[None]), layer.w_qkv, layer.w_o, keep[None],
                               n_heads=2)
        deleted_out = attention(Tensor(e_full[keep][None]), layer.w_qkv, layer.w_o,
                                np.ones((1, int(keep.sum())), dtype=bool), n_heads=2)
        assert np.allclose(masked_out.data[0, keep], deleted_out.data[0], atol=1e-10)

    def test_all_masked_rejected(self):
        layer = self.layer(8)
        with pytest.raises(ModelError, match="masked"):
            attention(Tensor(np.zeros((1, 3, 8))), layer.w_qkv, layer.w_o,
                      np.zeros((1, 3), dtype=bool), n_heads=2)


class TestFfn:
    def test_zero_weights(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY, 1)
        layer = params.backbones[0].layers[0]
        for t in (layer.w_ffn1, layer.b_ffn1, layer.w_ffn2, layer.b_ffn2):
            t.data = np.zeros_like(t.data)
        out = ffn(Tensor(rng.normal(size=(1, 4, 8))), layer, "relu")
        assert np.all(out.data == 0.0)

    def test_identity_relu_passthrough(self):
        params = init_params(ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1,
                                         n_heads=2, d_model=8, d_ff=8), 1)
        layer = params.backbones[0].layers[0]
        layer.w_ffn1.data = np.eye(8)
        layer.w_ffn2.data = np.eye(8)
        layer.b_ffn1.data = np.zeros(8)
        layer.b_ffn2.data = np.zeros(8)
        x = np.abs(np.random.default_rng(2).normal(size=(1, 4, 8)))
        out = ffn(Tensor(x), layer, "relu")
        assert np.allclose(out.data, x, atol=1e-12)

    def test_matches_composed_matmul_oracle(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY, 7)
        layer = params.backbones[0].layers[0]
        x = rng.normal(size=(1, 5, 8))
        out = ffn(Tensor(x), layer, "gelu")
        from scipy.special import erf

        h = x @ layer.w_ffn1.data + layer.b_ffn1.data
        h = h * 0.5 * (1 + erf(h / np.sqrt(2)))
        oracle = h @ layer.w_ffn2.data + layer.b_ffn2.data
        assert np.allclose(out.data, oracle, atol=1e-12)


class TestEncoderLayer:
    def test_zero_sublayers_reduce_to_double_norm(self):
        from ctgformer.numcore import layer_norm

        params = init_params(TINY, 0)
        layer = params.backbones[0].layers[0]
        for t in (layer.w_qkv, layer.w_o, layer.w_ffn1, layer.b_ffn1, layer.w_ffn2,
                  layer.b_ffn2):
            t.data = np.zeros_like(t.data)
        e = Tensor(np.random.default_rng(1).normal(size=(1, 4, 8)))
        out = encoder_layer(e, layer, np.ones((1, 4), dtype=bool), TINY)
        ln = layer_norm(layer_norm(e, layer.ln1_gain, layer.ln1_bias, eps=1e-5),
                        layer.ln2_gain, layer.ln2_bias, eps=1e-5)
        assert np.allclose(out.data, ln.data, atol=1e-12)

    def test_deterministic_without_dropout(self):
        params = init_params(TINY, 2)
        layer = params.backbones[0].layers[0]
        e = np.random.default_rng(3).normal(size=(1, 4, 8))
        a = encoder_layer(Tensor(e), layer, np.ones((1, 4), dtype=bool), TINY)
        b = encoder_layer(Tensor(e), layer, np.ones((1, 4), dtype=bool), TINY)
        assert np.array_equal(a.data, b.data)

    def test_gradient_matches_finite_differences(self):
        params = init_params(TINY, 4)
        layer = params.backbones[0].layers[0]
        e = Tensor(np.random.default_rng(5).normal(size=(1, 3, 8)))
        mix = Tensor(np.random.default_rng(6).normal(size=(1, 3, 8)))
        tensors = [layer.w_qkv, layer.w_o, layer.w_ffn1, layer.ln1_gain, layer.ln2_bias]

        def f():
            out = encoder_layer(e, layer, np.array([[True, True, False]]), TINY)
            return scalar_loss(out * mix)

        report = grad_check(f, tensors, eps=1e-5, tol=1e-4, max_coords_per_param=20)
        assert report.passed, report.max_rel_err


class TestEncodeChannel:
    def test_channel_independence(self):
        rng = np.random.default_rng(7)
        params = init_params(TINY, 8)
        batch = batch_dict(rng, b=3)
        e1, _ = encode_channel(batch["fhr"], batch["fhr_mask"], TINY, params.backbone_for(0))
        batch["toco"] = np.where(batch["toco_mask"], rng.uniform(0, 1, batch["toco"].shape), 0.0)
        e2, _ = encode_channel(batch["fhr"], batch["fhr_mask"], TINY, params.backbone_for(0))
        assert np.array_equal(e1.data, e2.data)

    def test_shared_backbone_uses_same_tensors(self):
        params = init_params(TINY, 9)
        assert params.backbone_for(0) is params.backbone_for(1)
        separate = init_params(ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1,
                                           n_heads=2, d_model=8, d_ff=16,
                                           share_backbone=False), 9)
        assert separate.backbone_for(0) is not separate.backbone_for(1)

    def test_optimized_config_shape(self):
        cfg = ModelConfig(n_layers=1)  # one layer keeps the test quick; shape is layer-invariant
        params = init_params(cfg, 1)
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, 960)
        out, _ = encode_channel(vals[None], np.ones((1, 960), dtype=bool), cfg,
                                params.backbone_for(0))
        assert out.shape == (1, 60, 512)


class TestPool:
    def test_identical_vectors(self):
        v = np.tile(np.arange(4.0), (1, 5, 1))
        out = pool_channel(Tensor(v), np.ones((1, 5), dtype=bool))
        assert np.allclose(out.data[0], np.arange(4.0))

    def test_two_vector_mean(self):
        e = Tensor(np.stack([np.zeros(3), np.full(3, 2.0)])[None])
        out = pool_channel(e, np.ones((1, 2), dtype=bool))
        assert np.allclose(out.data, 1.0)

    def test_masked_patch_excluded(self):
        rng = np.random.default_rng(1)
        e = rng.normal(size=(6, 4))
        mask = np.array([True, False, True, True, False, True])
        out = pool_channel(Tensor(e[None]), mask[None])
        assert np.allclose(out.data[0], e[mask].mean(axis=0), atol=1e-12)

    def test_all_masked_rejected(self):
        with pytest.raises(ModelError):
            pool_channel(Tensor(np.zeros((1, 3, 4))), np.zeros((1, 3), dtype=bool))


class TestClassify:
    def head(self, d=4, w=0.0, b=0.0):
        return Tensor(np.full((2 * d, 1), w)), Tensor(np.array([b]))

    def test_zero_head_gives_half(self):   # logit 0 is probability 1/2
        w, b = self.head()
        out = classify(Tensor(np.ones((1, 8))), w, b)
        assert out.shape == (1,)
        assert out.data[0] == pytest.approx(0.0)

    def test_saturated_bias(self):   # the logit stays 20; only a sigmoid would saturate
        w, b = self.head(b=20.0)
        out = classify(Tensor(np.ones((1, 8))), w, b)
        assert out.data[0] == pytest.approx(20.0, abs=1e-12)

    def test_log_three_gives_three_quarters(self):   # logit log 3 is probability 3/4
        w, b = self.head(b=float(np.log(3.0)))
        out = classify(Tensor(np.zeros((1, 8))), w, b)
        assert out.data[0] == pytest.approx(np.log(3.0), abs=1e-12)


class TestForward:
    def tiny_trace_batch(self, rng, b=1):
        return batch_dict(rng, b=b, seq_len=32)

    def test_inference_deterministic(self):
        params = init_params(TINY, 11)
        batch = self.tiny_trace_batch(np.random.default_rng(1))
        p1 = forward_batch(batch, TINY, params).data
        p2 = forward_batch(batch, TINY, params).data
        assert np.array_equal(p1, p2)

    def test_affine_rescaling_invariance(self):
        params = init_params(TINY, 12)
        rng = np.random.default_rng(3)
        batch = self.tiny_trace_batch(rng)
        p0 = forward_batch(batch, TINY, params).data
        scaled = dict(batch)
        a, b = 1.7, -0.4
        scaled["fhr"] = np.where(batch["fhr_mask"], a * batch["fhr"] + b, 0.0)
        p1 = forward_batch(scaled, TINY, params).data
        assert np.allclose(p0, p1, atol=1e-8)

    def test_block_permutation_invariance_with_zero_positions(self):
        params = init_params(TINY, 13)
        for bb in params.backbones:
            bb.w_pos.data = np.zeros_like(bb.w_pos.data)
        rng = np.random.default_rng(5)
        batch = self.tiny_trace_batch(rng)
        p0 = forward_batch(batch, TINY, params).data
        perm = np.random.default_rng(1).permutation(4)
        permuted = {}
        for ch, mk in (("fhr", "fhr_mask"), ("toco", "toco_mask")):
            permuted[ch] = batch[ch].reshape(1, 4, 8)[:, perm].reshape(1, 32)
            permuted[mk] = batch[mk].reshape(1, 4, 8)[:, perm].reshape(1, 32)
        p1 = forward_batch(permuted, TINY, params).data
        assert np.allclose(p0, p1, atol=1e-8)

    def test_positional_sensitivity_with_nonzero_positions(self):
        params = init_params(TINY, 14)
        rng = np.random.default_rng(6)
        for bb in params.backbones:
            bb.w_pos.data = rng.normal(scale=0.5, size=bb.w_pos.data.shape)
        batch = self.tiny_trace_batch(rng)
        p0 = forward_batch(batch, TINY, params).data
        differs = 0
        for k in range(20):
            perm = rng.permutation(4)
            if np.array_equal(perm, np.arange(4)):
                continue
            permuted = {}
            for ch, mk in (("fhr", "fhr_mask"), ("toco", "toco_mask")):
                permuted[ch] = batch[ch].reshape(1, 4, 8)[:, perm].reshape(1, 32)
                permuted[mk] = batch[mk].reshape(1, 4, 8)[:, perm].reshape(1, 32)
            p1 = forward_batch(permuted, TINY, params).data
            differs += bool(abs(float(p1[0] - p0[0])) > 1e-6)
        assert differs >= 18

    def test_predict_scores_matches_forward(self):
        cohort = generate_cohort(GenSpec(n_per_class=3, seed=2))
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16)
        params = init_params(cfg, 3)
        scores = predict_scores(cohort.traces, cfg, params, batch_size=4)
        singles = np.concatenate([predict_scores([t], cfg, params) for t in cohort.traces])
        assert np.allclose(scores, singles, atol=1e-12)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    @pytest.mark.parametrize("dtype", [np.float64, TRAIN_DTYPE])
    def test_predict_scores_bytes_do_not_depend_on_the_step(self, dtype):
        # a trace's score must not depend on which traces share its chunk,
        # so the chunk rule can move without moving a score; at this width
        # every BLAS product runs on one thread
        cohort = generate_cohort(GenSpec(n_per_class=4, seed=2))
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, d_ff=24)
        params = cast_params(init_params(cfg, 3), dtype)
        whole = predict_scores(cohort.traces, cfg, params, batch_size=256)
        stepped = predict_scores(cohort.traces, cfg, params, batch_size=3)
        assert whole.tobytes() == stepped.tobytes()

    def test_predict_scores_float64_bytes_are_pinned(self):
        # The bytes of the float64 scoring path that eval and the held-out
        # scores use, on x86-64 with numpy's bundled OpenBLAS: a float32 step
        # anywhere in it moves every one of them.
        cohort = generate_cohort(GenSpec(n_per_class=3, seed=2))
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=16)
        scores = predict_scores(cohort.traces, cfg, init_params(cfg, 3))
        assert scores.dtype == np.float64
        assert [float(s).hex() for s in scores] == [
            "0x1.09966503d3a08p-1", "0x1.fb2602b0acb25p-2", "0x1.019bc434e8d00p-1",
            "0x1.f9fe344850abcp-2", "0x1.058e41ea46459p-1", "0x1.ebdaeedaa4f5ep-2"]

    def test_predict_scores_empty_list(self):
        scores = predict_scores([], TINY, init_params(TINY, 3))
        assert scores.shape == (0,)

    def test_full_model_gradients_finite(self):
        params = init_params(TINY, 15)
        batch = self.tiny_trace_batch(np.random.default_rng(7), b=2)
        with Graph() as g:
            probs = forward_batch(batch, TINY, params, training=True,
                                  rng=np.random.default_rng(0))
            loss = scalar_loss(probs)
        backward(loss, g)
        for name, t in named_tensors(params).items():
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name


class TestChannelBranches:
    """forward_batch encodes FHR and TOCO on two threads (parallel_concat)."""

    @pytest.mark.parametrize("share", [True, False])
    def test_matches_sequential_channels_bit_for_bit(self, share):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=2, n_heads=2,
                          d_model=8, d_ff=16, dropout=0.0, fc_dropout=0.0,
                          attn_dropout=0.0, share_backbone=share)
        batch = batch_dict(np.random.default_rng(2), b=3)

        def sequential(params):
            work = cast_params(params, TRAIN_DTYPE)   # the training pass's working copy
            pooled = [pool_channel(*encode_channel(batch[v], batch[m], cfg,
                                                   work.backbone_for(c)))
                      for c, (v, m) in enumerate((("fhr", "fhr_mask"), ("toco", "toco_mask")))]
            return classify(concat(pooled, axis=-1), work.w_head, work.b_head)

        def grads(run):
            params = init_params(cfg, 21)
            with Graph() as g:
                logits = run(params)
                loss = scalar_loss(logits * logits)
            backward(loss, g)
            return logits.data, {k: t.grad for k, t in named_tensors(params).items()}

        par_logits, par = grads(lambda p: forward_batch(batch, cfg, p, training=True,
                                                        rng=np.random.default_rng(0)))
        seq_logits, seq = grads(sequential)
        assert np.array_equal(par_logits, seq_logits)
        assert list(par) == list(seq)
        for name in par:   # every weight is read at most once per channel
            assert np.array_equal(par[name], seq[name]), name

    def test_toco_with_too_few_samples_raises_model_error(self):
        params = init_params(TINY, 4)
        good = batch_dict(np.random.default_rng(3), b=2)
        expected = forward_batch(good, TINY, params).data
        bad = dict(good, toco_mask=good["toco_mask"].copy())
        bad["toco_mask"][1] = False
        bad["toco_mask"][1, 5] = True
        with pytest.raises(ModelError, match="instance normalization needs at least 2 "
                                             "observed samples per channel"):
            forward_batch(bad, TINY, params)
        assert np.array_equal(forward_batch(good, TINY, params).data, expected)

    def test_both_channels_failing_raises_the_fhr_error(self):
        params = init_params(TINY, 4)
        good = batch_dict(np.random.default_rng(3), b=2)
        bad = dict(good, fhr_mask=np.zeros_like(good["fhr_mask"]),
                   toco_mask=np.zeros_like(good["toco_mask"]))
        bad["fhr_mask"][:, 0] = True                 # FHR: one observed sample
        bad["toco_mask"][:, [0, 9, 18, 27]] = True   # TOCO: every patch mostly missing
        with pytest.raises(ModelError, match="every patch masked"):
            forward_batch(dict(good, toco_mask=bad["toco_mask"]), TINY, params)
        for _ in range(2):
            with Graph():
                with pytest.raises(ModelError, match="instance normalization"):
                    forward_batch(bad, TINY, params, training=True,
                                  rng=np.random.default_rng(0))
        with Graph() as g:
            loss = scalar_loss(forward_batch(good, TINY, params, training=True,
                                             rng=np.random.default_rng(0)))
        backward(loss, g)
        assert all(t.grad is not None for t in named_tensors(params).values())

    def test_at_most_one_extra_thread(self):
        params = init_params(TINY, 5)
        batch = batch_dict(np.random.default_rng(4), b=2)
        before = threading.active_count()
        for k in range(50):
            if k % 2:
                forward_batch(batch, TINY, params)
            else:
                with Graph() as g:
                    loss = scalar_loss(forward_batch(batch, TINY, params, training=True,
                                                     rng=np.random.default_rng(k)))
                backward(loss, g)
        assert threading.active_count() <= before + 1

    def test_dropout_streams(self):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                          d_model=8, d_ff=16, dropout=0.3, fc_dropout=0.3,
                          attn_dropout=0.3)
        params = init_params(cfg, 6)
        batch = batch_dict(np.random.default_rng(5), b=4)
        runs = [forward_batch(batch, cfg, params, training=True,
                              rng=np.random.default_rng(9)).data for _ in range(3)]
        assert all(np.array_equal(runs[0], r) for r in runs[1:])
        # without encoder dropout the channels draw nothing from rng
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        forward_batch(batch, TINY, init_params(TINY, 6), training=True, rng=rng)
        assert rng.bit_generator.state == state

    def test_training_pass_needs_a_generator(self):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                          d_model=8, d_ff=16, dropout=0.3, fc_dropout=0.3,
                          attn_dropout=0.3)
        batch = batch_dict(np.random.default_rng(5), b=4)
        with pytest.raises(ModelError, match="needs a generator"):
            forward_batch(batch, cfg, init_params(cfg, 6), training=True)


def acceptance_config(**overrides) -> ModelConfig:
    """paper-best at d_model 128, 2 layers, as the acceptance suite runs it."""
    model_kwargs, _ = preset_configs("paper-best")
    model_kwargs.update(d_model=128, n_layers=2, **overrides)
    return ModelConfig(**model_kwargs)


def tape_nodes(nodes):
    """Every node of a tape, those on the sub-tapes of fork/join nodes included."""
    for node in nodes:
        yield node
        for tape in node.tapes:
            yield from tape_nodes(tape._nodes)


def test_training_forward_records_77_tape_nodes():
    # per layer and channel the encoder records one Q/K/V product, one
    # attention op, the output product and two layer norms for its
    # residual-dropout-norm steps; each of the 24 parameter tensors is
    # cast to float32 once
    cfg = acceptance_config()
    batch = batch_dict(np.random.default_rng(3), b=2, seq_len=cfg.seq_len)
    with Graph() as g:
        forward_batch(batch, cfg, init_params(cfg, 1), training=True,
                      rng=np.random.default_rng(2))
    assert len(g) == 77


class TestMixedPrecision:
    """A training pass computes in float32 against float64 master weights;
    Adam's moments are float32."""

    @pytest.mark.parametrize("share", [True, False])
    def test_training_tape_is_float32_and_master_state_float64(self, share):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=2, n_heads=2,
                          d_model=8, d_ff=16, dropout=0.2, fc_dropout=0.2,
                          attn_dropout=0.2, share_backbone=share)
        params = init_params(cfg, 8)
        batch = batch_dict(np.random.default_rng(6), b=3)
        with Graph() as g:
            logits = forward_batch(batch, cfg, params, training=True,
                                   rng=np.random.default_rng(1))
        nodes = list(tape_nodes(g._nodes))
        assert any(node.tapes for node in nodes)
        assert len(nodes) == len(g)
        assert {node.dtype for node in nodes} == {np.dtype(np.float32)}
        with g:
            loss = bce_loss_batch(logits, np.array([0.0, 1.0, 1.0]))
        assert loss.data.dtype == np.float64
        backward(loss, g)
        named = named_tensors(params)
        assert all(t.data.dtype == np.float64 and t.grad.dtype == np.float64
                   for t in named.values())
        opt = Adam(named, lr=1e-3)
        opt.step()
        assert all(t.data.dtype == np.float64 for t in named.values())
        assert all(a.dtype == np.float32 for a in (*opt.m.values(), *opt.v.values()))

    @pytest.mark.parametrize("cfg", [TINY, acceptance_config(dropout=0.0, fc_dropout=0.0,
                                                             attn_dropout=0.0)],
                             ids=["tiny", "acceptance"])
    def test_float32_gradients_match_float64(self, cfg):
        batch = batch_dict(np.random.default_rng(9), b=3, seq_len=cfg.seq_len)
        labels = np.array([1.0, 0.0, 1.0])

        def grads(training):
            params = init_params(cfg, 12)
            with Graph() as g:
                loss = bce_loss_batch(forward_batch(batch, cfg, params, training=training,
                                                    rng=np.random.default_rng(0)), labels)
            backward(loss, g)
            return {k: t.grad for k, t in named_tensors(params).items()}

        g32, g64 = grads(True), grads(False)
        for name, ref in g64.items():
            assert g32[name].dtype == np.float64, name
            rel = np.linalg.norm(g32[name] - ref) / np.linalg.norm(ref)
            assert rel <= 1e-4, (name, rel)

    def test_paper_best_chunk_counts_float32_activations(self):
        model_kwargs, _ = preset_configs("paper-best")
        assert max_forward_chunk(ModelConfig(**model_kwargs)) == 25


def training_tape(cfg, params, b):
    """The graph of a training forward pass on ``b`` random traces."""
    batch = batch_dict(np.random.default_rng(b), b=b, seq_len=cfg.seq_len)
    with Graph() as g:
        forward_batch(batch, cfg, params, training=True, rng=np.random.default_rng(1))
    return g


class TestTapeBytes:
    @pytest.mark.parametrize("cfg", [
        acceptance_config(),
        ModelConfig(**preset_configs("paper-best")[0]),
        acceptance_config(share_backbone=False),
        acceptance_config(dropout=0.0, attn_dropout=0.0, fc_dropout=0.0),
        acceptance_config(activation="gelu", n_heads=1, attn_dropout=0.0),
        acceptance_config(activation="elu", dropout=0.0),
    ], ids=["acceptance", "paper-best", "separate", "no-dropout", "gelu", "elu"])
    def test_formula_is_what_the_tape_holds(self, cfg):
        per_trace, fixed = tape_bytes(cfg)
        params = init_params(cfg, 2)
        for b in (1, 2):
            assert training_tape(cfg, params, b).held_bytes() == per_trace * b + fixed, b

    @pytest.mark.parametrize("cfg", [
        acceptance_config(),
        ModelConfig(**preset_configs("paper-best")[0]),
        acceptance_config(share_backbone=False),
    ], ids=["acceptance", "paper-best", "separate"])
    def test_formula_holds_through_the_working_copy(self, cfg):
        # fit's forward passes read the optimizer's float32 copy as their
        # leaves: no cast is recorded, and the tape holds the same bytes
        params = init_params(cfg, 2)
        work = working_copy(params, TRAIN_DTYPE)
        per_trace, fixed = tape_bytes(cfg)
        n_casts = len(named_tensors(params))
        for b in (1, 2):
            cast, leaves = training_tape(cfg, params, b), training_tape(cfg, work, b)
            assert leaves.held_bytes() == cast.held_bytes() == per_trace * b + fixed, b
            assert len(leaves) == len(cast) - n_casts
            assert {t.key for t in leaves.leaves()} == {t.key for t in named_tensors(work).values()}

    @pytest.mark.parametrize("cfg,chunk", [
        (acceptance_config(), 240),
        (ModelConfig(**preset_configs("paper-best")[0]), 25),
    ], ids=["acceptance", "paper-best"])
    def test_largest_chunk_keeps_the_budget(self, cfg, chunk):
        per_trace, fixed = tape_bytes(cfg)
        assert max_forward_chunk(cfg) == chunk
        assert per_trace * chunk + fixed <= FORWARD_BUDGET_BYTES < per_trace * (chunk + 1) + fixed


    def test_sizes_do_not_depend_on_dropout(self):
        # backward draws every dropout mask again, so no mask is held
        on = acceptance_config()
        off = acceptance_config(dropout=0.0, attn_dropout=0.0, fc_dropout=0.0)
        assert (on.dropout, on.attn_dropout, on.fc_dropout) == (0.1, 0.2, 0.4)
        assert tape_bytes(on) == tape_bytes(off)
        assert max_forward_chunk(on) == max_forward_chunk(off) == 240
        params = init_params(on, 2)
        tapes = [training_tape(cfg, params, 2) for cfg in (on, off)]
        assert tapes[0].held_bytes() == tapes[1].held_bytes()
        found = {}
        for node in tape_nodes(tapes[0]._nodes):
            _find_arrays(node.backward_fn, found, set())
        assert {a.dtype for a in found.values()} == {np.dtype(TRAIN_DTYPE)}


class TestTapeMemory:
    def test_training_forward_keeps_only_what_backward_reads(self):
        # the acceptance config at 8 traces: the arrays the adjoint rules
        # read come to about 8.7 MiB; holding the attention contexts and the
        # dropout masks as well keeps about 10.5 MiB, the layer norms'
        # outputs and the dropped-out attention weights too about 13.7 MiB,
        # and every op's input and output tensors about 29.5 MiB
        cfg = acceptance_config()
        params = init_params(cfg, 2)
        batch = batch_dict(np.random.default_rng(3), b=8, seq_len=cfg.seq_len)
        forward_batch(batch, cfg, params, training=True, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            with Graph() as g:
                logits = forward_batch(batch, cfg, params, training=True,
                                       rng=np.random.default_rng(1))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 12 << 20, held / 2 ** 20
        # what the adjoints hold is all but the tape's own bookkeeping
        assert held - (1 << 19) <= g.held_bytes() <= held
        with g:
            loss = bce_loss_batch(logits, np.ones(8))
        backward(loss, g)
        assert g.held_bytes() == 0
        assert all(t.grad is not None for t in named_tensors(params).values())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(seq_len=64, patch_len=8, stride=8, n_layers=2, n_heads=2,
                          d_model=16, d_ff=24)
        params = init_params(cfg, 5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for (n1, t1), (n2, t2) in zip(named_tensors(params).items(),
                                      named_tensors(loaded).items()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        cfg = ModelConfig(seq_len=64, patch_len=8, stride=8, n_layers=1, n_heads=2,
                          d_model=8, d_ff=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(cfg, 1), cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def _edit_header(blob, edit):
        """``blob`` with its JSON header passed through ``edit`` in place."""
        (n,) = struct.unpack_from("<Q", blob, 8)
        header = json.loads(blob[16:16 + n])
        edit(header)
        head = json.dumps(header).encode()
        return blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + n:]

    @pytest.mark.parametrize("damage", ["entry_not_object", "entry_without_shape"])
    def test_malformed_manifest_rejected(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, 1), TINY, path)

        def edit(header):
            if damage == "entry_not_object":
                header["tensors"] = [m["name"] for m in header["tensors"]]
            else:
                del header["tensors"][-1]["shape"]

        path.write_bytes(self._edit_header(path.read_bytes(), edit))
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        ("version", r"format version 1 unsupported \(expected 2\)"),
        ("short_header", "truncated header"),
        ("renamed_tensor", "manifest does not match the stored config"),
        ("reshaped_tensor", r"tensor head.b has shape \(2,\), config implies \(1,\)"),
        ("trailing_bytes", "8 trailing bytes"),
    ])
    def test_damaged_checkpoint_rejected(self, tmp_path, damage, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(TINY, 1), TINY, path)
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<Q", blob, 8)

        def rename(header):
            header["tensors"][0]["name"] = "backbone9.w_patch"

        def reshape(header):
            header["tensors"][-1]["shape"] = [2]

        damaged = {
            "version": lambda: blob[:4] + struct.pack("<I", 1) + blob[8:],
            "short_header": lambda: blob[:16 + n // 2],
            "renamed_tensor": lambda: self._edit_header(blob, rename),
            "reshaped_tensor": lambda: self._edit_header(blob, reshape),
            "trailing_bytes": lambda: blob + bytes(8),
        }[damage]()
        path.write_bytes(damaged)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_load_then_forward_matches(self, tmp_path):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                          d_model=8, d_ff=16)
        params = init_params(cfg, 6)
        batch = batch_dict(np.random.default_rng(8), b=3)
        before = forward_batch(batch, cfg, params).data
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        after = forward_batch(batch, cfg2, loaded).data
        assert np.array_equal(before, after)

    def test_snapshot_round_trip(self):
        params = init_params(TINY, 7)
        snap = clone_param_data(params)
        for t in named_tensors(params).values():
            t.data = t.data + 1.0
        load_param_data(params, snap)
        for name, t in named_tensors(params).items():
            assert np.array_equal(t.data, snap[name])

    def test_snapshot_name_mismatch_rejected(self):
        params = init_params(TINY, 7)
        snap = clone_param_data(params)
        snap["head.bias"] = snap.pop("head.b")
        with pytest.raises(ModelError, match="parameter name mismatch"):
            load_param_data(params, snap)

    def test_snapshot_shape_mismatch_rejected(self):
        params = init_params(TINY, 7)
        snap = clone_param_data(params)
        snap["head.w"] = snap["head.w"][:-1]
        with pytest.raises(ModelError, match="shape mismatch for head.w"):
            load_param_data(params, snap)

    def test_separate_backbone_round_trip(self, tmp_path):
        cfg = ModelConfig(seq_len=32, patch_len=8, stride=8, n_layers=1, n_heads=2,
                          d_model=8, d_ff=8, share_backbone=False,
                          dropout=0.0, fc_dropout=0.0, attn_dropout=0.0)
        params = init_params(cfg, 3)
        assert len(params.backbones) == 2
        batch = batch_dict(np.random.default_rng(0), b=2)
        before = forward_batch(batch, cfg, params).data
        path = tmp_path / "sep.ckpt"
        save_checkpoint(params, cfg, path)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2.share_backbone is False
        assert np.array_equal(forward_batch(batch, cfg2, loaded).data, before)
