"""Network tests: tokenization, attention oracles, fusion algebra, ablation
wiring, model-file layout and serialization, and end-to-end gradient checks
on a tiny model."""

import hashlib
import json
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from gafnet import model, ops, optim
from gafnet.errors import ConfigError, DataFormatError, ShapeMismatchError


def tiny_config(variant="full", num_classes=2):
    return model.ModelConfig(
        num_classes=num_classes,
        cnn1d_layers=((4, 3),),
        lstm_hidden=3,
        cnn2d_layers=((4, 3, 2),),
        groups=2,
        d_attn=4,
        mlp_hidden=8,
        variant=variant,
    )


def tiny_inputs(rng, n=3, w=8):
    segs = rng.standard_normal((n, w))
    imgs = rng.standard_normal((n, w, w))
    return segs, imgs


def attention_oracle(tq, tkv, wq, wk, wv):
    """Plain-loop scaled dot-product attention over (g, c) token matrices."""
    q = tq @ wq
    k = tkv @ wk
    v = tkv @ wv
    g = q.shape[0]
    out = np.zeros((g, wq.shape[1]))
    for i in range(g):
        scores = np.array([q[i] @ k[j] / np.sqrt(wq.shape[1]) for j in range(k.shape[0])])
        e = np.exp(scores - scores.max())
        out[i] = (e / e.sum()) @ v
    return out


def fuse(cfg, params, f_t, f_s):
    """The attention fusion stage on the concatenated features: (output, cache)."""
    stage = model._fusion_stage(cfg)
    return stage.forward(np.concatenate([f_t, f_s], axis=-1), *(params[name].value for name in stage.names))


class TestChannelSplit:
    """The fusion stage cuts each modality's features into `groups` tokens of
    consecutive channels."""

    def test_order_preserved(self):
        cfg = tiny_config("no_cross_channel")
        params = model.init_params(cfg, ops.make_rng(0))
        rng = np.random.default_rng(0)
        f_t, f_s = rng.standard_normal((1, cfg.d_t)), rng.standard_normal((1, cfg.d_s))
        out, _ = fuse(cfg, params, f_t, f_s)
        for m, f, y in (("t", f_t, out[:, : cfg.d_t]), ("s", f_s, out[:, cfg.d_t :])):
            tokens = f[0].reshape(cfg.groups, -1)  # row i holds channels i*c .. (i+1)*c - 1
            w = [params[f"attn.{m}.{p}"].value for p in ("wq", "wk", "wv")]
            pre = f + attention_oracle(tokens, tokens, *w).reshape(1, -1) @ params[f"attn.{m}.wo_intra"].value
            expected, _ = ops.layer_norm_forward(pre, params[f"ln.{m}.gain"].value, params[f"ln.{m}.bias"].value)
            assert np.allclose(y, expected, atol=1e-12)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            replace(tiny_config(), groups=4)  # d_t = 6


class TestAttention:
    def test_intra_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            tokens = rng.standard_normal((4, 3))
            wq, wk, wv = (rng.standard_normal((3, 5)) for _ in range(3))
            out, _ = model._attention_forward(tokens[None], tokens[None], wq, wk, wv)
            assert np.allclose(out, attention_oracle(tokens, tokens, wq, wk, wv)[None], atol=1e-12)

    def test_cross_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tq = rng.standard_normal((4, 3))
            tkv = rng.standard_normal((4, 2))
            wq = rng.standard_normal((3, 5))
            wk, wv = (rng.standard_normal((2, 5)) for _ in range(2))
            out, _ = model._attention_forward(tq[None], tkv[None], wq, wk, wv)
            assert np.allclose(out, attention_oracle(tq, tkv, wq, wk, wv)[None], atol=1e-12)

    def test_attention_weights_row_stochastic(self):
        rng = np.random.default_rng(3)
        tq = rng.standard_normal((2, 5, 3))
        tkv = rng.standard_normal((2, 5, 3))
        wq, wk, wv = (rng.standard_normal((3, 4)) for _ in range(3))
        _, cache = model._attention_forward(tq, tkv, wq, wk, wv)
        att = cache[8]
        assert np.all(att >= 0.0)
        assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-12)

    def test_zero_value_projection_gives_zero_output(self):
        rng = np.random.default_rng(4)
        tokens = rng.standard_normal((3, 4))
        wq, wk = (rng.standard_normal((4, 2)) for _ in range(2))
        out, _ = model._attention_forward(tokens[None], tokens[None], wq, wk, np.zeros((4, 2)))
        assert np.array_equal(out, np.zeros((1, 3, 2)))

    def test_gradient(self):
        rng = np.random.default_rng(5)
        err = ops.grad_check(
            model._attention_forward,
            model._attention_backward,
            [
                rng.standard_normal((2, 3, 4)),
                rng.standard_normal((2, 3, 4)),
                rng.standard_normal((4, 5)),
                rng.standard_normal((4, 5)),
                rng.standard_normal((4, 5)),
            ],
        )
        assert err < 1e-6


class TestFusion:
    def test_zeroed_attention_degenerates_to_layer_norm(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(0))
        for name, p in params.items():
            if name.startswith("attn."):
                p.value[...] = 0.0
        rng = np.random.default_rng(6)
        f_t = rng.standard_normal((1, cfg.d_t))
        f_s = rng.standard_normal((1, cfg.d_s))
        out, _ = fuse(cfg, params, f_t, f_s)
        f_t2, f_s2 = out[:, : cfg.d_t], out[:, cfg.d_t :]
        ln_t, _ = ops.layer_norm_forward(f_t, params["ln.t.gain"].value, params["ln.t.bias"].value)
        ln_s, _ = ops.layer_norm_forward(f_s, params["ln.s.gain"].value, params["ln.s.bias"].value)
        assert np.allclose(f_t2, ln_t, atol=1e-12)
        assert np.allclose(f_s2, ln_s, atol=1e-12)

    def test_fused_outputs_normalized(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(1))
        rng = np.random.default_rng(7)
        out, _ = fuse(cfg, params, rng.standard_normal((1, cfg.d_t)), rng.standard_normal((1, cfg.d_s)))
        f_t2, f_s2 = out[:, : cfg.d_t], out[:, cfg.d_t :]
        assert abs(f_t2.mean()) < 1e-9 and abs(f_s2.mean()) < 1e-9

    def test_fuse_and_classify_probabilities(self):
        cfg = tiny_config(num_classes=3)
        params = model.init_params(cfg, ops.make_rng(2))
        segs, imgs = tiny_inputs(np.random.default_rng(8), n=4)
        probs = model.forward(segs, imgs, params, cfg).probs
        assert probs.shape == (4, 3)
        assert np.all(probs > 0.0) and np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_classifier_bias_shift_leaves_probs_unchanged(self):
        cfg = tiny_config(num_classes=3)
        params = model.init_params(cfg, ops.make_rng(3))
        segs, imgs = tiny_inputs(np.random.default_rng(9))
        base = model.forward(segs, imgs, params, cfg).probs
        params["cls.b"].value[...] += 4.2
        shifted = model.forward(segs, imgs, params, cfg).probs
        assert np.allclose(base, shifted, atol=1e-12)

    def test_fuse_gradient(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(4))
        rng = np.random.default_rng(10)
        f_t = rng.standard_normal((2, cfg.d_t))
        f_s = rng.standard_normal((2, cfg.d_s))

        def fwd(ft, fs):
            return fuse(cfg, params, ft, fs)

        def bwd(g, cache):
            gx = model._fusion_stage(cfg).backward(g, cache)[0]
            return gx[:, : cfg.d_t], gx[:, cfg.d_t :]

        err = ops.grad_check(fwd, bwd, [f_t, f_s])
        assert err < 1e-5

    @pytest.mark.parametrize("variant", ["full", "no_cross_channel"])
    def test_stage_gradient_over_input_and_every_weight(self, variant):
        # with cross-attention each wq/wk/wv serves two paths, whose
        # gradients the stage sums; checked over every entry
        cfg = tiny_config(variant)
        stage = model._fusion_stage(cfg)
        params = model.init_params(cfg, ops.make_rng(5))
        x = np.random.default_rng(11).standard_normal((3, cfg.d_t + cfg.d_s))
        err = ops.grad_check(stage.forward, stage.backward, [x] + [params[name].value for name in stage.names])
        assert err < 1e-5


class TestBranches:
    # the head's linear layer rejects features whose width is not fused_in
    def test_temporal_shape(self):
        cfg = tiny_config("time_only")
        params = model.init_params(cfg, ops.make_rng(5))
        trace = model.forward(np.random.default_rng(11).standard_normal((3, 8)), None, params, cfg)
        assert cfg.fused_in == cfg.d_t and trace.probs.shape == (3, cfg.num_classes)

    def test_spatial_shape(self):
        cfg = tiny_config("gaf_only")
        params = model.init_params(cfg, ops.make_rng(6))
        trace = model.forward(None, np.random.default_rng(12).standard_normal((3, 8, 8)), params, cfg)
        assert cfg.fused_in == cfg.d_s and trace.probs.shape == (3, cfg.num_classes)

    @staticmethod
    def branch_grad_check(cfg, params, x, as_inputs):
        """grad_check of forward(...).logits against backward's input gradient."""

        def fwd(x):
            trace = model.forward(*as_inputs(x), params, cfg)
            return trace.logits, trace

        def bwd(g, trace):
            params.zero_grad()
            grads = model.backward(trace, g, params, cfg)
            return tuple(grad for grad in grads if grad is not None)

        return ops.grad_check(fwd, bwd, [x])

    def test_temporal_input_gradient(self):
        cfg = tiny_config("time_only")
        params = model.init_params(cfg, ops.make_rng(7))
        segs = np.random.default_rng(13).standard_normal((2, 8))
        assert self.branch_grad_check(cfg, params, segs, lambda x: (x, None)) < 1e-5

    def test_spatial_input_gradient(self):
        cfg = tiny_config("gaf_only")
        params = model.init_params(cfg, ops.make_rng(8))
        imgs = np.random.default_rng(14).standard_normal((2, 8, 8))
        assert self.branch_grad_check(cfg, params, imgs, lambda x: (None, x)) < 1e-5


class TestMinInputLen:
    """`ModelConfig.min_input_len` is the shortest window the model takes;
    a shorter one is a data error before any layer runs."""

    @pytest.mark.parametrize("layers, shortest", [
        (((16, 3, 2), (32, 3, 2), (64, 3, 2)), 15),  # the paper default
        (((4, 3, 2),), 3),
        (((4, 3, 1),), 1),  # 'same' padding keeps the size
        (((4, 2, 1),), 2),  # an even kernel pads (k - 1) // 2 = 0
        (((4, 5, 3), (4, 3, 1), (4, 3, 2)), 11),
    ])
    def test_shortest_window_runs_and_one_less_is_rejected(self, layers, shortest):
        cfg = replace(tiny_config("gaf_only"), cnn2d_layers=layers)
        assert cfg.min_input_len == shortest
        params = model.init_params(cfg, ops.make_rng(38))
        rng = np.random.default_rng(39)
        assert model.forward(None, rng.standard_normal((2, shortest, shortest)), params, cfg).probs.shape == (2, 2)
        if shortest > 1:
            with pytest.raises(DataFormatError, match=f"need at least {shortest}"):
                model.forward(None, rng.standard_normal((2, shortest - 1, shortest - 1)), params, cfg)
            with pytest.raises(DataFormatError, match=f"need at least {shortest}"):
                model.predict_probs(params, cfg, None, rng.standard_normal((2, shortest - 1, shortest - 1)))

    def test_no_spatial_branch_takes_any_window(self):
        cfg = model.ModelConfig(num_classes=2, variant="time_only")
        assert cfg.min_input_len == 1
        params = model.init_params(cfg, ops.make_rng(40))
        assert model.forward(np.zeros((2, 1)), None, params, cfg).probs.shape == (2, 2)


class TestVariants:
    def test_config_flags(self):
        flags = {
            "full": (True, True, True, True),
            "no_dual_attention": (True, True, False, False),
            "no_cross_channel": (True, True, True, False),
            "time_only": (True, False, False, False),
            "gaf_only": (False, True, False, False),
        }
        for variant, (t, s, a, x) in flags.items():
            cfg = tiny_config(variant)
            assert (cfg.uses_temporal, cfg.uses_spatial, cfg.uses_attention, cfg.uses_cross) == (t, s, a, x)

    def test_param_sets_differ_by_variant(self):
        names = {v: {k for k, _ in model.init_params(tiny_config(v), ops.make_rng(0)).items()} for v in model.VARIANTS}
        assert "attn.t.wo_cross" in names["full"]
        assert "attn.t.wo_cross" not in names["no_cross_channel"]
        assert not any(k.startswith("attn.") for k in names["no_dual_attention"])
        assert not any(k.startswith("conv2.") for k in names["time_only"])
        assert not any(k.startswith(("conv1.", "lstm.")) for k in names["gaf_only"])

    def test_every_variant_runs_forward_backward(self):
        rng = np.random.default_rng(15)
        segs, imgs = tiny_inputs(rng)
        y = optim.one_hot([0, 1, 0], 2)
        for variant in model.VARIANTS:
            cfg = tiny_config(variant)
            params = model.init_params(cfg, ops.make_rng(9))
            trace = model.forward(
                segs if cfg.uses_temporal else None,
                imgs if cfg.uses_spatial else None,
                params,
                cfg,
            )
            assert trace.probs.shape == (3, 2)
            assert np.allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)
            gsegs, gimgs = model.backward_cross_entropy(trace, y, params, cfg)
            assert (gsegs is not None) == cfg.uses_temporal
            assert (gimgs is not None) == cfg.uses_spatial

    def test_time_only_ignores_images_bit_exactly(self, monkeypatch):
        # predict_probs on the float64 path, so it can match forward's float64 bytes
        monkeypatch.setattr(model, "COMPUTE_DTYPE", np.float64)
        rng = np.random.default_rng(16)
        segs, imgs = tiny_inputs(rng)
        cfg = tiny_config("time_only")
        params = model.init_params(cfg, ops.make_rng(10))
        a = model.forward(segs, None, params, cfg).probs
        b = model.forward(segs, imgs, params, cfg).probs
        assert np.array_equal(a, b)
        # nor are the rows of an input the variant does not read compared
        assert np.array_equal(model.predict_probs(params, cfg, segs, imgs[:1]), a)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_non_finite_input_gives_non_finite_probs(self, variant):
        # ReLU must pass NaN through: corrupt input may not come out as plausible probabilities
        cfg = tiny_config(variant)
        params = model.init_params(cfg, ops.make_rng(12))
        segs, imgs = tiny_inputs(np.random.default_rng(17))
        bad_segs, bad_imgs = segs.copy(), imgs.copy()
        bad_segs[:, 2] = np.inf
        bad_imgs[:, 3, 3] = np.nan
        with np.errstate(invalid="ignore"):
            if cfg.uses_temporal:
                assert not np.isfinite(model.forward(bad_segs, imgs, params, cfg).probs).any()
            if cfg.uses_spatial:
                assert not np.isfinite(model.forward(segs, bad_imgs, params, cfg).probs).any()

    def test_missing_required_input_rejected(self):
        cfg = tiny_config("full")
        params = model.init_params(cfg, ops.make_rng(11))
        with pytest.raises(ValueError):
            model.forward(None, np.zeros((1, 8, 8)), params, cfg)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 8)), None, params, cfg)


class TestPredict:
    @staticmethod
    def predict_in_chunks(monkeypatch):
        """(segs, imgs, float64 forward probs, predict_probs probs, the
        (segs, imgs) chunk of every forward call predict_probs made)."""
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(13))
        segs, imgs = tiny_inputs(np.random.default_rng(22), n=2 * model.PREDICT_ROWS + 5)
        whole = model.forward(segs, imgs, params, cfg).probs
        seen = []
        real_forward = model.forward

        def recording_forward(s, i, p, c, **kwargs):
            seen.append((s, i))
            return real_forward(s, i, p, c, **kwargs)

        monkeypatch.setattr(model, "forward", recording_forward)
        return segs, imgs, whole, model.predict_probs(params, cfg, segs, imgs), seen

    def test_chunks_bounded_and_in_order(self, monkeypatch):
        # on the float64 path, where a chunk is the very rows it was given
        monkeypatch.setattr(model, "COMPUTE_DTYPE", np.float64)
        segs, imgs, whole, probs, seen = self.predict_in_chunks(monkeypatch)
        # a chunk starts every PREDICT_ROWS rows and the last takes the remainder
        assert [len(s) for s, _i in seen] == [model.PREDICT_ROWS, model.PREDICT_ROWS + 5]
        assert np.array_equal(np.concatenate([s for s, _i in seen]), segs)
        assert np.array_equal(np.concatenate([i for _s, i in seen]), imgs)
        # a row's probabilities can move in the last bit with the batch size
        assert np.allclose(probs, whole, rtol=0, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=1), whole.argmax(axis=1))

    def test_float32_chunks_cover_rows_in_order(self, monkeypatch):
        segs, imgs, whole, probs, seen = self.predict_in_chunks(monkeypatch)
        assert all(len(s) < 2 * model.PREDICT_ROWS and s.dtype == i.dtype == np.float32 for s, i in seen)
        assert np.array_equal(np.concatenate([s for s, _i in seen]), segs.astype(np.float32))
        assert np.array_equal(np.concatenate([i for _s, i in seen]), imgs.astype(np.float32))
        assert probs.dtype == np.float64
        assert np.array_equal(probs.argmax(axis=1), whole.argmax(axis=1))

    def test_float32_chunks_are_views_of_the_rows(self, monkeypatch):
        # over all rows, inputs already in COMPUTE_DTYPE are read in place, not copied
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(13))
        segs, imgs = (x.astype(np.float32) for x in tiny_inputs(np.random.default_rng(22), n=2 * model.PREDICT_ROWS + 5))
        seen = []
        real_forward = model.forward

        def recording_forward(s, i, p, c, **kwargs):
            seen.append(np.shares_memory(s, segs) and np.shares_memory(i, imgs))
            return real_forward(s, i, p, c, **kwargs)

        monkeypatch.setattr(model, "forward", recording_forward)
        model.predict_probs(params, cfg, segs, imgs)
        assert seen == [True, True]

    def test_row_index_predicts_those_rows(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(16))
        segs, imgs = tiny_inputs(np.random.default_rng(25), n=2 * model.PREDICT_ROWS + 5)
        rows = np.random.default_rng(26).permutation(len(segs))[: model.PREDICT_ROWS + 3]
        probs = model.predict_probs(params, cfg, segs, imgs, rows)
        assert probs.tobytes() == model.predict_probs(params, cfg, segs[rows], imgs[rows]).tobytes()
        assert model.predict_probs(params, cfg, segs, imgs, rows[:0]).shape == (0, 2)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_zero_rows_give_empty_probs(self, variant):
        cfg = tiny_config(variant, num_classes=3)
        params = model.init_params(cfg, ops.make_rng(14))
        segs, imgs = tiny_inputs(np.random.default_rng(23), n=0)
        segs = segs if cfg.uses_temporal else None
        imgs = imgs if cfg.uses_spatial else None
        assert model.predict_probs(params, cfg, segs, imgs).shape == (0, 3)
        # predict_probs returns before the model runs; forward itself must cope too
        assert model.forward(segs, imgs, params, cfg).probs.shape == (0, 3)

    @pytest.mark.parametrize("variant", ["full", "no_dual_attention", "no_cross_channel"])
    def test_row_count_mismatch_rejected(self, variant):
        cfg = tiny_config(variant)
        params = model.init_params(cfg, ops.make_rng(15))
        segs, imgs = tiny_inputs(np.random.default_rng(24), n=5)
        with pytest.raises(ShapeMismatchError):
            model.predict_probs(params, cfg, segs, imgs[:3])
        with pytest.raises(ShapeMismatchError):
            model.forward(segs[:3], imgs, params, cfg)


class TestPredictBytes:
    """`predict_probs` gives the bytes of one `forward` over all the rows,
    whatever the chunk size: a chunk starts every `PREDICT_ROWS` rows and
    the last takes the remainder, so no row is run alone (a one-row matrix
    is multiplied as a matrix-vector product, which rounds differently). A
    spatial block of a multiple of 8 rows only splits the columns of the
    conv GEMMs where they keep their bytes; single-row blocks changed them
    at this width. On the paper-default layer sizes, in float32, as
    prediction runs them."""

    ROWS = (1, 7, 8, 9, 33, 65, 100, 130)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_same_bytes_as_one_forward(self, monkeypatch, variant):
        cfg = model.ModelConfig(num_classes=3, variant=variant)
        params = model.init_params(cfg, ops.make_rng(19))
        rng = np.random.default_rng(29)
        segs = rng.standard_normal((max(self.ROWS), 32)).astype(np.float32)
        imgs = rng.standard_normal((max(self.ROWS), 32, 32)).astype(np.float32)
        order = rng.permutation(len(segs))
        for n in self.ROWS:
            rows = order[:n]
            whole = model.forward(segs[:n], imgs[:n], params, cfg).probs
            picked = model.forward(segs[rows], imgs[rows], params, cfg).probs
            assert np.array_equal(model.forward(segs[:n], imgs[:n], params, cfg, record=False).probs, whole)
            for name, value in (("SPATIAL_ROWS", 16), ("PREDICT_ROWS", 64), ("PREDICT_ROWS", 128),
                                (None, None)):
                with monkeypatch.context() as m:
                    if name:
                        m.setattr(model, name, value)
                    assert np.array_equal(model.predict_probs(params, cfg, segs[:n], imgs[:n]), whole), (n, name)
                    assert np.array_equal(model.predict_probs(params, cfg, segs, imgs, rows), picked), (n, name)


class TestUnrecordedForward:
    """`forward(record=False)` keeps no tape and computes the same bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_same_logits_and_probs(self, variant, dtype):
        cfg = tiny_config(variant, num_classes=3)
        params = model.init_params(cfg, ops.make_rng(16))
        segs, imgs = (a.astype(dtype) for a in tiny_inputs(np.random.default_rng(25), n=5))
        recorded = model.forward(segs, imgs, params, cfg)
        bare = model.forward(segs, imgs, params, cfg, record=False)
        assert bare.tapes is None and recorded.tapes is not None
        assert bare.logits.dtype == recorded.logits.dtype == dtype
        assert np.array_equal(bare.logits, recorded.logits)
        assert np.array_equal(bare.probs, recorded.probs)

    def test_backward_rejects_unrecorded_trace(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(17))
        segs, imgs = tiny_inputs(np.random.default_rng(26), n=2)
        trace = model.forward(segs, imgs, params, cfg, record=False)
        with pytest.raises(ValueError, match="record=True"):
            model.backward_cross_entropy(trace, optim.one_hot([0, 1], 2), params, cfg)

    def test_bilstm_records_only_with_a_tape(self, monkeypatch):
        calls = []
        bilstm_forward = ops.bilstm_forward

        def spy(*args, **kwargs):
            out = bilstm_forward(*args, **kwargs)
            calls.append((kwargs.get("record", True), out[1] is None))
            return out

        monkeypatch.setattr(ops, "bilstm_forward", spy)
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(19))
        segs, imgs = tiny_inputs(np.random.default_rng(29), n=3)
        model.forward(segs, imgs, params, cfg)
        model.predict_probs(params, cfg, segs, imgs)
        assert calls == [(True, False), (False, True)]

    def test_predict_peak_memory(self):
        # the largest chunk predict_probs makes, 2·PREDICT_ROWS − 1 = 63 rows
        # of w=140, on the paper-default model: numpy's peak allocation is
        # 16.1 MB without a tape, with the spatial branch in 8-row blocks and
        # a BiLSTM that keeps one 16-step block of gates (numpy 2.4). It was
        # 42 MB while the BiLSTM kept every step's gates, c and tanh(c), and
        # a 32-row chunk took 54 MB with every stage's cache on a tape
        cfg = model.ModelConfig(num_classes=5)
        params = model.init_params(cfg, ops.make_rng(18))
        n = 2 * model.PREDICT_ROWS - 1
        segs = np.random.default_rng(27).standard_normal((n, 140))
        imgs = np.random.default_rng(28).standard_normal((n, 140, 140)).astype(np.float32)
        first = model.predict_probs(params, cfg, segs, imgs)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = model.predict_probs(params, cfg, segs, imgs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(probs, first)
        assert peak < 20 * 2**20, peak / 2**20


class _Token:
    """A weak-referenceable marker put beside a stage's cache."""


class TestConsumedTrace:
    """`backward` consumes the trace: each stage's cache is freed as soon as
    its backward has run, and the trace cannot be replayed twice."""

    def test_second_backward_raises(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(34))
        segs, imgs = tiny_inputs(np.random.default_rng(35), n=2)
        trace = model.forward(segs, imgs, params, cfg)
        y = optim.one_hot([0, 1], 2)
        model.backward_cross_entropy(trace, y, params, cfg)
        assert trace.tapes is None
        with pytest.raises(ValueError, match="consumed"):
            model.backward_cross_entropy(trace, y, params, cfg)

    @pytest.mark.parametrize("input_grads", [True, False])
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_each_cache_is_freed_once_its_backward_has_run(self, monkeypatch, variant, input_grads):
        tokens = []  # a weak reference to each stage's marker, in forward order
        ran = []  # the markers' indices, in the order their stages ran backward
        alive_at_call = []  # per backward call: the earlier-run stages whose marker lives
        real_layout = model._layout

        def tracked(stage):
            def forward(x, *values, **kwargs):
                y, cache = stage.forward(x, *values, **kwargs)
                token = _Token()
                tokens.append(weakref.ref(token))
                return y, (cache, token, len(tokens) - 1)

            def backward(g, wrapped, **kwargs):
                cache, _token, index = wrapped
                alive_at_call.append([i for i in ran if tokens[i]() is not None])
                ran.append(index)
                return stage.backward(g, cache, **kwargs)

            return stage._replace(forward=forward, backward=backward)

        def tracked_layout(cfg, *args):
            branches, head = real_layout(cfg, *args)
            return [b._replace(stages=[tracked(st) for st in b.stages]) for b in branches], [tracked(st) for st in head]

        monkeypatch.setattr(model, "_layout", tracked_layout)
        cfg = tiny_config(variant, num_classes=3)
        params = model.init_params(cfg, ops.make_rng(36))
        segs, imgs = (a.astype(np.float32) for a in tiny_inputs(np.random.default_rng(37), n=4))
        trace = model.forward(segs, imgs, params, cfg)
        model.backward_cross_entropy(trace, optim.one_hot([0, 1, 2, 1], 3), params, cfg, input_grads=input_grads)
        assert ran and all(alive == [] for alive in alive_at_call)
        assert all(ref() is None for ref in tokens)  # the stages that never ran backward too

    def test_training_step_peak_memory(self):
        # three training steps of the paper-default model at batch 8, w=140,
        # then the validation pass over the 24 rows: numpy's peak allocation
        # was 32.8 MiB while a step held two tapes (the previous step's until
        # the next forward had returned, and every stage's cache until the
        # backward had ended) and is 22.5 MiB with one, consumed by the
        # backward as it runs (tracemalloc, numpy 2.4)
        n = 24
        cfg = model.ModelConfig(num_classes=5)
        segs = np.random.default_rng(40).standard_normal((n, 140))
        imgs = np.random.default_rng(41).standard_normal((n, 140, 140)).astype(np.float32)
        labels = np.arange(n) % 5
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            optim.train(cfg, segs, imgs, labels, optim.TrainConfig(epochs=1, batch_size=8, val_fraction=0.0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 27 * 2**20, peak / 2**20


def floating_dtypes(obj):
    """The dtypes of every floating array or numpy scalar inside nested
    tuples, lists and dicts."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return {obj.dtype} if obj.dtype.kind == "f" else set()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return set().union(*(floating_dtypes(o) for o in obj))
    return set()


class TestComputeDtype:
    """float32 inputs run the whole model in float32 over float64 master
    parameters; only the final softmax and the loss gradient are float64."""

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_float32_does_not_leak_to_float64(self, monkeypatch, variant):
        outputs = []
        real_layout = model._layout

        def recording(stage):
            def forward(x, *values):
                y, cache = stage.forward(x, *values)
                outputs.append(y)
                return y, cache
            return stage._replace(forward=forward)

        def recording_layout(cfg, *args):
            branches, head = real_layout(cfg, *args)
            return ([b._replace(stages=[recording(st) for st in b.stages]) for b in branches],
                    [recording(st) for st in head])

        monkeypatch.setattr(model, "_layout", recording_layout)
        cfg = tiny_config(variant, num_classes=3)
        params = model.init_params(cfg, ops.make_rng(20))
        segs, imgs = (a.astype(np.float32) for a in tiny_inputs(np.random.default_rng(32), n=4))
        trace = model.forward(segs, imgs, params, cfg)
        caches = [cache for tape in trace.tapes for _fn, cache, _names in tape]  # backward consumes the tapes
        grads = model.backward_cross_entropy(trace, optim.one_hot([0, 1, 2, 1], 3), params, cfg)
        assert floating_dtypes(caches) == {np.dtype(np.float32)}
        assert floating_dtypes(outputs) == {np.dtype(np.float32)} and trace.logits.dtype == np.float32
        assert floating_dtypes([g for g in grads if g is not None]) == {np.dtype(np.float32)}
        assert trace.probs.dtype == np.float64
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) <= 1e-12
        assert all(p.value.dtype == p.grad.dtype == np.float64 for _, p in params.items())

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_float32_agrees_with_float64(self, variant):
        # Measured here over the five variants: probabilities differ by at most
        # 1.9e-8 and each parameter gradient by at most 9.7e-7 of its largest
        # entry; on the paper-default model (8 rows, w=140) 2.8e-8 and 2.3e-6.
        cfg = tiny_config(variant, num_classes=3)
        segs, imgs = tiny_inputs(np.random.default_rng(33), n=4)
        y = optim.one_hot([0, 1, 2, 1], 3)
        runs = []
        for dtype in (np.float64, np.float32):
            params = model.init_params(cfg, ops.make_rng(21))
            trace = model.forward(segs.astype(dtype), imgs.astype(dtype), params, cfg)
            model.backward_cross_entropy(trace, y, params, cfg, input_grads=False)
            runs.append((trace.probs, {name: p.grad for name, p in params.items()}))
        (p64, g64), (p32, g32) = runs
        assert np.max(np.abs(p32 - p64)) <= 1e-6
        for name, g in g64.items():
            assert np.max(np.abs(g32[name] - g)) <= 1e-4 * np.max(np.abs(g)), name


class TestFullModelGradient:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_input_gradients(self, variant):
        cfg = tiny_config(variant)
        params = model.init_params(cfg, ops.make_rng(12))
        rng = np.random.default_rng(17)
        segs, imgs = tiny_inputs(rng, n=2)
        y = optim.one_hot([0, 1], 2)

        arrays = []
        if cfg.uses_temporal:
            arrays.append(segs)
        if cfg.uses_spatial:
            arrays.append(imgs)

        def loss(*args):
            it = iter(args)
            s = next(it) if cfg.uses_temporal else None
            m = next(it) if cfg.uses_spatial else None
            trace = model.forward(s, m, params, cfg)
            return optim.cross_entropy(trace.probs, y)

        trace = model.forward(
            segs if cfg.uses_temporal else None, imgs if cfg.uses_spatial else None, params, cfg
        )
        params.zero_grad()
        gsegs, gimgs = model.backward_cross_entropy(trace, y, params, cfg)
        analytic = [g for g in (gsegs, gimgs) if g is not None]

        eps = 1e-6
        worst = 0.0
        probe_rng = np.random.default_rng(18)
        for arr, grad in zip(arrays, analytic):
            for _ in range(10):
                idx = tuple(probe_rng.integers(0, d) for d in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss(*arrays)
                arr[idx] = orig - eps
                lo = loss(*arrays)
                arr[idx] = orig
                numeric = (hi - lo) / (2 * eps)
                a = grad[idx]
                worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
        assert worst < 1e-4

    def test_parameter_gradients_full_variant(self):
        cfg = tiny_config("full")
        params = model.init_params(cfg, ops.make_rng(13))
        rng = np.random.default_rng(19)
        segs, imgs = tiny_inputs(rng, n=2)
        y = optim.one_hot([1, 0], 2)

        def loss():
            trace = model.forward(segs, imgs, params, cfg)
            return optim.cross_entropy(trace.probs, y)

        params.zero_grad()
        trace = model.forward(segs, imgs, params, cfg)
        model.backward_cross_entropy(trace, y, params, cfg)

        eps = 1e-6
        probe_rng = np.random.default_rng(20)
        worst = 0.0
        for name, p in params.items():
            flat = p.value.reshape(-1)
            for _ in range(3):
                j = int(probe_rng.integers(0, flat.size))
                orig = flat[j]
                flat[j] = orig + eps
                hi = loss()
                flat[j] = orig - eps
                lo = loss()
                flat[j] = orig
                numeric = (hi - lo) / (2 * eps)
                a = p.grad.reshape(-1)[j]
                worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
        assert worst < 1e-4


class TestInputGradOptOut:
    """Training skips the segment and image gradients; the parameter
    gradients it gets are the bytes the default backward gives."""

    @pytest.mark.parametrize(
        "cfg",
        [tiny_config(v) for v in model.VARIANTS] + [replace(tiny_config("time_only"), cnn1d_layers=())],
        ids=list(model.VARIANTS) + ["bilstm_first"],
    )
    def test_same_parameter_gradients(self, cfg):
        segs, imgs = tiny_inputs(np.random.default_rng(30))
        y = optim.one_hot([0, 1, 1], 2)
        grads = {}
        for input_grads in (True, False):
            params = model.init_params(cfg, ops.make_rng(14))
            trace = model.forward(segs if cfg.uses_temporal else None, imgs if cfg.uses_spatial else None, params, cfg)
            out = model.backward_cross_entropy(trace, y, params, cfg, input_grads=input_grads)
            grads[input_grads] = {name: p.grad for name, p in params.items()}
        assert out == (None, None)  # of the input_grads=False pass
        for name, g in grads[True].items():
            assert np.array_equal(grads[False][name], g), name

    def test_train_skips_input_gradients(self, monkeypatch):
        seen = []

        def recording(original):
            def backward(g, cache, **kwargs):
                seen.append(kwargs.get("input_grad", True))
                return original(g, cache, **kwargs)
            return backward

        monkeypatch.setattr(ops, "conv1d_backward", recording(ops.conv1d_backward))
        monkeypatch.setattr(ops, "conv2d_backward", recording(ops.conv2d_backward))
        segs, imgs = tiny_inputs(np.random.default_rng(31), n=6)
        labels = np.arange(6) % 2
        optim.train(tiny_config(), segs, imgs, labels, optim.TrainConfig(epochs=1, batch_size=3, val_fraction=0.0))
        # each of the two steps replays the first (and only) conv of each branch
        assert seen == [False] * 4


class TestSerialization:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_round_trip(self, tmp_path, variant):
        cfg = tiny_config(variant, num_classes=3)
        params = model.init_params(cfg, ops.make_rng(14))
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params, ["a", "b", "c"])
        cfg2, stored, params2 = model.load_model(path)
        assert cfg2 == cfg and stored == (8, ["a", "b", "c"])
        for (name, p), (name2, p2) in zip(params.items(), params2.items()):
            assert name == name2
            assert np.array_equal(p.value, p2.value)

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(15))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        model.save_model(a, cfg, 8, params)
        cfg2, stored, params2 = model.load_model(a)
        assert stored == (8, ["0", "1"])  # class ids when no names are given
        model.save_model(b, cfg2, stored.input_len, params2, stored.class_names)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            model.load_model(path)

    def test_truncated_rejected(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(16))
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params)
        blob = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError):
            model.load_model(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(17))
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params)
        padded = tmp_path / "padded.bin"
        padded.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError):
            model.load_model(padded)

    def test_version_1_rejected(self, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(model.MODEL_MAGIC + struct.pack("<H", 1) + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="version 1"):
            model.load_model(path)

    @staticmethod
    def saved_with_header(tmp_path, edit=None, raw=None):
        """A tiny model file whose JSON header went through `edit(header)`,
        or was replaced by the bytes `raw`; the payload is kept."""
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(20))
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params)
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 6)
        if raw is None:
            header = json.loads(blob[10 : 10 + n])
            edit(header)
            raw = json.dumps(header).encode()
        path.write_bytes(blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + n :])
        return path

    @pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_unreadable_header_rejected(self, tmp_path, raw):
        with pytest.raises(DataFormatError, match="bad model header"):
            model.load_model(self.saved_with_header(tmp_path, raw=raw))

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["model"].update(groups=4), "groups must divide"),  # d_t = 6
        (lambda h: h["model"].update(dropout=0.5), "dropout"),
        (lambda h: h["model"].pop("num_classes"), "num_classes"),
        (lambda h: h["model"].update(variant="nope"), "unknown variant"),
        (lambda h: h["model"].update(cnn2d_layers=[[4, 3]]), "cnn2d_layers"),
        (lambda h: h.pop("input_len"), "input_len"),
        (lambda h: h.update(input_len="8"), "input_len"),
        (lambda h: h.update(input_len=True), "input_len"),
        (lambda h: h["model"].update(lstm_hidden=True), "lstm_hidden"),
        (lambda h: h["model"].update(groups=True), "groups"),
        (lambda h: h["tensors"][0].__setitem__(1, [4, 1, 5]), "tensor table"),
        (lambda h: h["tensors"].pop(), "tensor table"),
        (lambda h: h["model"].update(num_classes=3), "class_names"),
        (lambda h: h.update(class_names=["only"]), "class_names"),
        (lambda h: h.update(class_names=[1, 2]), "class_names"),
    ])
    def test_bad_header_fields_rejected(self, tmp_path, edit, match):
        with pytest.raises(DataFormatError, match=match):
            model.load_model(self.saved_with_header(tmp_path, edit=edit))

    def test_header_length_past_end_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, model.init_params(cfg, ops.make_rng(0)))
        blob = path.read_bytes()
        path.write_bytes(blob[:6] + struct.pack("<I", len(blob)) + blob[10:])
        with pytest.raises(DataFormatError, match="truncated"):
            model.load_model(path)

    def test_save_rejects_wrong_class_name_count(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="3 class names for 2 classes"):
            model.save_model(tmp_path / "m.bin", cfg, 8, model.init_params(cfg, ops.make_rng(0)), ["a", "b", "c"])
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_file(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(19))
        path = tmp_path / "model.bin"
        model.save_model(path, cfg, 8, params)
        before = path.read_bytes()

        class FailingParams:
            """Gives the tensor table, then fails on the payload as a full disk would."""

            shapes = params.shapes

            @property
            def values(self):
                raise OSError("no space left on device")

        with pytest.raises(OSError):
            model.save_model(path, cfg, 8, FailingParams())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

    def test_loaded_model_predicts_identically(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(18))
        rng = np.random.default_rng(21)
        segs, imgs = tiny_inputs(rng)
        before = model.predict_probs(params, cfg, segs, imgs)
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params)
        cfg2, _, params2 = model.load_model(path)
        after = model.predict_probs(params2, cfg2, segs, imgs)
        assert np.array_equal(before, after)


_TEMPORAL_NAMES = ["conv1.0.w", "conv1.0.b", "lstm.f.w_x", "lstm.f.w_h", "lstm.f.b",
                   "lstm.b.w_x", "lstm.b.w_h", "lstm.b.b"]
_SPATIAL_NAMES = ["conv2.0.w", "conv2.0.b"]
_ATTN_NAMES = ["attn.t.wq", "attn.t.wk", "attn.t.wv", "attn.s.wq", "attn.s.wk", "attn.s.wv",
               "attn.t.wo_intra", "attn.s.wo_intra"]
_CROSS_NAMES = ["attn.t.wo_cross", "attn.s.wo_cross"]
_LN_NAMES = ["ln.t.gain", "ln.t.bias", "ln.s.gain", "ln.s.bias"]
_HEAD_NAMES = ["mlp.w1", "mlp.b1", "cls.w", "cls.b"]

# Parameter order, file digest and tensor-payload digest of
# `save_model(init_params(tiny_config(v), make_rng(0)))`. PCG64 uniform draws
# and the explicit little-endian payload make these independent of platform
# and BLAS. The payload digests were computed from `init_params` before the
# file's header became JSON, so they pin the RNG draw order of init across
# that format change.
LAYOUT = {
    "full": (
        _TEMPORAL_NAMES + _SPATIAL_NAMES + _ATTN_NAMES + _CROSS_NAMES + _LN_NAMES + _HEAD_NAMES,
        "78ddaefae6cd45f6d98c9b12c0977f56929504b8f3900495520046c9ce33b53e",
        "0dd1b0dc7c99a172a17e2774b258377781cfd4a98b382bcdf49e7fcf6af6fd97",
    ),
    "no_dual_attention": (
        _TEMPORAL_NAMES + _SPATIAL_NAMES + _HEAD_NAMES,
        "db7d036681a5d0dd59e42331a620ea8a3f3b3e5b8c5082f1911a983d492f0cf7",
        "27519f003c44269bb7a998099086a4d994f5b4cacc81e492c5111ba9f68e98f2",
    ),
    "no_cross_channel": (
        _TEMPORAL_NAMES + _SPATIAL_NAMES + _ATTN_NAMES + _LN_NAMES + _HEAD_NAMES,
        "99f777f84f20ef7594e112cd601354a5ba7f7b994fe8b347d25ce13d01f4a8ed",
        "e894d878bb23c4342be3e66bd1189c9c693e664281f2af42922cf295fa509b49",
    ),
    "time_only": (
        _TEMPORAL_NAMES + _HEAD_NAMES,
        "338269aca3a39079e081226fffd814727b0bf196b7f94f5ce97ea90b9eea6130",
        "954c87d75e26a80266d3f053e29abddbfd65343e8c6e323415282c5eafab9c79",
    ),
    "gaf_only": (
        _SPATIAL_NAMES + _HEAD_NAMES,
        "43dab65f1151648f8b46b2525cb56acf59c1a692ec87d0d33a9ae0655b892913",
        "148008a5bf7e9404f2014ebfd7285d90cee73eedf8acba0f9944b2e2ede6136f",
    ),
}


class TestLayout:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_param_order_and_file_digest(self, tmp_path, variant):
        cfg = tiny_config(variant)
        params = model.init_params(cfg, ops.make_rng(0))
        names, digest, payload_digest = LAYOUT[variant]
        assert [name for name, _ in params.items()] == names
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 8, params)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
        payload = blob[len(blob) - sum(p.value.nbytes for _, p in params.items()) :]
        assert hashlib.sha256(payload).hexdigest() == payload_digest


class TestParamShapes:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_every_draw_has_its_declared_shape(self, variant):
        cfg = tiny_config(variant, num_classes=3)
        assert model.param_shapes(cfg) == model.init_params(cfg, ops.make_rng(0)).shapes

    def test_numpy_integer_layers_draw_the_same_values(self):
        # a fan-in computed from numpy integers is still a draw, not a constant
        cfg = model.ModelConfig(num_classes=3, cnn1d_layers=((4, 3), (6, 5)), lstm_hidden=3,
                                cnn2d_layers=((4, 3, 2), (8, 3, 1)), groups=2, d_attn=4, mlp_hidden=8)
        numpy_cfg = replace(cfg, **{key: tuple(tuple(np.int64(v) for v in layer) for layer in getattr(cfg, key))
                                    for key in ("cnn1d_layers", "cnn2d_layers")})
        want = model.init_params(cfg, ops.make_rng(4))
        got = model.init_params(numpy_cfg, ops.make_rng(4))
        assert got.shapes == want.shapes
        assert got.values.tobytes() == want.values.tobytes()

    def test_load_model_draws_nothing(self, tmp_path, monkeypatch):
        cfg = model.ModelConfig(num_classes=5)  # numpy integers in the layer tuples too
        cfg = replace(cfg, cnn2d_layers=tuple(tuple(np.int64(v) for v in l) for l in cfg.cnn2d_layers))
        params = model.init_params(cfg, ops.make_rng(3))
        path = tmp_path / "m.bin"
        model.save_model(path, cfg, 140, params)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew random values")

        monkeypatch.setattr(model, "init_params", no_draw)
        monkeypatch.setattr(ops, "uniform_init", no_draw)
        _cfg, _stored, loaded = model.load_model(path)
        assert loaded.shapes == params.shapes and np.array_equal(loaded.values, params.values)
        assert all(type(n) is int for shape in loaded.shapes.values() for n in shape)


class TestFlatParams:
    """`ModelParams` keeps every tensor in one float64 vector; `params[name]`
    is a pair of views into it and into the gradient vector."""

    def test_every_tensor_views_the_flat_vectors(self):
        params = model.init_params(tiny_config(), ops.make_rng(0))
        pieces = []
        for name, p in params.items():
            assert p.value.shape == p.grad.shape == params.shapes[name]
            assert np.shares_memory(p.value, params.values) and np.shares_memory(p.grad, params.grads)
            pieces.append(p.value.ravel())
        # laid out back to back in `init_params` order, covering the whole vector
        assert np.array_equal(np.concatenate(pieces), params.values)
        params["cls.b"].value[...] = 7.0
        params["cls.b"].grad[...] = 3.0
        assert params.values[-1] == 7.0 and params.grads[-1] == 3.0

    def test_tensor_cannot_be_rebound(self):
        params = model.init_params(tiny_config(), ops.make_rng(0))
        with pytest.raises(AttributeError):
            params["cls.b"].value = np.zeros(2)
        with pytest.raises(AttributeError):
            params["cls.b"].grad = np.zeros(2)

    def test_zero_grad_clears_every_tensor(self):
        params = model.ModelParams({"w": (2, 3)}, np.arange(6.0))
        assert params["w"].grad.shape == (2, 3)
        params["w"].grad[...] += 1.0
        params.zero_grad()
        assert np.array_equal(params["w"].grad, np.zeros((2, 3)))
        assert np.array_equal(params["w"].value, np.arange(6.0).reshape(2, 3))

    def test_copy_shares_no_memory(self):
        params = model.init_params(tiny_config(), ops.make_rng(0))
        dup = params.copy()
        assert np.array_equal(dup.values, params.values) and dup.shapes == params.shapes
        assert not np.shares_memory(dup.values, params.values)
        assert not np.shares_memory(dup.grads, params.grads)
        dup["cls.b"].value[...] += 1.0
        assert not np.array_equal(dup["cls.b"].value, params["cls.b"].value)

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ShapeMismatchError):
            model.ModelParams({"w": (2, 3)}, np.zeros(5))

    def test_file_payload_is_the_value_vector(self, tmp_path):
        params = model.init_params(tiny_config(), ops.make_rng(0))
        path = tmp_path / "m.bin"
        model.save_model(path, tiny_config(), 8, params)
        blob = path.read_bytes()
        _magic, _version, header_len = struct.unpack_from("<4sHI", blob)
        assert blob[struct.calcsize("<4sHI") + header_len :] == params.values.astype("<f8").tobytes()


class TestInit:
    def test_seed_determinism(self):
        cfg = tiny_config()
        a = model.init_params(cfg, ops.make_rng(42))
        b = model.init_params(cfg, ops.make_rng(42))
        for (name, pa), (_, pb) in zip(a.items(), b.items()):
            assert np.array_equal(pa.value, pb.value), name

    def test_forget_gate_bias(self):
        cfg = tiny_config()
        params = model.init_params(cfg, ops.make_rng(0))
        h = cfg.lstm_hidden
        for tag in ("f", "b"):
            bias = params[f"lstm.{tag}.b"].value
            assert np.array_equal(bias[h : 2 * h], np.ones(h))
            assert np.array_equal(bias[:h], np.zeros(h))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(num_classes=1)
        with pytest.raises(ValueError):
            model.ModelConfig(num_classes=2, lstm_hidden=3, cnn2d_layers=((4, 3, 2),), groups=5)
        with pytest.raises(ValueError):
            tiny_config("nonexistent")
        # each fails at construction with the key named, not at the first forward
        cases = [
            ("cnn2d_layers", ()),
            ("cnn1d_layers", ((4, 3, 1),)),
            ("cnn1d_layers", ((4, 4),)),
            ("cnn1d_layers", ((4, -1),)),
            ("cnn1d_layers", ((0, 3),)),
            ("cnn2d_layers", ((4, 3, 0),)),
            ("cnn2d_layers", ((0, 3, 2),)),
            ("cnn2d_layers", ((4, 0, 2),)),
            ("cnn2d_layers", ((4, 3),)),
            ("cnn2d_layers", ((4, 3.0, 2),)),
            ("lstm_hidden", 0),
            # a bool is not an integer, though Python counts True as 1
            ("num_classes", True),
            ("lstm_hidden", True),
            ("groups", True),
            ("d_attn", True),
            ("mlp_hidden", True),
            ("cnn1d_layers", ((True, 3),)),
            ("cnn1d_layers", ((4, True),)),
            ("cnn2d_layers", ((4, 3, True),)),
        ]
        for key, value in cases:
            with pytest.raises(ConfigError, match=key):
                replace(tiny_config(), **{key: value})
