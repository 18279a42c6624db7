"""Loss, schedule, Adam, and training-loop tests."""

import tracemalloc

import numpy as np
import pytest

from gafnet import model, ops, optim, pipeline
from gafnet.errors import GafnetError, ShapeMismatchError


def tiny_config(variant="full"):
    return model.ModelConfig(
        num_classes=2,
        cnn1d_layers=((4, 3),),
        lstm_hidden=3,
        cnn2d_layers=((4, 3, 2),),
        groups=2,
        d_attn=4,
        mlp_hidden=8,
        variant=variant,
    )


class TestCrossEntropy:
    def test_uniform_is_log_c(self):
        for c in (2, 3, 5):
            probs = np.full((4, c), 1.0 / c)
            y = optim.one_hot(np.zeros(4, dtype=int), c)
            assert abs(optim.cross_entropy(probs, y) - np.log(c)) < 1e-9

    def test_hand_value(self):
        loss = optim.cross_entropy([[0.8, 0.2]], [[1.0, 0.0]])
        assert abs(loss - 0.22314355131) < 1e-9

    def test_batch_mean(self):
        probs = np.array([[0.8, 0.2], [0.5, 0.5]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = (-np.log(0.8) - np.log(0.5)) / 2
        assert abs(optim.cross_entropy(probs, y) - expected) < 1e-9

    def test_perfect_prediction_near_zero(self):
        assert optim.cross_entropy([[1.0, 0.0]], [[1.0, 0.0]]) < 1e-9

    def test_requires_one_hot(self):
        with pytest.raises(ValueError):
            optim.cross_entropy([[0.5, 0.5]], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            optim.cross_entropy([[0.5, 0.5]], [[1.0, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            optim.cross_entropy(np.ones((2, 3)) / 3, np.eye(2))

    def test_gradient_closed_form(self):
        # chain -y/p through the softmax Jacobian and compare with (p - y)/B
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 4))
        y = optim.one_hot(rng.integers(0, 4, size=5), 4)
        probs, sm_cache = ops.softmax_forward(logits, axis=-1)
        gprobs = -y / (probs + optim.LOG_EPS) / 5
        (glogits,) = ops.softmax_backward(gprobs, sm_cache)
        assert np.allclose(glogits, (probs - y) / 5, atol=1e-9)


class TestOneHot:
    def test_example(self):
        assert np.array_equal(optim.one_hot([1, 0, 2], 3), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_rows_sum_to_one(self):
        y = optim.one_hot(np.random.default_rng(1).integers(0, 7, size=30), 7)
        assert np.array_equal(y.sum(axis=1), np.ones(30))


class TestSchedule:
    def test_step_zero_is_eta0(self):
        for kind in ("inverse_sqrt", "cosine"):
            cfg = optim.ScheduleConfig(kind=kind, eta0=0.01, total_steps=10)
            assert abs(optim.lr_schedule(0, cfg) - 0.01) < 1e-15

    def test_inverse_sqrt_hand_value(self):
        cfg = optim.ScheduleConfig(kind="inverse_sqrt", eta0=0.5, decay=3.0)
        assert abs(optim.lr_schedule(1, cfg) - 0.25) < 1e-15

    def test_inverse_sqrt_monotone(self):
        cfg = optim.ScheduleConfig(kind="inverse_sqrt")
        lrs = [optim.lr_schedule(t, cfg) for t in range(50)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_midpoint_and_end(self):
        cfg = optim.ScheduleConfig(kind="cosine", eta0=0.2, total_steps=100)
        assert abs(optim.lr_schedule(50, cfg) - 0.1) < 1e-12
        assert abs(optim.lr_schedule(100, cfg)) < 1e-12
        assert abs(optim.lr_schedule(150, cfg)) < 1e-12  # clamps past the horizon

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            optim.lr_schedule(-1, optim.ScheduleConfig())

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            optim.ScheduleConfig(eta0=0.0)
        with pytest.raises(ValueError):
            optim.ScheduleConfig(kind="linear")


def single_param_model():
    return model.ModelParams({"w": (3,)}, np.zeros(3))


def adam_reference(named_values, steps):
    """Bias-corrected Adam as a loop over separate per-tensor arrays, in the
    order of operations `optim.adam_step` keeps for the flat vector. `steps`
    holds one (lr, {name: grad}) per step."""
    values = {name: v.copy() for name, v in named_values}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v = {name: np.zeros_like(x) for name, x in values.items()}
    for t, (lr, grads) in enumerate(steps, start=1):
        bc1 = 1.0 - 0.9**t
        bc2 = 1.0 - 0.999**t
        for name, g in grads.items():
            m[name] *= 0.9
            m[name] += (1.0 - 0.9) * g
            v[name] *= 0.999
            v[name] += (1.0 - 0.999) * g * g
            values[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
    return values, m, v


class TestAdam:
    def test_zero_grad_leaves_value(self):
        params = single_param_model()
        state = optim.AdamState(params)
        optim.adam_step(params, state, lr=0.1)
        assert np.array_equal(params["w"].value, np.zeros(3))

    def test_first_step_hand_value(self):
        # theta=0, g=2: m_hat=2, v_hat=4 -> step = -lr * 2 / (2 + eps)
        params = single_param_model()
        params["w"].grad[...] = 2.0
        state = optim.AdamState(params)
        optim.adam_step(params, state, lr=0.001)
        expected = -0.001 * 2.0 / (2.0 + 1e-8)
        assert np.allclose(params["w"].value, expected, atol=1e-18)

    def test_first_step_magnitude_near_lr(self):
        # bias correction makes the first step ~lr regardless of grad scale
        for scale in (1e-4, 1.0, 1e4):
            params = single_param_model()
            params["w"].grad[...] = scale
            state = optim.AdamState(params)
            optim.adam_step(params, state, lr=0.01)
            assert np.all(np.abs(params["w"].value + 0.01) < 1e-6)

    def test_step_opposes_gradient_sign(self):
        params = single_param_model()
        params["w"].grad[...] = np.array([3.0, -5.0, 0.5])
        state = optim.AdamState(params)
        optim.adam_step(params, state, lr=0.01)
        assert np.all(np.sign(params["w"].value) == [-1.0, 1.0, -1.0])

    def test_moments_accumulate_deterministically(self):
        runs = []
        for _ in range(2):
            params = single_param_model()
            state = optim.AdamState(params)
            for t in range(5):
                params.zero_grad()
                params["w"].grad[...] = np.sin(np.arange(3) + t)
                optim.adam_step(params, state, lr=0.01)
            runs.append(params["w"].value.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_defaults(self):
        assert optim.ADAM_BETA1 == 0.9 and optim.ADAM_BETA2 == 0.999 and optim.ADAM_EPS == 1e-8
        state = optim.AdamState(single_param_model())
        assert state.t == 0 and np.array_equal(state.m, np.zeros(3)) and np.array_equal(state.v, np.zeros(3))

    def test_flat_step_matches_per_tensor_reference_bytes(self):
        params = model.init_params(tiny_config(), ops.make_rng(5))
        start = [(name, p.value.copy()) for name, p in params.items()]
        rng = np.random.default_rng(6)
        state = optim.AdamState(params)
        steps = []
        for step in range(25):
            params.zero_grad()
            # gradients over many scales, some exactly zero
            n = params.grads.size
            params.grads[...] = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)
            params.grads[rng.random(n) < 0.05] = 0.0
            lr = optim.lr_schedule(step, optim.ScheduleConfig())
            steps.append((lr, {name: p.grad.copy() for name, p in params.items()}))
            optim.adam_step(params, state, lr)
        values, m, v = adam_reference(start, steps)
        assert params.values.tobytes() == b"".join(values[name].tobytes() for name, _ in start)
        assert state.m.tobytes() == b"".join(m[name].tobytes() for name, _ in start)
        assert state.v.tobytes() == b"".join(v[name].tobytes() for name, _ in start)


class TestBatchOrder:
    def test_partitions_all_indices(self):
        batches = optim.batch_order(23, 5, seed=0, epoch=1)
        assert sorted(np.concatenate(batches).tolist()) == list(range(23))
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]

    def test_deterministic_per_seed_epoch(self):
        a = optim.batch_order(50, 8, seed=7, epoch=3)
        b = optim.batch_order(50, 8, seed=7, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_differs_across_epochs(self):
        a = np.concatenate(optim.batch_order(50, 8, seed=7, epoch=1))
        b = np.concatenate(optim.batch_order(50, 8, seed=7, epoch=2))
        assert not np.array_equal(a, b)


def toy_training_data(rng, n=16, w=8):
    """Two separable classes: class 1 gets a constant offset."""
    labels = np.arange(n) % 2
    segs = rng.standard_normal((n, w)) * 0.1 + labels[:, None] * 2.0
    imgs = rng.standard_normal((n, w, w)) * 0.1 + labels[:, None, None]
    return segs, imgs, labels


class TestTrainLoop:
    def make_train_cfg(self, **kw):
        kw.setdefault("epochs", 3)
        kw.setdefault("batch_size", 4)
        kw.setdefault("seed", 0)
        return optim.TrainConfig(**kw)

    def test_loss_decreases_on_separable_data(self):
        cfg = tiny_config()
        segs, imgs, labels = toy_training_data(np.random.default_rng(2))
        result = optim.train(cfg, segs, imgs, labels, self.make_train_cfg(epochs=6))
        assert result.history[-1].train_loss < result.history[0].train_loss

    def peak_share_of_images(self, val_fraction):
        """tracemalloc's peak over one epoch of `gaf_only` training at batch 8
        on 800 float32 images of w=48, as a share of the images' bytes."""
        _segs, imgs, labels = toy_training_data(np.random.default_rng(12), n=800, w=48)
        imgs = imgs.astype(np.float32)
        train_cfg = self.make_train_cfg(epochs=1, batch_size=8, val_fraction=val_fraction)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            before = tracemalloc.get_traced_memory()[0]
            optim.train(tiny_config("gaf_only"), None, imgs, labels, train_cfg)
            return (tracemalloc.get_traced_memory()[1] - before) / imgs.nbytes
        finally:
            tracemalloc.stop()

    def test_holds_no_copy_of_the_training_rows(self):
        # A copy of the training rows would be 0.9 of the images (6.6 MB). What
        # stays is about 2 MB that do not grow with the rows: one step and one
        # 32-row prediction chunk.
        share = self.peak_share_of_images(0.1)
        assert share < 0.6, share

    def test_holds_no_copy_of_the_validation_rows(self):
        # Half the rows validate: a copy of them would be 0.5 of the images.
        share = self.peak_share_of_images(0.5)
        assert share < 0.4, share

    def test_history_schema(self):
        cfg = tiny_config()
        segs, imgs, labels = toy_training_data(np.random.default_rng(3))
        result = optim.train(cfg, segs, imgs, labels, self.make_train_cfg())
        assert [r.epoch for r in result.history] == [1, 2, 3]
        assert all(r.lr > 0 and np.isfinite(r.train_loss) for r in result.history)

    def test_seed_determinism_bitwise(self):
        cfg = tiny_config()
        segs, imgs, labels = toy_training_data(np.random.default_rng(4))
        a = optim.train(cfg, segs, imgs, labels, self.make_train_cfg(seed=5))
        b = optim.train(cfg, segs, imgs, labels, self.make_train_cfg(seed=5))
        for (name, pa), (_, pb) in zip(a.params.items(), b.params.items()):
            assert np.array_equal(pa.value, pb.value), name
        assert [(r.train_loss, r.val_accuracy) for r in a.history] == [
            (r.train_loss, r.val_accuracy) for r in b.history
        ]

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        segs, imgs, labels = toy_training_data(np.random.default_rng(5))
        a = optim.train(cfg, segs, imgs, labels, self.make_train_cfg(seed=1))
        b = optim.train(cfg, segs, imgs, labels, self.make_train_cfg(seed=2))
        assert any(not np.array_equal(pa.value, pb.value) for (_, pa), (_, pb) in zip(a.params.items(), b.params.items()))

    def test_checkpoint_policies_both_run(self):
        cfg = tiny_config("time_only")
        segs, _, labels = toy_training_data(np.random.default_rng(6))
        for policy in ("best_validation", "last"):
            result = optim.train(cfg, segs, None, labels, self.make_train_cfg(checkpoint_policy=policy))
            assert len(result.history) == 3

    def test_cosine_without_horizon_anneals_over_the_run(self):
        cfg = tiny_config()
        segs, imgs, labels = toy_training_data(np.random.default_rng(7))
        inputs = pipeline.ModelInputs(segs=segs, imgs=imgs, labels=labels)
        train_cfg = self.make_train_cfg(schedule=optim.ScheduleConfig(kind="cosine"))
        result, _ = pipeline.train_and_evaluate(cfg, inputs, inputs, train_cfg)
        # 14 of the 16 series remain after the validation slice: 4 batches of 4
        # per epoch, so each epoch's last step is 3, 7 and 11 of 12
        horizon = optim.ScheduleConfig(kind="cosine", total_steps=12)
        assert [r.lr for r in result.history] == [optim.lr_schedule(s, horizon) for s in (3, 7, 11)]
        assert all(r.lr > 0 for r in result.history)
        assert train_cfg.schedule.total_steps == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_training(self):
        cfg = tiny_config("time_only")
        segs, _, labels = toy_training_data(np.random.default_rng(8))
        segs[:, 2] = np.inf
        with pytest.raises(GafnetError, match="epoch 1, step 1"):
            optim.train(cfg, segs, None, labels, self.make_train_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_segment_stops_float32_training(self, monkeypatch):
        seen = []
        real_forward = model.forward

        def recording_forward(s, i, p, c, **kwargs):
            seen.append(s.dtype)
            return real_forward(s, i, p, c, **kwargs)

        monkeypatch.setattr(model, "forward", recording_forward)
        cfg = tiny_config("time_only")
        segs, _, labels = toy_training_data(np.random.default_rng(9))
        segs[3, 5] = np.inf  # one sample of one float64 segment
        with pytest.raises(GafnetError, match="non-finite"):
            optim.train(cfg, segs, None, labels, self.make_train_cfg())
        assert seen and set(seen) == {np.dtype(model.COMPUTE_DTYPE)} and model.COMPUTE_DTYPE == np.float32

    def test_non_finite_gradient_stops_training(self, monkeypatch):
        real_backward = model.backward_cross_entropy

        def nan_backward(trace, y, params, cfg, **kwargs):
            real_backward(trace, y, params, cfg, **kwargs)
            params["cls.b"].grad[0] = np.nan  # a finite loss, one non-finite gradient entry

        monkeypatch.setattr(model, "backward_cross_entropy", nan_backward)
        segs, _, labels = toy_training_data(np.random.default_rng(8))
        with pytest.raises(GafnetError, match="epoch 1, step 1"):
            optim.train(tiny_config("time_only"), segs, None, labels, self.make_train_cfg())

    def test_empty_dataset_rejected(self):
        cfg = tiny_config("time_only")
        with pytest.raises(ValueError):
            optim.train(cfg, np.zeros((0, 8)), None, np.zeros(0, dtype=int), self.make_train_cfg())

    def test_history_csv(self, tmp_path):
        history = [optim.EpochRecord(epoch=1, train_loss=0.5, val_accuracy=0.75, lr=0.001)]
        path = tmp_path / "h.csv"
        optim.write_history_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy,lr"
        assert lines[1] == "1,0.5,0.75,0.001"

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.2, float("nan")])
    def test_val_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(ValueError, match="val_fraction"):
            optim.TrainConfig(val_fraction=fraction)

    def test_negative_total_steps_rejected(self):
        with pytest.raises(ValueError, match="total_steps"):
            optim.ScheduleConfig(kind="cosine", total_steps=-5)

    def test_defaults(self):
        cfg = optim.TrainConfig()
        assert cfg.epochs == 100 and cfg.batch_size == 64
        assert cfg.schedule.kind == "inverse_sqrt" and cfg.schedule.eta0 == 0.001
        assert cfg.checkpoint_policy == "best_validation" and cfg.val_fraction == 0.1
