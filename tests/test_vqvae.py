import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pathovc import diffcore as dc
from pathovc import vqvae

from oracles import finite_difference_grad, max_relative_error, nearest_codeword_ref
from synthdata import make_two_speaker_dataset, train_toy_model


def tiny_model(seed=0, dtype="float64", speakers=("A", "B")):
    cfg = vqvae.VqVaeConfig(in_channels=3, hidden=4, latent_dim=2,
                            codebook_size=3, embed_dim=2, param_dtype=dtype)
    m = vqvae.HVqVaeModel(cfg, list(speakers), seed=seed)
    # spread the codebooks out so nearest-neighbour indices are stable
    # under the small perturbations the gradient checks apply
    rng = np.random.default_rng(seed + 100)
    for n in (1, 2, 3):
        m.params[f"codebook{n}"].data = (
            5.0 * rng.normal(size=(3, 2)).astype(m.cfg.dtype))
    m.codebooks_initialized = True
    return m


@pytest.fixture(scope="module")
def trained():
    model, report, data, off_a, off_b = train_toy_model()
    return model, report, data, off_a, off_b


class TestQuantize:
    def test_hand_distance_check(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        q, idx = vqvae.quantize(np.array([[0.9, 0.8]]), cb)
        assert idx.tolist() == [1]
        np.testing.assert_array_equal(q, [[1.0, 1.0]])

    def test_tie_goes_to_lowest_index(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        _, idx = vqvae.quantize(np.array([[0.5, 0.5]]), cb)
        assert idx.tolist() == [0]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        cb = rng.normal(size=(64, 8))
        z = rng.normal(size=(200, 8))
        _, idx = vqvae.quantize(z, cb)
        for t in range(200):
            assert idx[t] == nearest_codeword_ref(z[t], cb)

    def test_rows_are_codebook_members_bit_exact(self):
        rng = np.random.default_rng(1)
        cb = rng.normal(size=(16, 4)).astype(np.float32)
        q, idx = vqvae.quantize(rng.normal(size=(50, 4)).astype(np.float32), cb)
        for t in range(50):
            assert q[t].tobytes() == cb[idx[t]].tobytes()

    def test_empty_codebook_rejected(self):
        with pytest.raises(vqvae.EmptyCodebookError):
            vqvae.quantize(np.ones((3, 2)), np.empty((0, 2)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(dc.ShapeError):
            vqvae.quantize(np.ones((3, 2)), np.ones((4, 5)))


class TestEncode:
    def test_stride_halving_lengths(self):
        m = tiny_model()
        x = np.random.default_rng(2).normal(size=(64, 3))
        us, zs = m.encode(x)
        assert [z.shape for z in zs] == [(32, 2), (16, 2), (8, 2)]
        assert [u.shape for u in us] == [(32, 4), (16, 4), (8, 4)]

    def test_zero_model_zero_activations(self):
        m = tiny_model()
        for name, p in m.params.items():
            if name.startswith("enc"):
                p.data = np.zeros_like(p.data)
        us, zs = m.encode(np.zeros((16, 3)))
        for u, z in zip(us, zs):
            np.testing.assert_array_equal(u, 0.0)
            np.testing.assert_array_equal(z, 0.0)

    def test_repeated_calls_bit_identical(self):
        m = tiny_model(seed=3)
        x = np.random.default_rng(4).normal(size=(40, 3))
        us1, zs1 = m.encode(x)
        us2, zs2 = m.encode(x)
        for a, b in zip(us1 + zs1, us2 + zs2):
            np.testing.assert_array_equal(a, b)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            tiny_model().encode(np.ones((7, 3)))


class TestDecode:
    def test_zero_decoders_zero_output(self):
        m = tiny_model()
        for name, p in m.params.items():
            if name.startswith("dec"):
                p.data = np.zeros_like(p.data)
        qs = [np.ones((8, 2)), np.ones((4, 2)), np.ones((2, 2))]
        out = m.decode(qs, "A")
        assert out.shape == (16, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_frame_count_round_trip(self):
        m = tiny_model(seed=5)
        for t in (64, 37, 8):
            x = np.random.default_rng(t).normal(size=(t, 3))
            _, zs = m.encode(x)
            qs = [m.quantize_stage(z, n)[0] for n, z in enumerate(zs, start=1)]
            out = m.decode(qs, "B", n_frames=t)
            assert out.shape == (t, 3)

    def test_unknown_speaker_rejected(self):
        m = tiny_model()
        qs = [np.ones((8, 2)), np.ones((4, 2)), np.ones((2, 2))]
        with pytest.raises(vqvae.UnknownSpeakerError, match="M99"):
            m.decode(qs, "M99")

    def test_conditioning_is_live_after_training(self, trained):
        model, _, data, _, _ = trained
        _, zs = model.encode(data[0][1])
        qs = [model.quantize_stage(z, n)[0] for n, z in enumerate(zs, start=1)]
        out_a = model.decode(qs, "A")
        out_b = model.decode(qs, "B")
        assert np.linalg.norm(out_a - out_b) > 0


class TestForwardLoss:
    def test_zero_fixed_point_gives_zero_loss(self):
        m = tiny_model()
        for p in m.params.values():
            p.data = np.zeros_like(p.data)
        # make codeword 0 the unique zero row so q = z = 0 exactly
        for n in (1, 2, 3):
            cb = np.array([[0.0, 0.0], [3.0, 3.0], [-3.0, 4.0]])
            m.params[f"codebook{n}"].data = cb
        loss, parts = m.forward_loss(np.zeros((16, 3)), "A")
        assert loss.item() == 0.0
        assert parts.reconstruction == 0.0
        assert parts.codebook == 0.0
        assert parts.commitment == 0.0

    def test_components_nonnegative(self):
        m = tiny_model(seed=6)
        x = np.random.default_rng(7).normal(size=(24, 3))
        loss, parts = m.forward_loss(x, "B")
        assert parts.reconstruction >= 0
        assert parts.codebook >= 0
        assert parts.commitment >= 0
        assert loss.item() == pytest.approx(parts.total, rel=1e-12)

    def test_total_is_recon_plus_vq_terms(self):
        m = tiny_model(seed=8)
        x = np.random.default_rng(9).normal(size=(16, 3))
        loss, parts = m.forward_loss(x, "A")
        assert loss.item() == pytest.approx(
            parts.reconstruction + parts.codebook + parts.commitment, rel=1e-12)

    def test_straight_through_keeps_encoder_gradients_live(self):
        m = tiny_model(seed=10)
        x = np.random.default_rng(11).normal(size=(16, 3))
        loss, parts = m.forward_loss(x, "A")
        assert parts.reconstruction > 0
        loss.backward()
        g = m.params["enc1.conv1.w"].grad
        assert g is not None and np.any(g != 0)

    def test_codebook_gradient_matches_closed_form(self):
        m = tiny_model(seed=12)
        x = np.random.default_rng(13).normal(size=(16, 3))
        _, parts = m.forward_loss(x, "A")
        parts.nodes["codebook"].backward()
        _, zs = m.encode(x)
        for n in (1, 2, 3):
            cb = m.params[f"codebook{n}"]
            z = zs[n - 1]
            _, idx = vqvae.quantize(z, cb.data)
            want = np.zeros_like(cb.data)
            t, d = z.shape
            for row in range(t):
                j = idx[row]
                want[j] += 2.0 * (cb.data[j] - z[row]) / (t * d)
            np.testing.assert_allclose(cb.grad, want, rtol=1e-9, atol=1e-12)

    def test_commitment_gradient_reaches_encoder_not_codebook(self):
        m = tiny_model(seed=14)
        x = np.random.default_rng(15).normal(size=(16, 3))
        _, parts = m.forward_loss(x, "A")
        parts.nodes["commitment"].backward()
        assert m.params["codebook1"].grad is None
        g = m.params["enc1.conv1.w"].grad
        assert g is not None and np.any(g != 0)

    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_reconstruction_gradient_matches_finite_differences(self, seed):
        # quantizer bypassed: the straight-through estimator is by design
        # not the forward's derivative, so the finite-difference comparison
        # runs on the smooth surrogate the estimator's backward defines
        m = tiny_model(seed=seed)
        rng = np.random.default_rng(seed + 100)
        rng.normal(size=(3, 2))
        rng.normal(size=(3, 2))
        rng.normal(size=(3, 2))
        x = rng.normal(size=(8, 3))
        _, parts = m.forward_loss(x, "A", quantize_bypass=True)
        parts.nodes["reconstruction"].backward()
        worst = 0.0
        for name in sorted(m.params):
            if name.startswith("codebook"):
                continue
            p = m.params[name]
            got = p.grad if p.grad is not None else np.zeros_like(p.data)
            keep = p.data.copy()

            def f(v, name=name, keep=keep):
                m.params[name].data = v
                _, pp = m.forward_loss(x, "A", quantize_bypass=True)
                m.params[name].data = keep
                return pp.reconstruction

            fd = finite_difference_grad(f, keep.copy())
            worst = max(worst, max_relative_error(got, fd))
        assert worst <= 1e-4

    def test_mask_excludes_padded_frames(self):
        m = tiny_model(seed=16)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(16, 3))
        padded = np.zeros((24, 3))
        padded[:16] = x
        mask = np.zeros(24)
        mask[:16] = 1.0
        # masked loss on padded input must not see the padding region
        _, parts_plain = m.forward_loss(x, "A")
        _, parts_masked = m.forward_loss(padded, "A", mask=mask)
        # encoder halvings mix frames near the boundary, so reconstruction
        # is not bit-equal; the masked loss must still ignore pad frames
        assert parts_masked.reconstruction == pytest.approx(
            parts_plain.reconstruction, rel=0.35)
        full = m.forward_loss(padded, "A")[1].reconstruction
        assert parts_masked.reconstruction != pytest.approx(full, rel=1e-6)


class TestPerplexity:
    def test_collapse_is_one(self):
        assert vqvae.codebook_perplexity([3] * 50, 8) == pytest.approx(1.0)

    def test_uniform_is_k(self):
        assert vqvae.codebook_perplexity(list(range(8)) * 4, 8) == pytest.approx(8.0)

    def test_half_quarter_quarter(self):
        idx = [0] * 8 + [1] * 4 + [2] * 4
        want = np.exp(1.5 * np.log(2.0))
        assert vqvae.codebook_perplexity(idx, 8) == pytest.approx(want, rel=1e-12)

    def test_bounds_on_random_usage(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            idx = rng.integers(0, k, size=int(rng.integers(1, 200)))
            p = vqvae.codebook_perplexity(idx, k)
            assert 1.0 - 1e-12 <= p <= k + 1e-12


class TestTraining:
    def test_report_shape_and_bounds(self, trained):
        model, report, _, _, _ = trained
        assert len(report) == 200
        k = model.cfg.codebook_size
        for i in range(200):
            assert report.reconstruction[i] >= 0
            assert report.codebook[i] >= 0
            assert report.commitment[i] >= 0
            for p in report.perplexities[i]:
                assert 1.0 - 1e-9 <= p <= k + 1e-9

    def test_reconstruction_loss_halves(self, trained):
        _, report, _, _, _ = trained
        assert report.reconstruction[-1] <= 0.5 * report.reconstruction[0]

    def test_converted_outputs_cross_to_target(self, trained):
        model, _, data, off_a, off_b = trained
        for i in range(8):
            mean = model.convert(data[i][1], "B").mean(axis=0)
            assert ((mean - off_b) ** 2).mean() < ((mean - off_a) ** 2).mean()
        for i in range(8, 16):
            mean = model.convert(data[i][1], "A").mean(axis=0)
            assert ((mean - off_a) ** 2).mean() < ((mean - off_b) ** 2).mean()

    def test_convert_to_own_id_is_reconstruction(self, trained):
        model, _, data, _, _ = trained
        frames = data[0][1]
        got = model.convert(frames, "A")
        _, zs = model.encode(frames)
        qs = [model.quantize_stage(z, n)[0] for n, z in enumerate(zs, start=1)]
        want = model.decode(qs, "A", n_frames=frames.shape[0])
        np.testing.assert_array_equal(got, want)

    def test_convert_deterministic(self, trained):
        model, _, data, _, _ = trained
        a = model.convert(data[3][1], "B")
        b = model.convert(data[3][1], "B")
        np.testing.assert_array_equal(a, b)

    def test_same_seed_bit_identical_reports(self):
        data, _, _ = make_two_speaker_dataset()
        cfg = vqvae.VqVaeConfig(in_channels=16, hidden=8, latent_dim=4,
                                codebook_size=4, embed_dim=2)
        runs = []
        for _ in range(2):
            m = vqvae.HVqVaeModel(cfg, ["A", "B"], seed=2)
            _, rep = vqvae.train(m, data, vqvae.TrainingConfig(
                steps=5, batch_size=4, crop_frames=16, learning_rate=1e-3, seed=9))
            runs.append(rep)
        assert runs[0].reconstruction == runs[1].reconstruction
        assert runs[0].codebook == runs[1].codebook
        assert runs[0].commitment == runs[1].commitment
        assert runs[0].perplexities == runs[1].perplexities

    def test_zero_learning_rate_freezes_parameters(self):
        # single full-length utterance: every step sees the same batch, so
        # the loss trace must be flat and parameters must not move
        rng = np.random.default_rng(19)
        data = [("A", rng.normal(size=(16, 16)).astype(np.float32))]
        cfg = vqvae.VqVaeConfig(in_channels=16, hidden=8, latent_dim=4,
                                codebook_size=4, embed_dim=2)
        m = vqvae.HVqVaeModel(cfg, ["A"], seed=4)
        _, rep = vqvae.train(m, data, vqvae.TrainingConfig(
            steps=4, batch_size=2, crop_frames=16, learning_rate=0.0, seed=11))
        snapshot = {k: p.data.copy() for k, p in m.params.items()}
        assert len(set(rep.reconstruction)) == 1
        _, rep2 = vqvae.train(m, data, vqvae.TrainingConfig(
            steps=3, batch_size=2, crop_frames=16, learning_rate=0.0, seed=12))
        for k, p in m.params.items():
            np.testing.assert_array_equal(p.data, snapshot[k])
        assert len(set(rep2.reconstruction)) == 1

    def test_failed_report_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        old = vqvae.TrainingReport()
        old.append(1.0, 0.5, 0.25, (2.0, 3.0, 4.0))
        old.write_csv(path)
        before = path.read_bytes()
        new = vqvae.TrainingReport()
        new.append(0.9, 0.4, 0.2, (2.0, 3.0, 4.0))
        new.append(0.8, 0.3, 0.1, (2.0, 3.0, 4.0))
        new.perplexities.pop()  # row 2 fails after row 1 is written
        with pytest.raises(IndexError):
            new.write_csv(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        # two steps at the default model and training configs, once per
        # BLAS thread count, each in a fresh interpreter
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pathovc import vqvae\n"
            "rng = np.random.default_rng(5)\n"
            "speakers = ['A', 'B', 'C']\n"
            "data = [(s, rng.normal(size=(int(rng.integers(40, 100)), 40))"
            ".astype(np.float32)) for s in speakers for _ in range(4)]\n"
            "model = vqvae.HVqVaeModel(vqvae.VqVaeConfig(), speakers, seed=0)\n"
            "vqvae.train(model, data, vqvae.TrainingConfig(steps=2))\n"
            "vqvae.save_checkpoint(model, sys.argv[1])\n")
        src = str(Path(vqvae.__file__).resolve().parents[2])
        blobs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            path = tmp_path / f"threads{threads}.hvqv"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                           check=True, timeout=300)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_speaker_rejected_at_load(self):
        m = vqvae.HVqVaeModel(vqvae.VqVaeConfig(
            in_channels=4, hidden=4, latent_dim=2, codebook_size=2,
            embed_dim=2), ["A"], seed=0)
        data = [("A", np.zeros((16, 4), dtype=np.float32)),
                ("GHOST", np.zeros((16, 4), dtype=np.float32))]
        with pytest.raises(vqvae.UnknownSpeakerError, match="utterance 1.*GHOST"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1))

    def test_empty_dataset_rejected(self):
        m = tiny_model(dtype="float32")
        with pytest.raises(ValueError, match="empty"):
            vqvae.train(m, [], vqvae.TrainingConfig(steps=1))


@contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNonFiniteInput:
    def test_init_codebooks_rejects_nan_latents(self):
        m = tiny_model()
        m.codebooks_initialized = False
        pools = [np.ones((4, 2)), np.full((4, 2), np.nan), np.ones((4, 2))]
        with time_limit(10), pytest.raises(ValueError, match="stage 2"):
            m.init_codebooks(pools, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_train_rejects_non_finite_frames(self, bad):
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        frames = np.zeros((16, 3), dtype=np.float32)
        frames[5, 1] = bad
        data = [("A", np.ones((16, 3), dtype=np.float32)), ("B", frames)]
        with time_limit(10), pytest.raises(ValueError, match="utterance 1 of speaker 'B'"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_names_the_step(self):
        # finite frames, but a learning rate that blows the first update up
        m = tiny_model(dtype="float32")
        m.codebooks_initialized = False
        rng = np.random.default_rng(3)
        data = [(s, rng.normal(size=(16, 3)).astype(np.float32)) for s in ("A", "B")]
        with time_limit(10), pytest.raises(
                vqvae.NonFiniteLossError, match="step 2: reconstruction loss is nan"):
            vqvae.train(m, data, vqvae.TrainingConfig(steps=5, learning_rate=1e30))


class TestCheckpoint:
    def _small_model(self):
        cfg = vqvae.VqVaeConfig(in_channels=4, hidden=6, latent_dim=3,
                                codebook_size=4, embed_dim=2)
        m = vqvae.HVqVaeModel(cfg, ["M04", "M12"], seed=21)
        m.codebooks_initialized = True
        return m

    def test_round_trip_bit_exact(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "m.hvqv"
        vqvae.save_checkpoint(m, path)
        back = vqvae.load_checkpoint(path)
        assert back.cfg == m.cfg
        assert back.speakers == m.speakers
        assert back.codebooks_initialized is True
        assert sorted(back.params) == sorted(m.params)
        for k in m.params:
            assert back.params[k].data.tobytes() == m.params[k].data.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        m = self._small_model()
        p1, p2 = tmp_path / "a.hvqv", tmp_path / "b.hvqv"
        vqvae.save_checkpoint(m, p1)
        vqvae.save_checkpoint(vqvae.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "t.hvqv"
        vqvae.save_checkpoint(m, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(vqvae.CheckpointFormatError, match="truncated"):
            vqvae.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hvqv"
        path.write_bytes(b"NOTIT" + b"\x00" * 40)
        with pytest.raises(vqvae.CheckpointFormatError, match="magic"):
            vqvae.load_checkpoint(path)

    def test_version_mismatch_explicit_error(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "v.hvqv"
        vqvae.save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[5:7] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(vqvae.CheckpointVersionError, match="99"):
            vqvae.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "g.hvqv"
        vqvae.save_checkpoint(m, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(vqvae.CheckpointFormatError, match="trailing"):
            vqvae.load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        m = self._small_model()
        path = tmp_path / "m.hvqv"
        vqvae.save_checkpoint(m, path)
        before = path.read_bytes()
        # the last blob cannot be converted to floats, so the save fails
        # after the header and the other blobs are written
        last = m.params[sorted(m.params)[-1]]
        last.data = np.full(last.data.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            vqvae.save_checkpoint(m, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.hvqv"]

    def test_float64_model_refused(self, tmp_path):
        m = tiny_model(dtype="float64")
        with pytest.raises(ValueError, match="32-bit"):
            vqvae.save_checkpoint(m, tmp_path / "x.hvqv")
