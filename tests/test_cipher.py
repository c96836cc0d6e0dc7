import copy
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cthwave import cipher
from cthwave.chaos import ChaosParams, LambdaStream
from cthwave.cipher import (
    MASK_CACHE_SIZE,
    CipherModeError,
    KeySchedule,
    chaotic_image,
    decrypt,
    encrypt,
    keystream_image,
    quantize,
    spiral_swap,
    verify_literal_roundtrip,
    xor_combine,
)
from cthwave.keyfile import format_key_file, parse_key_file
from cthwave.metrics import entropy_normalized, npcr
from cthwave.wavelet import decompose, reconstruct

import reference as ref
from conftest import peak_rss_rise_kib, random_key_schedule


def random_quadrants(q, seed):
    """A random 2q x 2q float array: four q x q quadrants."""
    return np.random.default_rng(seed).standard_normal((2 * q, 2 * q))


def swapped_arange(q):
    """spiral_swap of a 2q x 2q arange: each cell holds the flat index of the
    cell its value came from."""
    return spiral_swap(np.arange(4 * q * q).reshape(2 * q, 2 * q))


def flat_cell(q, band, r, c):
    """Flat index in a 2q x 2q array of 1-based cell (r, c) of a quadrant."""
    r0, c0 = {"ll": (0, 0), "hl": (0, q), "lh": (q, 0), "hh": (q, q)}[band]
    return (r0 + r - 1) * 2 * q + c0 + c - 1


class TestSpiralSwap:
    def test_published_anchor_swaps(self):
        f = swapped_arange(8).reshape(-1)
        published = [
            ("lh", (4, 5), (1, 8)),
            ("hl", (4, 4), (8, 2)),
            ("hh", (5, 4), (1, 3)),
            # the second published triple
            ("lh", (5, 5), (1, 5)),
            ("hl", (5, 6), (8, 5)),
            ("hh", (4, 6), (1, 6)),
        ]
        for band, ll, partner in published:
            a, b = flat_cell(8, "ll", *ll), flat_cell(8, band, *partner)
            assert (f[a], f[b]) == (b, a)

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 64])
    def test_record_matches_the_reference_generator(self, n):
        # Exactly the pairs the specification's per-cell walk lists are
        # exchanged (the name predates the deletion of the swap record).
        f = np.arange(4 * n * n).reshape(2 * n, 2 * n)
        assert np.array_equal(spiral_swap(f), ref.spiral_swap(f))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_values_permuted_not_modified(self, n):
        f = random_quadrants(n, n + 1)
        swapped = spiral_swap(f)
        assert np.array_equal(np.sort(swapped, axis=None), np.sort(f, axis=None))
        assert not np.array_equal(swapped, f)

    def test_every_ll_cell_swapped_once(self):
        for n in (4, 8, 16):
            f = swapped_arange(n)
            assert np.array_equal(np.sort(f, axis=None), np.arange(4 * n * n))
            # every LL cell now holds a detail cell's value, and only n * n
            # detail cells moved: each partner serves one LL cell
            r, c = np.divmod(f[:n, :n], 2 * n)
            assert np.all((r >= n) | (c >= n))
            moved = f != np.arange(4 * n * n).reshape(2 * n, 2 * n)
            assert moved[:n, :n].all() and moved.sum() == 2 * n * n

    def test_small_quadrants_rejected(self):
        with pytest.raises(ValueError):
            spiral_swap(random_quadrants(2, 0))

    @pytest.mark.parametrize("shape", [(8, 16), (64,), (9, 9), (10, 10), (0, 0)],
                             ids=["non-square", "1-d", "odd-side", "odd-quadrant",
                                  "empty"])
    def test_refuses_an_array_it_cannot_swap(self, shape):
        with pytest.raises(ValueError, match="spiral swap needs"):
            spiral_swap(np.zeros(shape))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.float64, np.complex128])
    def test_keeps_the_dtype(self, dtype):
        f = np.arange(256).reshape(16, 16).astype(dtype)
        swapped = spiral_swap(f)
        assert swapped.dtype == dtype
        assert np.array_equal(swapped, swapped_arange(8).astype(dtype))

    def test_leaves_input_unchanged(self):
        whole = random_quadrants(16, 3)
        for f in (whole, whole[:16, :16]):  # a strided view too
            before = f.copy()
            swapped = spiral_swap(f)
            assert np.array_equal(f, before)
            assert not np.shares_memory(swapped, f)


class TestQuantize:
    def test_rounding_rule(self):
        out = quantize(np.array([0.4, 0.5, -0.5, 255.6]))
        assert out.tolist() == [0, 1, 255, 0]

    def test_byte_fixed_point(self):
        v = np.arange(256, dtype=float)
        assert np.array_equal(quantize(v), np.arange(256, dtype=np.uint8))

    @given(
        arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.one_of(
                st.floats(-1e7, 1e7),
                st.floats(-1.0, 1.0),
                st.sampled_from([0.5, -0.5, 0.0, -0.0, 255.5, -255.5, 256.5, -256.5]),
                st.integers(-300, 300).map(lambda k: k + 0.5),
            ),
        )
    )
    @settings(deadline=None)
    def test_matches_reference_formula(self, f):
        assert quantize(f).tobytes() == ref.quantize(f).tobytes()

    @given(
        arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.one_of(
                # +-k 2^e over every exponent that keeps the value finite
                st.tuples(st.sampled_from([1.0, -1.0]), st.integers(1, 255),
                          st.integers(0, 1023))
                .map(lambda t: t[0] * t[1] * 2.0 ** t[2])
                .filter(np.isfinite),
                st.integers(1 - 2**52, 2**52 - 1).map(lambda k: k + 0.5),
                st.floats(-2.0**-1022, 2.0**-1022),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**53, -2.0**53,
                                 2.0**63, -2.0**63, 1.7e308, -1.7e308]),
            ),
        )
    )
    @settings(deadline=None)
    def test_matches_reference_formula_over_all_exponents(self, f):
        assert quantize(f).tobytes() == ref.quantize(f).tobytes()

    def test_leaves_input_untouched(self):
        f = np.array([-1.5, 0.25, 300.7])
        quantize(f)
        assert f.tolist() == [-1.5, 0.25, 300.7]


class TestXor:
    def test_identity_and_self_inverse(self):
        m = np.arange(16, dtype=np.uint8).reshape(4, 4)
        z = np.zeros((4, 4), dtype=np.uint8)
        assert np.array_equal(xor_combine(z, m), m)
        f = np.full((4, 4), 0xAC, dtype=np.uint8)
        e = xor_combine(f, m)
        assert np.array_equal(xor_combine(e, f), m)

    def test_complement_pair(self):
        a = np.array([[0xAC]], dtype=np.uint8)
        b = np.array([[0x53]], dtype=np.uint8)
        assert xor_combine(a, b)[0, 0] == 0xFF

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            xor_combine(np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8))

    @pytest.mark.parametrize("x", [
        np.array([[256, 257]], dtype=np.int32),
        np.array([[1.9, -1.0]]),
    ])
    def test_non_uint8_refused(self, x):
        with pytest.raises(ValueError, match=str(x.dtype)):
            xor_combine(x, np.zeros((1, 2), np.uint8))
        with pytest.raises(ValueError, match=str(x.dtype)):
            xor_combine(np.zeros((1, 2), np.uint8), x)


class TestChaoticImage:
    def test_zero_image_maps_to_zero(self, default_keystream_key):
        f = chaotic_image(np.zeros((16, 16)), default_keystream_key)
        assert np.allclose(f, 0.0, atol=1e-9)

    def test_rejects_bad_side(self, default_keystream_key):
        with pytest.raises(ValueError):
            chaotic_image(np.zeros((6, 6)), default_keystream_key)

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n", [4, 12, 16, 64])
    def test_is_decompose_gather_reconstruct(self, n, normalized):
        rng = np.random.default_rng(n)
        for _ in range(3):
            ks = random_key_schedule(rng, normalized=normalized)
            m = rng.integers(0, 256, (n, n)).astype(np.uint8)
            h1, h2, h3, h4 = cipher._stage_matrices(ks, n)
            f = decompose(m, (h1, h2))
            f = f.reshape(-1)[cipher._mask_perm(n)].reshape(n, n)
            expected = reconstruct(f, (h4, h3))
            assert chaotic_image(m, ks).tobytes() == expected.tobytes()

    def test_brightness_redistributed(self, default_literal_key):
        # sub-image energy is far more uniform than a plain decomposition:
        # the mask histogram must be much flatter than the input's
        from cthwave.imageio import synthetic_test_image

        img = synthetic_test_image(64)
        f = quantize(chaotic_image(img, default_literal_key))
        assert entropy_normalized(f) > entropy_normalized(img)


class TestKeystream:
    def test_refuses_a_side_the_cipher_refuses(self, default_keystream_key):
        with pytest.raises(ValueError, match="side 4, 12 or a multiple of 8"):
            keystream_image(default_keystream_key, 20)

    @pytest.mark.parametrize("n", [64.0, np.float64(64), "64", None],
                             ids=["float", "float64", "str", "None"])
    def test_refuses_a_non_integer_side_before_its_stream(
        self, default_keystream_key, n, monkeypatch
    ):
        monkeypatch.setattr(cipher, "LambdaStream", None)
        with pytest.raises(ValueError, match="side 4, 12 or a multiple of 8"):
            keystream_image(default_keystream_key, n)

    def test_takes_a_numpy_integer_side(self, default_keystream_key):
        ks = default_keystream_key
        assert np.array_equal(keystream_image(ks, np.int64(8)), keystream_image(ks, 8))

    def test_entropy(self, default_keystream_key):
        # the raw chaotic bytes are noticeably non-uniform; the whitening
        # happens downstream in the mask-and-XOR stage
        img = keystream_image(default_keystream_key, 256)
        assert entropy_normalized(img) > 0.9

    def test_seed_sensitivity_npcr(self, default_keystream_key):
        ks = default_keystream_key
        stage0 = ks.stages[0]
        perturbed = replace(ks, stages=(
            replace(stage0, x0=stage0.x0 + 1e-10),
            *ks.stages[1:],
        ))
        a = keystream_image(ks, 128)
        b = keystream_image(perturbed, 128)
        assert npcr(a, b) > 98.0

    @pytest.mark.parametrize("n", [8, 136])
    def test_is_the_whole_orbit_folded(self, default_keystream_key, n):
        # 136^2 = 18,496 pixels end one iterate chunk and part of the next.
        ks = default_keystream_key
        x = np.frombuffer(LambdaStream(ks.stages[0], ks.burn_in + 1000).orbit(n * n))
        whole = np.floor((x - np.floor(x)) * 256.0).astype(np.uint8)
        assert keystream_image(ks, n).tobytes() == whole.tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_keeps_no_orbit(self):
        rise = peak_rss_rise_kib("from cthwave import cipher; "
                                 "from reference import REFERENCE_PARAMS as p; "
                                 "ks = cipher.KeySchedule((p,) * 4)",
                                 "cipher.keystream_image(ks, 1024)")
        # KiB: the image is 1 MiB; its 2**20 iterates would take 8 MiB more.
        assert rise < 4096

    def test_shares_stage_one_iterates_from_side_504(self, default_keystream_key):
        # Stage 1's 2n slopes use iterates burn_in + 1 .. burn_in + 2n of the
        # stage-1 orbit, and the keystream starts at burn_in + 1001, so at
        # n = 512 its first 24 pixels come from stage 1's last 24 iterates.
        ks, n = default_keystream_key, 512
        p1, b = ks.stages[0], ks.burn_in
        assert cipher.KEYSTREAM_BURN_OFFSET == 1000
        shared = LambdaStream(p1, b).orbit(2 * n)[1000:]
        assert shared == LambdaStream(p1, b + 1000).orbit(2 * n - 1000)
        x = np.array(shared)
        assert len(x) == 24
        assert np.array_equal(keystream_image(ks, n).reshape(-1)[:24],
                              np.floor((x - np.floor(x)) * 256.0))


class TestEncryptDecrypt:
    def test_keystream_roundtrip_exact(self, default_keystream_key):
        rng = np.random.default_rng(1)
        for n in (8, 16, 64):
            m = rng.integers(0, 256, (n, n)).astype(np.uint8)
            e = encrypt(m, default_keystream_key)
            assert np.array_equal(decrypt(e, default_keystream_key), m)
            assert not np.array_equal(e, m)

    def test_literal_mode_verifies(self, default_literal_key):
        rng = np.random.default_rng(3)
        m = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        e = encrypt(m, default_literal_key)
        assert verify_literal_roundtrip(e, m, default_literal_key)

    def test_literal_mode_decrypt_refused(self, default_literal_key):
        with pytest.raises(CipherModeError):
            decrypt(np.zeros((16, 16), np.uint8), default_literal_key)

    def test_keystream_mode_literal_verify_refused(self, default_keystream_key):
        m = np.zeros((16, 16), np.uint8)
        with pytest.raises(CipherModeError, match="literal-mode key"):
            verify_literal_roundtrip(encrypt(m, default_keystream_key), m,
                                     default_keystream_key)

    def test_zero_ciphertext_decrypts_to_mask(self, default_keystream_key):
        ks = default_keystream_key
        z = np.zeros((16, 16), np.uint8)
        f = chaotic_image(keystream_image(ks, 16), ks)
        assert np.array_equal(decrypt(z, ks), quantize(f))

    def test_wrong_key_scrambles(self, default_keystream_key):
        ks = default_keystream_key
        stage0 = ks.stages[0]
        wrong = replace(ks, stages=(
            replace(stage0, x0=stage0.x0 + 1e-10),
            *ks.stages[1:],
        ))
        rng = np.random.default_rng(4)
        m = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        garbled = decrypt(encrypt(m, ks), wrong)
        assert npcr(garbled, m) > 98.0


class TestImageChecks:
    # test_io_cli.py's MALFORMED_IMAGES checks the whole refusal of bool,
    # 1-D, 3-D and empty arrays at every taker; these rows are other dtypes
    # and the sides the cipher refuses.
    BAD = {
        # int32 values above 255 used to be cast silently and lost
        "int32-above-255": np.arange(256, 512, dtype=np.int32).reshape(16, 16),
        "float64": np.zeros((16, 16), dtype=np.float64),
        "int64": np.zeros((16, 16), dtype=np.int64),
        "non-square": np.zeros((16, 20), dtype=np.uint8),
        "side-6": np.zeros((6, 6), dtype=np.uint8),
        "list": [[1, 2, 3, 4]] * 4,
        # level-2 quadrants of side 5 and 7 cannot be spiral-swapped
        "side-20": np.zeros((20, 20), dtype=np.uint8),
        "side-28": np.zeros((28, 28), dtype=np.uint8),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_bad_images_rejected(self, case, default_keystream_key, default_literal_key):
        bad = self.BAD[case]
        good = np.zeros((16, 16), np.uint8)
        for call in (
            lambda: encrypt(bad, default_keystream_key),
            lambda: encrypt(bad, default_literal_key),
            lambda: decrypt(bad, default_keystream_key),
            lambda: verify_literal_roundtrip(bad, good, default_literal_key),
            lambda: verify_literal_roundtrip(good, bad, default_literal_key),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize(
        "bad, match",
        [(np.zeros((16, 16), np.int32), "uint8"),
         (np.zeros((20, 20), np.uint8), r"multiple of 8, got shape \(20, 20\)")],
        ids=["int32", "side-20"],
    )
    def test_bad_image_rejected_before_the_mask(
        self, bad, match, default_keystream_key, monkeypatch
    ):
        monkeypatch.setattr(cipher, "_keystream_mask", None)
        with pytest.raises(ValueError, match=match):
            encrypt(bad, default_keystream_key)


class TestMaxSide:
    def test_gather_index_cannot_wrap(self):
        assert np.iinfo(np.int32).max >= cipher.MAX_SIDE**2 - 1

    def test_largest_side_accepted(self):
        cipher._check_side((cipher.MAX_SIDE, cipher.MAX_SIDE), "image")

    @pytest.mark.parametrize("op", ["encrypt", "decrypt", "keystream_image"])
    def test_larger_side_refused_before_the_mask(self, op, default_keystream_key,
                                                 monkeypatch):
        s = cipher.MAX_SIDE + 8
        image = np.broadcast_to(np.uint8(0), (s, s))  # allocates no pixels
        monkeypatch.setattr(cipher, "_keystream_mask", None)
        monkeypatch.setattr(cipher, "LambdaStream", None)
        call = {"encrypt": lambda: encrypt(image, default_keystream_key),
                "decrypt": lambda: decrypt(image, default_keystream_key),
                "keystream_image": lambda: keystream_image(default_keystream_key, s)}
        with pytest.raises(ValueError, match=f"at most {cipher.MAX_SIDE} pixels wide"):
            call[op]()


@pytest.fixture
def cold_mask_cache():
    cipher._keystream_mask.cache_clear()
    yield cipher._keystream_mask
    cipher._keystream_mask.cache_clear()


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(cipher, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(cipher, name, counted)
    return calls


class TestMaskCache:
    def test_bounded_below_the_bench_key_count(self):
        # The bench self-test replays 32 keys and must see every one miss.
        assert cipher._keystream_mask.cache_info().maxsize == MASK_CACHE_SIZE < 32

    def test_mask_built_once_per_key_and_side(
        self, cold_mask_cache, default_keystream_key, monkeypatch
    ):
        calls = count_calls(monkeypatch, "chaotic_image")
        ks = default_keystream_key
        rng = np.random.default_rng(6)
        for n in (16, 32, 16, 32):
            m = rng.integers(0, 256, (n, n)).astype(np.uint8)
            assert np.array_equal(decrypt(encrypt(m, ks), ks), m)
        assert len(calls) == 2
        assert cold_mask_cache.cache_info().hits == 6

    def test_cached_mask_matches_the_pipeline(self, cold_mask_cache, default_keystream_key):
        ks = default_keystream_key
        mask = cold_mask_cache(ks, 16)
        assert np.array_equal(mask, quantize(chaotic_image(keystream_image(ks, 16), ks)))

    def test_cached_mask_is_read_only(self, cold_mask_cache, default_keystream_key):
        mask = cold_mask_cache(default_keystream_key, 16)
        assert mask.dtype == np.uint8 and not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 0

    def test_outputs_are_fresh_writable_arrays(self, cold_mask_cache, default_keystream_key):
        ks = default_keystream_key
        m = np.arange(256, dtype=np.uint8).reshape(16, 16)
        e = encrypt(m, ks)
        expected = e.copy()
        assert e.flags.writeable
        e[:] = 0
        assert np.array_equal(encrypt(m, ks), expected)
        d = decrypt(expected, ks)
        assert d.flags.writeable
        d[:] = 1
        assert np.array_equal(decrypt(expected, ks), m)
        assert np.array_equal(decrypt(np.zeros_like(m), ks), cold_mask_cache(ks, 16))

    @pytest.mark.parametrize(
        "change", [{"normalized": True}, {"burn_in": 65}, {"burn_in": 0}]
    )
    def test_keys_differing_in_settings_never_share(
        self, cold_mask_cache, default_keystream_key, change
    ):
        ks = default_keystream_key
        other = replace(ks, **change)
        assert other != ks
        a, b = cold_mask_cache(ks, 16), cold_mask_cache(other, 16)
        assert not np.array_equal(a, b)
        assert cold_mask_cache.cache_info().misses == 2

    def test_a_hit_hashes_no_stage(self, cold_mask_cache, default_keystream_key, monkeypatch):
        # A generated KeySchedule.__hash__ would hash all four stages per lookup.
        ks = default_keystream_key
        m = np.arange(256, dtype=np.uint8).reshape(16, 16)
        e = encrypt(m, ks)
        hashed = []
        stage_hash = ChaosParams.__hash__

        def counted(p):
            hashed.append(p)
            return stage_hash(p)

        monkeypatch.setattr(ChaosParams, "__hash__", counted)
        assert np.array_equal(encrypt(m, ks), e)
        assert np.array_equal(decrypt(e, ks), m)
        assert cold_mask_cache.cache_info().hits == 2
        assert hashed == []

    def test_stored_hash_survives_pickle_copy_and_replace(self, default_keystream_key):
        ks = default_keystream_key
        assert hash(replace(ks)) == hash(copy.deepcopy(ks)) == hash(ks)
        # The hash leaves out the mode string, whose hash follows PYTHONHASHSEED.
        build = ("import pickle, sys; from cthwave.chaos import ChaosParams; "
                 "from cthwave.cipher import KeySchedule; "
                 "ks = KeySchedule(tuple(ChaosParams(x0, 3, 4, 2.0, 2.5, 0.4) "
                 "for x0 in (0.2, 0.31, 0.47, 0.59)), mode='literal'); ")
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(seed, code, stdin=None):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            return subprocess.run([sys.executable, "-c", build + code], env=env, input=stdin,
                                  capture_output=True, check=True, timeout=60).stdout

        pickled = run("1", "sys.stdout.buffer.write(pickle.dumps(ks))")
        same = run("2", "old = pickle.loads(sys.stdin.buffer.read()); "
                        "print(old == ks, hash(old) == hash(ks))", stdin=pickled)
        assert same.split() == [b"True", b"True"]

    def test_literal_mode_bypasses_the_cache(
        self, cold_mask_cache, default_keystream_key, default_literal_key, monkeypatch
    ):
        m = np.arange(256, dtype=np.uint8).reshape(16, 16)
        e_keystream = encrypt(m, default_keystream_key)
        calls = count_calls(monkeypatch, "chaotic_image")
        for _ in range(3):
            e_literal = encrypt(m, default_literal_key)
            assert verify_literal_roundtrip(e_literal, m, default_literal_key)
        # one mask per literal encrypt and one per literal check
        assert len(calls) == 6
        assert not np.array_equal(e_literal, e_keystream)
        assert cold_mask_cache.cache_info().currsize == 1


@pytest.fixture
def cold_stage_cache():
    cipher._stage_matrices.cache_clear()
    yield cipher._stage_matrices
    cipher._stage_matrices.cache_clear()


def test_float32_key_encrypts_as_its_round_trip(cold_mask_cache, cold_stage_cache):
    stages = tuple(ChaosParams(np.float32(x0), 3, 4, np.float32(2.0),
                               np.float32(2.5), np.float32(0.4))
                   for x0 in (0.2, 0.31, 0.47, 0.59))
    ks32 = KeySchedule(stages)
    ks = parse_key_file(format_key_file(ks32))
    assert ks == ks32
    m = np.random.default_rng(8).integers(0, 256, (64, 64)).astype(np.uint8)
    e32 = encrypt(m, ks32)
    cold_mask_cache.cache_clear()
    cold_stage_cache.cache_clear()
    assert np.array_equal(encrypt(m, ks), e32)


class TestStageMatrixCache:
    def test_same_size_as_the_mask_cache(self):
        assert cipher._stage_matrices.cache_info().maxsize == MASK_CACHE_SIZE

    def test_literal_mode_builds_each_matrix_once(self, default_literal_key, monkeypatch):
        calls = count_calls(monkeypatch, "build_level_matrix")
        ks = replace(default_literal_key, burn_in=3)  # a key no other test caches
        rng = np.random.default_rng(7)
        for _ in range(3):
            m = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            assert verify_literal_roundtrip(encrypt(m, ks), m, ks)
        assert [c[0] for c in calls] == [16, 8, 8, 16]

    @staticmethod
    def differing_stages(cache, ks, other):
        """Stages whose matrices differ between two keys, after checking the
        keys missed separately and share no matrix object."""
        a, b = cache(ks, 16), cache(other, 16)
        assert cache.cache_info().misses == 2
        assert all(ha is not hb for ha, hb in zip(a, b))
        return [k for k in range(4) if not np.array_equal(a[k].entries, b[k].entries)]

    @pytest.mark.parametrize(
        "change", [{"normalized": True}, {"burn_in": 65}, {"burn_in": 0}]
    )
    def test_keys_differing_in_settings_never_share(
        self, cold_stage_cache, default_literal_key, change
    ):
        other = replace(default_literal_key, **change)
        assert self.differing_stages(cold_stage_cache, default_literal_key, other) == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", range(4))
    def test_keys_differing_in_one_stage_never_share(
        self, cold_stage_cache, default_literal_key, k
    ):
        stages = list(default_literal_key.stages)
        stages[k] = replace(stages[k], eps=0.41)
        other = replace(default_literal_key, stages=tuple(stages))
        assert self.differing_stages(cold_stage_cache, default_literal_key, other) == [k]


class TestMaskPerm:
    def test_build_retains_only_the_permutation(self):
        cipher._mask_perm.cache_clear()
        tracemalloc.start()
        try:
            perm = cipher._mask_perm(512)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 2 * perm.nbytes

    def test_cache_keeps_at_most_mask_cache_size_sides(self):
        cipher._mask_perm.cache_clear()
        for n in range(8, 8 * (MASK_CACHE_SIZE + 2), 8):
            cipher._mask_perm(n)
        assert cipher._mask_perm.cache_info().currsize == MASK_CACHE_SIZE

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 24, 64, 256, 512, 1024])
    def test_matches_the_sub_band_composition(self, n):
        perm = cipher._mask_perm(n)
        assert perm.dtype == np.int32 and perm.shape == (n * n,)
        # the gather is the specification's two swaps applied to an arange
        spec = ref.spiral_swaps(np.arange(n * n).reshape(n, n))
        assert np.array_equal(perm, spec.reshape(-1))
        assert np.array_equal(np.sort(perm), np.arange(n * n))
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = 0

    def test_literal_encrypt_makes_no_sub_band_round_trips(
        self, default_literal_key, monkeypatch
    ):
        names = ("split_subbands", "merge_subbands")
        calls = {name: count_calls(monkeypatch, name) for name in names}
        m = (np.arange(32 * 32) % 256).astype(np.uint8).reshape(32, 32)
        cipher._mask_perm.cache_clear()
        encrypt(m, default_literal_key)  # cold: builds the gather
        encrypt(m, default_literal_key)
        assert all(len(c) == 0 for c in calls.values())
        # the counters do see these names when they run
        cipher.merge_subbands(cipher.split_subbands(np.zeros((8, 8))))
        assert all(len(c) == 1 for c in calls.values())

    def test_warm_encrypt_makes_no_swap(self, default_literal_key, monkeypatch):
        m = (np.arange(32 * 32) % 256).astype(np.uint8).reshape(32, 32)
        encrypt(m, default_literal_key)
        names = ("spiral_swap", "split_subbands", "merge_subbands")
        calls = {name: count_calls(monkeypatch, name) for name in names}
        encrypt(m, default_literal_key)
        assert all(len(c) == 0 for c in calls.values())


class TestKeySchedule:
    def test_requires_four_stages(self):
        p = ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        with pytest.raises(ValueError):
            KeySchedule(stages=(p, p, p))

    def test_rejects_bad_mode(self):
        p = ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        with pytest.raises(ValueError):
            KeySchedule(stages=(p, p, p, p), mode="ecb")

    # Each of these used to be accepted and then fail inside the first encrypt.
    @pytest.mark.parametrize("stages, burn_in, match", [
        ([ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)] * 4, 16, "stages"),
        (((0.2, 3, 4, 2.0, 2.5, 0.4),) * 4, 16, "stages"),
        ((ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4),) * 4, 1.5, "burn_in"),
    ], ids=["list", "plain-tuples", "float-burn-in"])
    def test_rejects_malformed_schedule(self, stages, burn_in, match):
        with pytest.raises(ValueError, match=match):
            KeySchedule(stages=stages, burn_in=burn_in)

    # "raw" used to encrypt as normalized=True, and True as a burn-in of 1.
    @pytest.mark.parametrize("setting, match", [
        ({"normalized": "raw"}, "^normalization "),
        ({"normalized": 1}, "^normalization "),
        ({"burn_in": True}, "^burn_in "),
    ], ids=["string-normalized", "int-normalized", "bool-burn-in"])
    def test_refuses_settings_it_used_to_coerce(self, setting, match):
        p = ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        with pytest.raises(ValueError, match=match):
            KeySchedule(stages=(p, p, p, p), **setting)

    @pytest.mark.parametrize("kind", [np.int16, np.int64, np.uint32])
    def test_numpy_integer_burn_in_is_stored_as_an_int(self, kind):
        p = ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        ks = KeySchedule(stages=(p,) * 4, burn_in=kind(64))
        assert type(ks.burn_in) is int
        assert ks == KeySchedule(stages=(p,) * 4) and parse_key_file(
            format_key_file(ks)) == ks

    @pytest.mark.parametrize("burn_in, message", [
        (-1, "burn_in must be >= 0, got -1"),
        (np.int64(-1), "burn_in must be >= 0, got -1"),
        (np.True_, "burn_in must be an integer, got np.True_"),
        (64.0, "burn_in must be an integer, got 64.0"),
        (2**20 + 1, "burn_in must be <= 2**20, got 1048577"),
        (10**400, "burn_in must be <= 2**20, got an integer of over 20 digits"),
    ], ids=["negative", "np-negative", "np-bool", "float", "2**20+1", "10**400"])
    def test_refuses_a_burn_in_that_is_no_count(self, burn_in, message):
        p = ChaosParams(0.2, 3, 4, 2.0, 2.5, 0.4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KeySchedule(stages=(p,) * 4, burn_in=burn_in)
