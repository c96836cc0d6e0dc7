import errno
import os
import re
import runpy
import stat
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cthwave import cipher, keyfile
from cthwave.chaos import ChaosParams
from cthwave.cipher import (
    MASK_CACHE_SIZE,
    KeySchedule,
    _stage_matrices,
    decrypt,
    encrypt,
    verify_literal_roundtrip,
)
from cthwave.cli import main
from cthwave.imageio import (
    GrayImage,
    PgmError,
    read_pgm,
    rescale_to_bytes,
    synthetic_test_image,
    write_pgm,
)
from cthwave.keyfile import (
    KeyFileError,
    format_key_file,
    load_key_file,
    parse_key_file,
)
from cthwave.metrics import (
    ANALYZE_PAIRS,
    analyze_image,
    correlation_adjacent,
    entropy_normalized,
    histogram,
    mean_intensity,
    npcr,
    uaci,
)
from cthwave.wavelet import forward_2d
from conftest import traced_peak_bytes

DEGREE_RULE = r"must be an integer in \[2, 2\*\*20\]"
EPS_RULE = r"must lie in \(0, 1\)"
SCALE_RULE = "must be positive with a finite nonzero square"

GOOD_KEY = """\
burn_in = 16
normalization = raw
mode = keystream

[stage 1]
x0 = 0.2
N1 = 3
N2 = 4
a1 = 2
a2 = 2.5
eps = 0.4

[stage 2]
x0 = 0.31
N1 = 3
N2 = 4
a1 = 2
a2 = 2.5
eps = 0.4

[stage 3]
x0 = 0.47
N1 = 3
N2 = 4
a1 = 2
a2 = 2.5
eps = 0.4

[stage 4]
x0 = 0.59
N1 = 3
N2 = 4
a1 = 2
a2 = 2.5
eps = 0.4
"""


@pytest.fixture
def key_path(tmp_path):
    path = tmp_path / "test.key"
    path.write_text(GOOD_KEY)
    return path


@pytest.fixture
def cold_key_cache():
    parse_key_file.cache_clear()
    yield parse_key_file
    parse_key_file.cache_clear()


@pytest.fixture
def image_path(tmp_path):
    path = tmp_path / "plain.pgm"
    write_pgm(GrayImage(synthetic_test_image(64)), path)
    return path


class TestPgm:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (32, 48)).astype(np.uint8))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_zero_image_roundtrip(self, tmp_path):
        img = GrayImage(np.zeros((8, 8), np.uint8))
        path = tmp_path / "z.pgm"
        write_pgm(img, path)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    def test_minimal_header_parses(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + bytes(range(64)))
        img = read_pgm(path)
        assert img.pixels.shape == (8, 8) and img.pixels[7, 7] == 63

    def test_comments_permitted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n4 2 # inline\n255\n" + bytes(8))
        img = read_pgm(path)
        assert img.pixels.shape == (2, 4)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(PgmError):
            read_pgm(path)

    def test_magic_followed_by_a_digit_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P52 2 255\n" + bytes(4))
        with pytest.raises(PgmError, match="P5 magic"):
            read_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n4 4\n# 255", b"P5 4 4 #x y"])
    def test_header_ending_inside_a_comment_is_truncated(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header)
        with pytest.raises(PgmError, match="truncated PGM header"):
            read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(PgmError, match="truncated"):
            read_pgm(path)

    def test_small_image_over_longer_file_is_trimmed(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(GrayImage(np.full((32, 48), 7, np.uint8)), path)
        small = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        write_pgm(small, path)
        assert np.array_equal(read_pgm(path).pixels, small.pixels)
        assert path.read_bytes() == b"P5\n4 4\n255\n" + bytes(range(16))

    def test_large_image_over_shorter_file(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(GrayImage(np.zeros((4, 4), np.uint8)), path)
        rng = np.random.default_rng(1)
        big = GrayImage(rng.integers(0, 256, (64, 40)).astype(np.uint8))
        write_pgm(big, path)
        assert np.array_equal(read_pgm(path).pixels, big.pixels)
        assert path.stat().st_size == len(b"P5\n40 64\n255\n") + 64 * 40

    def test_non_contiguous_view_written_in_c_order(self, tmp_path):
        a = np.arange(96, dtype=np.uint8).reshape(8, 12)
        view = a.T[::2]
        assert not view.flags.c_contiguous
        path = tmp_path / "view.pgm"
        write_pgm(GrayImage(view), path)
        assert path.read_bytes() == b"P5\n8 6\n255\n" + view.tobytes(order="C")
        assert np.array_equal(read_pgm(path).pixels, view)

    def test_write_to_devnull(self):
        write_pgm(GrayImage(np.zeros((8, 8), np.uint8)), os.devnull)

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_new_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "new.pgm"
        old = os.umask(0o027)
        try:
            write_pgm(GrayImage(np.zeros((4, 4), np.uint8)), path)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX FIFOs")
    def test_fifo_roundtrip(self, tmp_path):
        # A FIFO reports size 0, so read_pgm reads on to end of file; the
        # 300² image is larger than a pipe's buffer.
        fifo = tmp_path / "pipe.pgm"
        os.mkfifo(fifo)
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 256, (300, 300), dtype=np.uint8))
        errors = []

        def writer():
            try:
                write_pgm(img, fifo)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        back = read_pgm(fifo)
        thread.join(timeout=30)
        assert not thread.is_alive() and errors == []
        assert np.array_equal(back.pixels, img.pixels)

    def test_crlf_and_ctrl_z_payload_roundtrip(self, tmp_path):
        # Text mode would turn \n into \r\n on write and stop at \x1a on read.
        payload = (b"\r\n\x1a" * 86)[:256]
        img = GrayImage(np.frombuffer(payload, np.uint8).reshape(16, 16))
        path = tmp_path / "crlf.pgm"
        write_pgm(img, path)
        assert path.read_bytes() == b"P5\n16 16\n255\n" + payload
        assert read_pgm(path).pixels.tobytes() == payload

    def test_one_read_and_one_write_call(self, tmp_path, monkeypatch):
        read, write = mock.Mock(wraps=os.read), mock.Mock(wraps=os.write)
        monkeypatch.setattr(os, "read", read)
        monkeypatch.setattr(os, "write", write)
        path = tmp_path / "img.pgm"
        img = GrayImage(synthetic_test_image(256))
        write_pgm(img, path)
        assert (read.call_count, write.call_count) == (0, 1)
        back = read_pgm(path)
        assert (read.call_count, write.call_count) == (1, 1)
        assert np.array_equal(back.pixels, img.pixels)

    def test_pixels_are_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(GrayImage(np.zeros((4, 4), np.uint8)), path)
        pixels = read_pgm(path).pixels
        assert not pixels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pixels[0, 0] = 1

    @pytest.mark.parametrize("fifo, bound", [
        (False, 1.1),
        pytest.param(True, 1.2, marks=pytest.mark.skipif(
            not hasattr(os, "mkfifo"), reason="POSIX FIFOs")),
    ], ids=["file", "fifo"])
    def test_read_holds_one_file_sized_buffer(self, tmp_path, fifo, bound):
        path = tmp_path / "img.pgm"
        write_pgm(GrayImage(synthetic_test_image(512)), path)
        size = path.stat().st_size
        if fifo:
            # A FIFO reports size 0, so read_pgm reads it to end of file.  The
            # writer's bytes are made before tracing starts.
            data, path = path.read_bytes(), tmp_path / "pipe.pgm"
            os.mkfifo(path)
            thread = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
            thread.start()
        assert traced_peak_bytes(lambda: read_pgm(path)) <= bound * size
        if fifo:
            thread.join(timeout=30)
            assert not thread.is_alive()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_image_refused(self, shape):
        # read_pgm refuses a zero dimension, so write_pgm must never see one.
        message = ("pixels must be a non-empty 2-D uint8 array, "
                   f"got uint8 of shape {shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GrayImage(np.zeros(shape, np.uint8))

    # {path} is the file read_pgm was given.
    @pytest.mark.parametrize("data, error, message", [
        (b"P5\n4 four\n255\n" + bytes(16), PgmError,
         "{path}: non-numeric PGM header field"),
        # int() would read these three as 16, 16 and 255.
        (b"P5\n+16 16\n255\n" + bytes(256), PgmError,
         "{path}: non-numeric PGM header field"),
        (b"P5\n1_6 16\n255\n" + bytes(256), PgmError,
         "{path}: non-numeric PGM header field"),
        (b"P5\n16 16\n2_55\n" + bytes(256), PgmError,
         "{path}: non-numeric PGM header field"),
        # int() refuses over 4,300 digits with a ValueError of its own.
        (b"P5\n" + b"9" * 5000 + b" 16\n255\n", PgmError,
         "{path}: non-numeric PGM header field"),
        (b"P5\n0 4\n255\n", PgmError, "{path}: bad dimensions 0x4"),
        pytest.param(None, IsADirectoryError,
                     f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {{path!r}}",
                     marks=pytest.mark.skipif(
                         os.name == "nt", reason="Windows cannot open a directory")),
    ], ids=["non-numeric", "signed", "underscore-width", "underscore-maxval",
            "5000-digit-width", "zero-width", "directory"])
    def test_refused_file_names_its_fault(self, tmp_path, data, error, message):
        path = tmp_path / "bad.pgm"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)
        with pytest.raises(error, match=f"^{re.escape(message.format(path=str(path)))}$"):
            read_pgm(path)

    @pytest.mark.parametrize("n, shown", [
        (0, "0"), (1, "1"), (-8, "-8"), (np.int64(1), "np.int64(1)"), (True, "True"),
        (np.True_, "np.True_"), (8.0, "8.0"), ("8", "'8'"), (None, "None"),
    ])
    def test_synthetic_image_refuses_a_side_below_two(self, n, shown):
        message = f"n must be an integer >= 2, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthetic_test_image(n)

    def test_synthetic_image_takes_a_numpy_integer_side(self):
        assert synthetic_test_image(np.int64(2)).shape == (2, 2)

    def test_rescale(self):
        v = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = rescale_to_bytes(v)
        assert out[0, 0] == 0 and out[1, 1] == 255
        assert np.all(rescale_to_bytes(np.full((3, 3), 7.0)) == 128)


# Arrays that are no byte image (a non-empty 2-D uint8 array).
MALFORMED_IMAGES = {
    "1-D": np.zeros(16, np.uint8),
    "3-D": np.zeros((16, 16, 3), np.uint8),
    "0x0": np.zeros((0, 0), np.uint8),
    "0x5": np.zeros((0, 5), np.uint8),
    "int16": np.zeros((16, 16), np.int16),
    "bool": np.zeros((16, 16), bool),
}

_GOOD = np.zeros((16, 16), np.uint8)

# Taker -> (the name its refusal gives the image, a call on the image x with
# keystream key ks and literal key lit).  A pair taker is called with the bad
# image in each place.
IMAGE_TAKERS = {
    "GrayImage": ("pixels", lambda x, ks, lit: GrayImage(x)),
    "encrypt": ("plaintext", lambda x, ks, lit: encrypt(x, ks)),
    "decrypt": ("ciphertext", lambda x, ks, lit: decrypt(x, ks)),
    "verify-e": ("ciphertext",
                 lambda x, ks, lit: verify_literal_roundtrip(x, _GOOD, lit)),
    "verify-m": ("plaintext",
                 lambda x, ks, lit: verify_literal_roundtrip(_GOOD, x, lit)),
    "histogram": ("image", lambda x, ks, lit: histogram(x)),
    "mean_intensity": ("image", lambda x, ks, lit: mean_intensity(x)),
    "entropy_normalized": ("image", lambda x, ks, lit: entropy_normalized(x)),
    "correlation_adjacent": ("image",
                             lambda x, ks, lit: correlation_adjacent(x, "vertical")),
    "npcr-c1": ("c1", lambda x, ks, lit: npcr(x, _GOOD)),
    "npcr-c2": ("c2", lambda x, ks, lit: npcr(_GOOD, x)),
    "uaci-c1": ("c1", lambda x, ks, lit: uaci(x, _GOOD)),
    "uaci-c2": ("c2", lambda x, ks, lit: uaci(_GOOD, x)),
    "analyze_image": ("image", lambda x, ks, lit: analyze_image(x)),
}


@pytest.mark.parametrize("case", MALFORMED_IMAGES)
@pytest.mark.parametrize("taker", IMAGE_TAKERS)
def test_every_taker_refuses_a_malformed_image(taker, case, default_keystream_key,
                                               default_literal_key):
    name, call = IMAGE_TAKERS[taker]
    x = MALFORMED_IMAGES[case]
    message = (f"{name} must be a non-empty 2-D uint8 array, "
               f"got {x.dtype} of shape {x.shape}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(x, default_keystream_key, default_literal_key)


class TestKeyFile:
    def test_good_key_parses(self):
        ks = parse_key_file(GOOD_KEY)
        assert ks.burn_in == 16
        assert ks.mode == "keystream"
        assert not ks.normalized
        s1 = ks.stages[0]
        assert (s1.x0, s1.n1, s1.n2, s1.a1, s1.a2, s1.eps) == (
            0.2, 3, 4, 2.0, 2.5, 0.4,
        )

    def test_roundtrip_through_formatter(self):
        ks = parse_key_file(GOOD_KEY)
        assert parse_key_file(format_key_file(ks)) == ks

    def test_load_from_path(self, key_path):
        assert load_key_file(key_path) == parse_key_file(GOOD_KEY)

    def test_load_ignores_a_byte_order_mark(self, key_path, tmp_path):
        bom = tmp_path / "bom.key"
        bom.write_bytes(b"\xef\xbb\xbf" + key_path.read_bytes())
        assert load_key_file(bom) == load_key_file(key_path)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["crlf", "bom-crlf"])
    def test_crlf_key_file_loads_as_its_lf_copy(self, bom, tmp_path):
        path = tmp_path / "crlf.key"
        path.write_bytes(bom + GOOD_KEY.replace("\n", "\r\n").encode())
        assert load_key_file(path) == parse_key_file(GOOD_KEY)

    def test_equal_texts_share_one_schedule(self, cold_key_cache):
        copy = GOOD_KEY[:10] + GOOD_KEY[10:]
        assert copy is not GOOD_KEY
        assert parse_key_file(copy) is parse_key_file(GOOD_KEY)

    def test_refused_text_raises_on_every_call(self, cold_key_cache):
        bad = "bogus = 1\n" + GOOD_KEY
        for _ in range(2):
            with pytest.raises(KeyFileError, match="^line 1: unknown global key 'bogus'$"):
                parse_key_file(bad)
        assert cold_key_cache.cache_info().currsize == 0

    def test_cache_holds_as_many_texts_as_the_mask_cache(self):
        assert parse_key_file.cache_info().maxsize == MASK_CACHE_SIZE

    def test_rewritten_key_file_loads_its_new_key(self, cold_key_cache, key_path):
        old = load_key_file(key_path)
        key_path.write_text(GOOD_KEY.replace("x0 = 0.2", "x0 = 0.25", 1))
        new = load_key_file(key_path)
        assert new.stages[0].x0 == 0.25 and new.stages[1:] == old.stages[1:]

    def test_decrypt_under_a_parsed_text_builds_no_parameters(
        self, cold_key_cache, monkeypatch
    ):
        m = np.arange(64, dtype=np.uint8).reshape(8, 8)
        e = encrypt(m, parse_key_file(GOOD_KEY))
        built = []

        def counted(*args, **kwargs):
            built.append(kwargs)
            return ChaosParams(*args, **kwargs)

        monkeypatch.setattr(keyfile, "ChaosParams", counted)
        assert np.array_equal(decrypt(e, parse_key_file(GOOD_KEY)), m)
        assert built == []
        parse_key_file(GOOD_KEY + "\n")
        assert len(built) == 4

    @pytest.mark.parametrize("line, bad", [
        ("N1 = 3", "N1 = 0_3"),
        ("N1 = 3", "N1 = \u0663"),
        ("burn_in = 16", "burn_in = 1_6"),
        ("x0 = 0.2", "x0 = 0.2_0"),
        ("eps = 0.4", "eps = \uff10.\uff14"),
    ], ids=["underscore-int", "arabic-indic-digit", "underscore-burn-in",
            "underscore-float", "fullwidth-float"])
    def test_numbers_are_plain_ascii(self, line, bad):
        name = line.split()[0]
        lineno = GOOD_KEY.splitlines().index(line) + 1
        with pytest.raises(KeyFileError, match=fr"^line {lineno}: {name} must be "
                                               r"(an integer|a number), got '"):
            parse_key_file(GOOD_KEY.replace(line, bad, 1))

    @pytest.mark.parametrize("old, new, message", [
        ("[stage 4]", "[stage 5]", "line 29: stage number must be 1..4, got 5"),
        ("[stage 4]", "[stage " + "9" * 5000 + "]",
         "line 29: stage number must be 1..4, got an integer of over 20 digits"),
        ("[stage 4]", "[stage 2]", "line 29: duplicate [stage 2] block"),
        ("burn_in = 16", "x0 0.2", "line 1: expected 'name = value', got 'x0 0.2'"),
        ("x0 = 0.31", "xx = 0.31", "line 14: unknown stage key 'xx'"),
        ("x0 = 0.2", "x0 = two", "line 6: x0 must be a number, got 'two'"),
        ("N1 = 3", "x0 = 0.2", "line 7: duplicate key 'x0' in stage 1"),
        ("mode = keystream", "burn_in = 8", "line 3: duplicate global key 'burn_in'"),
        ("N2 = 4\n", "", "stage 1: missing parameter 'N2'"),
        (GOOD_KEY[GOOD_KEY.index("[stage 4]"):], "", "missing [stage 4] block"),
    ], ids=["stage-5", "5000-digit-stage", "duplicate-stage", "not-name-value",
            "unknown-stage-key", "non-numeric", "duplicate-stage-key",
            "duplicate-global-key", "missing-parameter", "missing-stage"])
    def test_refused_text_names_its_line_or_block(self, old, new, message):
        with pytest.raises(KeyFileError, match=f"^{re.escape(message)}$"):
            parse_key_file(GOOD_KEY.replace(old, new, 1))

    # A quoted value, name or line of over 40 characters is cut to its first
    # 40, so the message stays short and still names the line.
    @pytest.mark.parametrize("old, new, message", [
        ("burn_in = 16", "burn_in = " + "9" * 5000,
         "line 1: burn_in must be an integer, got '" + "9" * 40
         + "'... (5000 characters)"),
        ("burn_in = 16", "x" * 5000 + " = 1",
         "line 1: unknown global key '" + "x" * 40 + "'... (5000 characters)"),
        ("burn_in = 16", "x" * 5000,
         "line 1: expected 'name = value', got '" + "x" * 40 + "'... (5000 characters)"),
    ], ids=["5000-digit-value", "5000-character-name", "5000-character-line"])
    def test_long_refused_text_is_cut(self, old, new, message):
        with pytest.raises(KeyFileError, match=f"^{re.escape(message)}$"):
            parse_key_file(GOOD_KEY.replace(old, new, 1))

    def test_unknown_key_names_line(self):
        bad = GOOD_KEY.replace("mode = keystream", "mode = keystream\nbogus = 1", 1)
        with pytest.raises(KeyFileError, match="^line 4: unknown global key 'bogus'$"):
            parse_key_file(bad)

    @pytest.mark.parametrize("line, value, rule, shown", [
        ("eps = 0.4", "1.0", EPS_RULE, "1.0"),
        ("N1 = 3", "1", DEGREE_RULE, "1"),
        ("N1 = 3", str(10**400), DEGREE_RULE, "an integer of over 20 digits"),
        ("N2 = 4", str(10**400), DEGREE_RULE, "an integer of over 20 digits"),
        ("N1 = 3", "1048577", DEGREE_RULE, "1048577"),
        ("a1 = 2", "1e200", SCALE_RULE, r"1e\+200"),
        ("a2 = 2.5", "1e200", SCALE_RULE, r"1e\+200"),
        ("x0 = 0.2", "nan", "must be finite and positive", "nan"),
        ("a1 = 2", "nan", SCALE_RULE, "nan"),
        ("a2 = 2.5", "nan", SCALE_RULE, "nan"),
        ("eps = 0.4", "nan", EPS_RULE, "nan"),
    ], ids=["eps-1", "N1-1", "N1-10**400", "N2-10**400", "N1-2**20+1", "a1-1e200",
            "a2-1e200", "x0-nan", "a1-nan", "a2-nan", "eps-nan"])
    def test_stage_value_refusal_names_its_line(self, line, value, rule, shown):
        name = line.split()[0]
        lineno = GOOD_KEY.splitlines().index(line) + 1
        with pytest.raises(KeyFileError, match=fr"^stage 1 \(line {lineno}\): "
                                               fr"{name} {rule}, got {shown}$"):
            parse_key_file(GOOD_KEY.replace(line, f"{name} = {value}", 1))

    def test_largest_degree_accepted(self):
        good = GOOD_KEY.replace("N1 = 3", "N1 = 1048576", 1)
        assert parse_key_file(good).stages[0].n1 == 2**20

    def test_largest_burn_in_accepted(self):
        good = GOOD_KEY.replace("burn_in = 16", "burn_in = 1048576")
        assert parse_key_file(good).burn_in == 2**20

    def test_numpy_floats_survive_the_formatter(self):
        p = ChaosParams(np.float64(0.2), 3, 4, np.float64(2.0), 2.5, 0.4)
        ks = KeySchedule(stages=(p,) * 4)
        text = format_key_file(ks)
        assert "np." not in text
        assert parse_key_file(text) == ks

    def test_random_keys_survive_the_formatter(self):
        rng = np.random.default_rng(17)

        def number(lo, hi, kinds=3):
            """A float or numpy float from [lo, hi), or with kinds=3 an int."""
            v = rng.uniform(lo, hi)
            return (float(v), np.float64(v), int(v) + 1)[rng.integers(kinds)]

        for _ in range(50):
            stages = tuple(
                ChaosParams(number(0.05, 3.0), int(rng.integers(2, 2**20 + 1)),
                            int(rng.integers(2, 6)), number(0.5, 3.0),
                            number(0.5, 3.0), number(0.05, 0.95, kinds=2))
                for _ in range(4)
            )
            ks = KeySchedule(stages=stages, burn_in=int(rng.integers(0, 100)),
                             normalized=bool(rng.integers(2)),
                             mode=("literal", "keystream")[rng.integers(2)])
            assert parse_key_file(format_key_file(ks)) == ks

    @pytest.mark.parametrize("line, bad, lineno", [
        ("burn_in = 16", "burn_in = -1", 1),
        ("mode = keystream", "mode = bogus", 3),
        ("normalization = raw", "normalization = wavelet", 2),
    ])
    def test_bad_global_setting_names_its_line(self, line, bad, lineno):
        with pytest.raises(KeyFileError, match=f"^line {lineno}: {bad.split()[0]} "):
            parse_key_file(GOOD_KEY.replace(line, bad))

    def test_missing_global_settings_take_the_schedule_defaults(self):
        ks = parse_key_file(GOOD_KEY.split("\n\n", 1)[1])
        assert ks == KeySchedule(ks.stages)


class TestCli:
    def test_keyspace_reference_value(self, capsys):
        assert main(["keyspace", "--precision", "1e-3"]) == 0
        out = capsys.readouterr().out
        bits = float(out.strip().splitlines()[-1].split("\t")[1])
        assert bits == pytest.approx(239.18, abs=0.05)

    def test_keyspace_bad_precision_prints_nothing(self, capsys):
        assert main(["keyspace", "--precision", "0.5", "inf"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "precision must lie in (0, 1)" in err

    def test_keyspace_takes_no_instance_count(self, capsys):
        assert main(["keyspace", "--precision", "1e-3", "--instances", "24"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_diff_image_with_itself(self, capsys, image_path):
        assert main(["diff", "--a", str(image_path), "--b", str(image_path)]) == 0
        out = capsys.readouterr().out
        assert "npcr_percent = 0.000000" in out
        assert "uaci_percent = 0.000000" in out

    def test_encrypt_decrypt_roundtrip(self, tmp_path, image_path, key_path, capsys):
        enc = tmp_path / "enc.pgm"
        dec = tmp_path / "dec.pgm"
        assert main(["encrypt", "--in", str(image_path), "--key", str(key_path),
                     "--out", str(enc)]) == 0
        assert main(["decrypt", "--in", str(enc), "--key", str(key_path),
                     "--out", str(dec)]) == 0
        assert read_pgm(dec).pixels.tobytes() == read_pgm(image_path).pixels.tobytes()

    def test_encrypt_to_devnull(self, image_path, key_path):
        assert main(["encrypt", "--in", str(image_path), "--key", str(key_path),
                     "--out", os.devnull]) == 0

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_literal_mode_refused_before_writing(self, tmp_path, image_path,
                                                 command, capsys):
        key = tmp_path / "literal.key"
        key.write_text(GOOD_KEY.replace("mode = keystream", "mode = literal"))
        before = image_path.read_bytes()
        rc = main([command, "--in", str(image_path), "--key", str(key),
                   "--out", str(image_path)])
        assert rc == 2
        assert image_path.read_bytes() == before
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {command} needs a keystream-mode key, not a literal-mode one\n"

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "transform"])
    def test_status_lines_go_to_stderr(self, tmp_path, image_path, key_path,
                                       command, capsys):
        out = ["--out-dir", str(tmp_path / "b")] if command == "transform" else [
            "--out", str(tmp_path / "o.pgm")]
        assert main([command, "--in", str(image_path), "--key", str(key_path),
                     *out]) == 0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("wrote ")

    @pytest.mark.skipif(os.name != "posix", reason="needs /dev/stdout")
    def test_encrypt_to_stdout_writes_only_the_pgm(self, tmp_path, image_path,
                                                   key_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        args = [sys.executable, "-m", "cthwave.cli", "encrypt", "--in", str(image_path),
                "--key", str(key_path), "--out"]
        to_file = tmp_path / "e.pgm"
        subprocess.run([*args, str(to_file)], env=env, check=True, capture_output=True)
        piped = subprocess.run([*args, "/dev/stdout"], env=env, check=True,
                               capture_output=True)
        assert piped.stdout == to_file.read_bytes()

    def test_analyze_report(self, capsys, image_path, tmp_path):
        csv = tmp_path / "hist.csv"
        assert main(["analyze", "--in", str(image_path), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "entropy_normalized = " in out
        assert "corr_horizontal = " in out
        assert csv.read_text().startswith("level,count")

    def test_analyze_constant_image_prints_unsigned_zero_entropy(self, tmp_path,
                                                                 capsys):
        path = tmp_path / "flat.pgm"
        write_pgm(GrayImage(np.full((64, 64), 9, np.uint8)), path)
        assert main(["analyze", "--in", str(path)]) == 0
        assert "entropy_normalized = 0.000000\n" in capsys.readouterr().out

    def test_transform_writes_subbands(self, tmp_path, image_path, key_path, capsys):
        out_dir = tmp_path / "bands"
        assert main(["transform", "--in", str(image_path), "--key", str(key_path),
                     "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.glob("*.pgm"))
        assert names == [
            "L1_HH.pgm", "L1_HL.pgm", "L1_LH.pgm",
            "L2_HH.pgm", "L2_HL.pgm", "L2_LH.pgm", "L2_LL.pgm",
        ]
        ll = read_pgm(out_dir / "L2_LL.pgm")
        assert ll.pixels.shape == (16, 16)

    @pytest.mark.parametrize("normalization", ["raw", "normalized"])
    def test_transform_writes_the_rescaled_quadrants(self, tmp_path, image_path,
                                                     normalization, capsys):
        key = tmp_path / "k.key"
        key.write_text(GOOD_KEY.replace("normalization = raw",
                                        f"normalization = {normalization}"))
        out_dir = tmp_path / "bands"
        assert main(["transform", "--in", str(image_path), "--key", str(key),
                     "--out-dir", str(out_dir)]) == 0
        img = read_pgm(image_path).pixels
        n = img.shape[0]
        # Stage 1 at side n, then stage 2 on the top-left n/2 square.
        h1, h2 = _stage_matrices(load_key_file(key), n)[:2]
        f = forward_2d(img, h1)
        f[:n // 2, :n // 2] = forward_2d(f[:n // 2, :n // 2].copy(), h2)
        for level in (1, 2):
            h = n >> level
            bands = {"LH": f[h:2 * h, :h], "HL": f[:h, h:2 * h],
                     "HH": f[h:2 * h, h:2 * h]}
            if level == 2:
                bands["LL"] = f[:h, :h]
            for band, values in bands.items():
                written = read_pgm(out_dir / f"L{level}_{band}.pgm").pixels
                assert written.tobytes() == rescale_to_bytes(values).tobytes()

    # Side 6 has one level: its level-1 quadrants have side 3.
    @pytest.mark.parametrize("pixels", [synthetic_test_image(6),
                                        np.zeros((8, 16), np.uint8)],
                             ids=["side-6", "non-square"])
    def test_transform_refuses_an_image_it_cannot_split_twice(
            self, tmp_path, key_path, pixels, capsys):
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(pixels), plain)
        rc = main(["transform", "--in", str(plain), "--key", str(key_path),
                   "--out-dir", str(tmp_path / "bands")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: image shape {pixels.shape} not divisible into 2 levels\n")
        assert not (tmp_path / "bands").exists()

    # transform takes any square side that 4 divides; the cipher also needs
    # even level-2 quadrants for its spiral swap, so it refuses side 20.
    @pytest.mark.parametrize("n, cipher_rc", [(12, 0), (20, 2)],
                             ids=["side-12", "side-20"])
    def test_transform_takes_every_side_4_divides(self, tmp_path, key_path, n,
                                                  cipher_rc, capsys):
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(synthetic_test_image(n)), plain)
        assert main(["transform", "--in", str(plain), "--key", str(key_path),
                     "--out-dir", str(tmp_path / "bands")]) == 0
        for band in ("LL", "HL", "LH", "HH"):
            l2 = read_pgm(tmp_path / "bands" / f"L2_{band}.pgm")
            assert l2.pixels.shape == (n // 4, n // 4)
        assert main(["encrypt", "--in", str(plain), "--key", str(key_path),
                     "--out", str(tmp_path / "c.pgm")]) == cipher_rc

    # transform writes the cipher's two levels; analyze reports correlations
    # at the audit's pair count.  Neither takes an option to change that.
    @pytest.mark.parametrize("command, option", [
        ("transform", ["--levels", "2"]),
        ("analyze", ["--pairs", "10"]),
        ("analyze", ["--seed", "3"]),
    ], ids=["transform-levels", "analyze-pairs", "analyze-seed"])
    def test_deleted_option_is_a_usage_error(self, tmp_path, image_path, key_path,
                                             command, option, capsys):
        args = {"transform": ["--key", str(key_path), "--out-dir", str(tmp_path / "b")],
                "analyze": []}[command]
        assert main([command, "--in", str(image_path), *args, *option]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_analyze_pairs_default(self, image_path, capsys):
        assert main(["analyze", "--in", str(image_path)]) == 0
        report = analyze_image(read_pgm(image_path).pixels, n_pairs=ANALYZE_PAIRS)
        out = capsys.readouterr().out
        for direction in ("horizontal", "vertical", "diagonal"):
            value = getattr(report, f"corr_{direction}")
            assert f"corr_{direction} = {value:.6f}\n" in out
        assert ANALYZE_PAIRS == 1_000_000

    def test_usage_error_exit_code(self, capsys):
        assert main(["keyspace"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error_exit_code(self, tmp_path, key_path, capsys):
        missing = tmp_path / "missing.pgm"
        rc = main(["encrypt", "--in", str(missing), "--key", str(key_path),
                   "--out", str(tmp_path / "o.pgm")])
        assert rc == 2

    @pytest.mark.parametrize("command, out, line, value, message", [
        ("encrypt", "--out", "a2 = 2.5", "1e-200",
         f"stage 1 (line 10): a2 {SCALE_RULE}, got 1e-200"),
        ("transform", "--out-dir", "a2 = 2.5", "1e-200",
         f"stage 1 (line 10): a2 {SCALE_RULE}, got 1e-200"),
        ("encrypt", "--out", "a1 = 2", "1e200",
         f"stage 1 (line 9): a1 {SCALE_RULE}, got 1e+200"),
        ("encrypt", "--out", "N1 = 3", str(10**400), "stage 1 (line 7): N1 must be "
         "an integer in [2, 2**20], got an integer of over 20 digits"),
        ("encrypt", "--out", "N1 = 3", "1048577",
         "stage 1 (line 7): N1 must be an integer in [2, 2**20], got 1048577"),
        ("encrypt", "--out", "burn_in = 16", "1048577",
         "line 1: burn_in must be <= 2**20, got 1048577"),
    ], ids=["a2-1e-200-encrypt", "a2-1e-200-transform", "a1-1e200", "N1-10**400",
            "N1-2**20+1", "burn-in-2**20+1"])
    def test_refused_key_value_is_a_data_error_naming_its_line(
            self, tmp_path, image_path, command, out, line, value, message, capsys):
        key = tmp_path / "bad.key"
        key.write_text(GOOD_KEY.replace(line, f"{line.split()[0]} = {value}", 1))
        rc = main([command, "--in", str(image_path), "--key", str(key),
                   out, str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {key}: {message}\n"
        assert not (tmp_path / "out").exists()

    # Which of encrypt's two files is at fault: the key file names itself.
    @pytest.mark.parametrize("data, message", [
        (b"\377", "not UTF-8 text at byte 0"),
        (b"burn_in = 16\n", "missing [stage 1] block"),
    ], ids=["not-utf-8", "missing-stage"])
    def test_refused_key_file_is_named(self, tmp_path, image_path, data, message,
                                       capsys):
        key = tmp_path / "bad.key"
        key.write_bytes(data)
        rc = main(["encrypt", "--in", str(image_path), "--key", str(key),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {key}: {message}\n"
        assert not (tmp_path / "out").exists()

    # Stage 1's burn-in reaches a tan pole, and again after the perturbation.
    @pytest.mark.parametrize("command, out", [("encrypt", "--out"),
                                              ("transform", "--out-dir")],
                             ids=["encrypt", "transform"])
    def test_degenerate_key_is_a_numeric_error(self, tmp_path, image_path, command,
                                               out, capsys):
        key = tmp_path / "degenerate.key"
        key.write_text(GOOD_KEY.replace("x0 = 0.2", "x0 = 1e30", 1))
        rc = main([command, "--in", str(image_path), "--key", str(key),
                   out, str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err == ("numeric degeneracy: orbit degenerate near "
                                           "x=1e+30 (pole after perturbation)\n")
        assert not (tmp_path / "out").exists()

    def test_crypt_takes_every_side_the_cipher_takes(self, tmp_path, key_path,
                                                     capsys):
        plain, enc, dec = (tmp_path / f"{name}.pgm" for name in ("p", "e", "d"))
        pixels = np.random.default_rng(5).integers(0, 256, (24, 24), dtype=np.uint8)
        write_pgm(GrayImage(pixels), plain)
        assert main(["encrypt", "--in", str(plain), "--key", str(key_path),
                     "--out", str(enc)]) == 0
        assert main(["decrypt", "--in", str(enc), "--key", str(key_path),
                     "--out", str(dec)]) == 0
        assert read_pgm(dec).pixels.tobytes() == pixels.tobytes()

    def test_crypt_refuses_a_side_the_swap_cannot_serve(self, tmp_path, key_path,
                                                       capsys):
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(np.zeros((20, 20), np.uint8)), plain)
        rc = main(["encrypt", "--in", str(plain), "--key", str(key_path),
                   "--out", str(tmp_path / "e.pgm")])
        assert rc == 2
        assert "side 4, 12 or a multiple of 8" in capsys.readouterr().err

    def test_crypt_refuses_a_side_above_the_limit(self, tmp_path, key_path,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(cipher, "MAX_SIDE", 16)
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(np.zeros((24, 24), np.uint8)), plain)
        rc = main(["encrypt", "--in", str(plain), "--key", str(key_path),
                   "--out", str(tmp_path / "e.pgm")])
        assert rc == 2
        assert "at most 16 pixels wide" in capsys.readouterr().err
        assert not (tmp_path / "e.pgm").exists()

    def test_transform_refuses_a_side_above_the_limit(self, tmp_path, key_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(cipher, "MAX_SIDE", 16)
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(np.zeros((24, 24), np.uint8)), plain)
        rc = main(["transform", "--in", str(plain), "--key", str(key_path),
                   "--out-dir", str(tmp_path / "bands")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: image must be at most 16 pixels wide, got shape (24, 24)\n")
        assert not (tmp_path / "bands").exists()


def test_security_script_reports_a_constant_image(tmp_path, monkeypatch, capsys):
    plain = tmp_path / "flat.pgm"
    write_pgm(GrayImage(np.full((64, 64), 9, np.uint8)), plain)
    script = Path(__file__).parents[1] / "scripts" / "run_security_analysis.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--image", str(plain)])
    runpy.run_path(str(script), run_name="__main__")
    plain_block = capsys.readouterr().out.split("\n\n")[0]
    for direction in ("horizontal", "vertical", "diagonal"):
        assert f"corr_{direction:<13} = undefined" in plain_block


def test_worked_matrix_script_runs_without_pytest():
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "reproduce_worked_matrix.py"
    code = ("import runpy, sys; sys.modules['pytest'] = None; "
            "runpy.run_path(sys.argv.pop(), run_name='__main__')")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-W", "error", "-c", code, str(script)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "max entry deviation" in run.stdout
