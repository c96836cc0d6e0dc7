import os
import stat

import numpy as np
import pytest

from cthwave.chaos import ChaosParams
from cthwave.cipher import KeySchedule, _stage_matrices
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
from cthwave.metrics import ANALYZE_PAIRS, analyze_image
from cthwave.wavelet import decompose

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
        assert img.width == 8 and img.pixels[7, 7] == 63

    def test_comments_permitted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n4 2 # inline\n255\n" + bytes(8))
        img = read_pgm(path)
        assert (img.width, img.height) == (4, 2)

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

    def test_rescale(self):
        v = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = rescale_to_bytes(v)
        assert out[0, 0] == 0 and out[1, 1] == 255
        assert np.all(rescale_to_bytes(np.full((3, 3), 7.0)) == 128)


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

    def test_eps_boundary_rejected(self):
        bad = GOOD_KEY.replace("eps = 0.4\n\n[stage 2]", "eps = 1.0\n\n[stage 2]")
        with pytest.raises(KeyFileError, match="eps"):
            parse_key_file(bad)

    def test_degree_one_rejected(self):
        bad = GOOD_KEY.replace("N1 = 3", "N1 = 1", 1)
        with pytest.raises(KeyFileError, match="N1"):
            parse_key_file(bad)

    def test_missing_stage_rejected(self):
        bad = GOOD_KEY.split("[stage 4]")[0]
        with pytest.raises(KeyFileError, match="stage 4"):
            parse_key_file(bad)

    def test_unknown_key_names_line(self):
        bad = "bogus = 1\n" + GOOD_KEY
        with pytest.raises(KeyFileError, match="line 1"):
            parse_key_file(bad)

    def test_unknown_stage_key_rejected(self):
        bad = GOOD_KEY.replace("x0 = 0.31", "xx = 0.31")
        with pytest.raises(KeyFileError, match="xx"):
            parse_key_file(bad)

    @pytest.mark.parametrize("line, lineno", [("N1 = 3", 7), ("N2 = 4", 8)])
    def test_degree_beyond_float_names_its_line(self, line, lineno):
        name = line.split()[0]
        bad = GOOD_KEY.replace(line, f"{name} = {10**400}", 1)
        with pytest.raises(KeyFileError, match=fr"^stage 1 \(line {lineno}\): "
                                               fr"{name} must be an integer in"):
            parse_key_file(bad)

    def test_degree_above_2_to_the_20_names_its_line(self):
        bad = GOOD_KEY.replace("N1 = 3", "N1 = 1048577", 1)
        with pytest.raises(KeyFileError, match=r"^stage 1 \(line 7\): N1 must be "
                                               r"an integer in \[2, 2\*\*20\]"):
            parse_key_file(bad)
        good = GOOD_KEY.replace("N1 = 3", "N1 = 1048576", 1)
        assert parse_key_file(good).stages[0].n1 == 2**20

    @pytest.mark.parametrize("line, lineno", [("a1 = 2", 9), ("a2 = 2.5", 10)])
    def test_overflowing_map_scale_names_its_line(self, line, lineno):
        name = line.split()[0]
        bad = GOOD_KEY.replace(line, f"{name} = 1e200", 1)
        with pytest.raises(KeyFileError, match=fr"^stage 1 \(line {lineno}\): "
                                               fr"{name} must be positive with a "
                                               fr"finite nonzero square"):
            parse_key_file(bad)

    @pytest.mark.parametrize("line, lineno, rule", [
        ("x0 = 0.2", 6, "must be finite and positive"),
        ("a1 = 2", 9, "must be positive with a finite nonzero square"),
        ("a2 = 2.5", 10, "must be positive with a finite nonzero square"),
        ("eps = 0.4", 11, r"must lie in \(0, 1\)"),
    ], ids=["x0", "a1", "a2", "eps"])
    def test_nan_names_its_rule_and_line(self, line, lineno, rule):
        name = line.split()[0]
        bad = GOOD_KEY.replace(line, f"{name} = nan", 1)
        with pytest.raises(KeyFileError, match=fr"^stage 1 \(line {lineno}\): "
                                               fr"{name} {rule}, got nan$"):
            parse_key_file(bad)

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

    def test_non_numeric_value_names_line(self):
        bad = GOOD_KEY.replace("x0 = 0.2", "x0 = two")
        with pytest.raises(KeyFileError, match="line"):
            parse_key_file(bad)

    @pytest.mark.parametrize("line, bad", [
        ("burn_in = 16", "burn_in = -1"),
        ("mode = keystream", "mode = bogus"),
        ("normalization = raw", "normalization = wavelet"),
    ])
    def test_bad_global_setting_names_the_field(self, line, bad):
        with pytest.raises(KeyFileError, match=bad.split()[0]):
            parse_key_file(GOOD_KEY.replace(line, bad))

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

    def test_keyspace_monotone_table(self, capsys):
        assert main(["keyspace", "--precision", "1e-2", "1e-3", "1e-4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        bits = [float(line.split("\t")[1]) for line in lines]
        assert bits == sorted(bits) and bits[0] < bits[-1]

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

    def test_decrypt_refuses_literal_mode(self, tmp_path, image_path, capsys):
        key = tmp_path / "literal.key"
        key.write_text(GOOD_KEY.replace("mode = keystream", "mode = literal"))
        rc = main(["decrypt", "--in", str(image_path), "--key", str(key),
                   "--out", str(tmp_path / "x.pgm")])
        assert rc == 2
        assert "literal" in capsys.readouterr().err

    def test_analyze_report(self, capsys, image_path, tmp_path):
        csv = tmp_path / "hist.csv"
        assert main(["analyze", "--in", str(image_path), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "entropy_normalized = " in out
        assert "corr_horizontal = " in out
        assert csv.read_text().startswith("level,count")

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
        assert (ll.width, ll.height) == (16, 16)

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
        # Stage 1 at side n, then stage 2 at side n/2.
        f = decompose(img, _stage_matrices(load_key_file(key), n)[:2])
        for level in (1, 2):
            h = n >> level
            bands = {"LH": f[h:2 * h, :h], "HL": f[:h, h:2 * h],
                     "HH": f[h:2 * h, h:2 * h]}
            if level == 2:
                bands["LL"] = f[:h, :h]
            for band, values in bands.items():
                written = read_pgm(out_dir / f"L{level}_{band}.pgm").pixels
                assert written.tobytes() == rescale_to_bytes(values).tobytes()

    def test_transform_refuses_more_levels_than_the_side_allows(
            self, tmp_path, key_path, capsys):
        # Side 6 has one level: its level-1 quadrants have side 3.
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(synthetic_test_image(6)), plain)
        rc = main(["transform", "--in", str(plain), "--key", str(key_path),
                   "--out-dir", str(tmp_path / "bands")])
        assert rc == 2
        assert "not divisible into 2 levels" in capsys.readouterr().err

    def test_transform_takes_every_side_decompose_takes(self, tmp_path, key_path,
                                                         capsys):
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(synthetic_test_image(12)), plain)
        assert main(["transform", "--in", str(plain), "--key", str(key_path),
                     "--out-dir", str(tmp_path / "bands")]) == 0
        ll = read_pgm(tmp_path / "bands" / "L2_LL.pgm")
        assert (ll.width, ll.height) == (3, 3)

    def test_transform_refuses_a_non_square_image(self, tmp_path, key_path, capsys):
        plain = tmp_path / "p.pgm"
        write_pgm(GrayImage(np.zeros((8, 16), np.uint8)), plain)
        rc = main(["transform", "--in", str(plain), "--key", str(key_path),
                   "--out-dir", str(tmp_path / "bands")])
        assert rc == 2
        assert "not divisible into 2 levels" in capsys.readouterr().err

    # transform writes the cipher's two levels; analyze reports the audit's
    # pair count with seed 0.  Neither takes an option to change that.
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

    @pytest.mark.parametrize("command, out", [
        ("encrypt", "--out"), ("transform", "--out-dir"),
    ])
    def test_underflowing_map_scale_names_its_line(self, tmp_path, image_path,
                                                   command, out, capsys):
        key = tmp_path / "tiny.key"
        key.write_text(GOOD_KEY.replace("a2 = 2.5", "a2 = 1e-200", 1))
        rc = main([command, "--in", str(image_path), "--key", str(key),
                   out, str(tmp_path / "out")])
        assert rc == 2
        assert "(line 10): a2 " in capsys.readouterr().err

    def test_overflowing_map_scale_is_a_data_error(self, tmp_path, image_path,
                                                   capsys):
        key = tmp_path / "vast.key"
        key.write_text(GOOD_KEY.replace("a1 = 2\n", "a1 = 1e200\n", 1))
        rc = main(["encrypt", "--in", str(image_path), "--key", str(key),
                   "--out", str(tmp_path / "out.pgm")])
        assert rc == 2
        assert "(line 9): a1 must be positive" in capsys.readouterr().err

    def test_degree_beyond_float_is_a_data_error(self, tmp_path, image_path,
                                                 capsys):
        key = tmp_path / "huge.key"
        key.write_text(GOOD_KEY.replace("N1 = 3", f"N1 = {10**400}", 1))
        rc = main(["encrypt", "--in", str(image_path), "--key", str(key),
                   "--out", str(tmp_path / "out.pgm")])
        assert rc == 2
        assert "(line 7): N1 must be an integer in [2, 2**20]" in capsys.readouterr().err

    def test_degree_above_2_to_the_20_is_a_data_error(self, tmp_path, image_path,
                                                      capsys):
        key = tmp_path / "wide.key"
        key.write_text(GOOD_KEY.replace("N1 = 3", "N1 = 1048577", 1))
        rc = main(["encrypt", "--in", str(image_path), "--key", str(key),
                   "--out", str(tmp_path / "out.pgm")])
        assert rc == 2
        assert "(line 7): N1 must be an integer in [2, 2**20], got 1048577" in (
            capsys.readouterr().err)

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

    def test_deterministic_output(self, tmp_path, image_path, key_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        main(["encrypt", "--in", str(image_path), "--key", str(key_path),
              "--out", str(a)])
        main(["encrypt", "--in", str(image_path), "--key", str(key_path),
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
