import csv
import io
import json
import math

import numpy as np
import pytest

from rmrec import CodeParams, encode
from rmrec.analysis import q_function
from rmrec.cli import (
    OUTPUT_KEYS,
    codeword_to_hex,
    codeword_to_text,
    hex_to_info,
    info_to_hex,
    main,
    parse_word,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hex_roundtrip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    text = info_to_hex(bits)
    assert text == "16"
    assert np.array_equal(hex_to_info(text, 5), bits)
    with pytest.raises(ValueError):
        hex_to_info("ff", 5)


def test_hex_takes_hex_digits_only(capsys):
    # int(text, 16) alone would read a sign, a 0x prefix, underscores and
    # non-ASCII digits, and call a negative value too wide
    for text in ("0x5", "+5", "1_0", "-1", "", "  ", "5g", "\u0663"):
        with pytest.raises(ValueError, match="not hex"):
            hex_to_info(text, 8)
    assert np.array_equal(hex_to_info(" 0A\n", 8), [0, 0, 0, 0, 1, 0, 1, 0])
    assert np.array_equal(hex_to_info("Ff", 8), [1] * 8)
    for info in ("0x5", "+5", "1_0", "-1"):
        code, out, err = run_cli(capsys, "encode", "--m", "3", "--r", "1", info)
        assert code == 2 and out == "" and "not hex" in err
    # a received word is not an info block, and its size is n
    code, out, err = run_cli(capsys, "decode", "--m", "3", "--r", "1", "1ff")
    assert code == 2 and out == "" and "received word '1ff'" in err and "n=8 bits" in err
    code, out, err = run_cli(capsys, "decode", "--m", "3", "--r", "1", "0x5")
    assert code == 2 and out == "" and "received word '0x5' is not hex" in err
    code, out, _ = run_cli(capsys, "decode", "--m", "3", "--r", "1", " 0f ")
    assert code == 0 and "codeword ++++----" in out


def test_parse_word_formats():
    assert np.array_equal(parse_word("++--", 4), [1, 1, -1, -1])
    assert np.array_equal(parse_word("3", 4), [1, 1, -1, -1])
    assert np.allclose(parse_word("0.5 -0.25 1 0", 4), [0.5, -0.25, 1.0, 0.0])
    with pytest.raises(ValueError):
        parse_word("++-", 4)
    with pytest.raises(ValueError, match="n=4 values"):
        parse_word("0.5 -0.25 1", 4)


def test_info_command(capsys):
    code, out, _ = run_cli(capsys, "info", "--m", "7", "--r", "2")
    assert code == 0
    assert "n=128 k=29 d=32" in out
    assert out.count("\n") == 2 + 29  # header lines plus one row per path


def test_info_lists_example_paths(capsys):
    code, out, _ = run_cli(capsys, "info", "--m", "3", "--r", "1")
    assert code == 0
    for row in ("011 left", "101 left", "110 right", "111 right"):
        assert row in out


def test_info_usage_error(capsys):
    code, _, err = run_cli(capsys, "info", "--m", "2", "--r", "3")
    assert code == 2
    assert "error" in err


def test_encode_decode_roundtrip(capsys):
    params = CodeParams(4, 2)
    rng = np.random.default_rng(0)
    info = rng.integers(0, 2, params.k).astype(np.uint8)
    info_hex = info_to_hex(info)
    code, out, _ = run_cli(capsys, "encode", "--m", "4", "--r", "2", info_hex)
    assert code == 0
    word = out.splitlines()[0].split()[1]
    assert word == codeword_to_text(encode(info, params))
    code, out, _ = run_cli(capsys, "decode", "--m", "4", "--r", "2", word,
                           "--algo", "phi")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["info"] == info_hex
    assert lines["codeword"] == word
    assert int(lines["ops"]) > 0


def test_encode_all_zero(capsys):
    code, out, _ = run_cli(capsys, "encode", "--m", "3", "--r", "1", "0")
    assert code == 0
    assert "++++++++" in out


def test_decode_rejects_phi_on_repetition(capsys):
    code, _, err = run_cli(capsys, "decode", "--m", "3", "--r", "0",
                           "++++++++", "--algo", "phi")
    assert code == 2 and "phi" in err


def test_simulate_rejects_phi_on_repetition(capsys):
    code, out, err = run_cli(capsys, "simulate", "--m", "3", "--r", "0", "--algo", "phi",
                             "--channel", "bsc:0.1", "--trials", "10")
    assert code == 2 and out == "" and "phi requires r >= 1" in err


def test_decode_bad_word(capsys):
    code, _, err = run_cli(capsys, "decode", "--m", "3", "--r", "1", "++")
    assert code == 2


def test_decode_rejects_non_finite_reals(capsys):
    for word, algo in (("nan 1 1 1 1 1 1 1", "psi"), ("inf -inf 1 1 1 1 1 1", "phi"),
                       ("1 1 1 1 1 1 1 -inf", "psi")):
        code, out, err = run_cli(capsys, "decode", "--m", "3", "--r", "1", word,
                                 "--algo", algo)
        assert code == 2 and out == "" and "finite" in err
    with pytest.raises(ValueError):
        parse_word("0.5 nan", 2)


def test_decode_rejects_overflow_to_nan(capsys):
    # finite reals whose v-step products overflow to inf, then inf - inf
    word = "1e200 1e200 -1e200 1e200 1e200 1e200 1e200 1e200"
    code, out, err = run_cli(capsys, "decode", "--m", "3", "--r", "1", word)
    assert code == 2 and out == "" and "NaN" in err


def test_decode_from_file(capsys, tmp_path):
    word_file = tmp_path / "word.txt"
    word_file.write_text("0.9 0.8 0.7 0.6 -0.5 -0.4 -0.3 -0.2\n")
    code, out, _ = run_cli(capsys, "decode", "--m", "3", "--r", "1",
                           f"@{word_file}")
    assert code == 0
    assert "codeword ++++----" in out


def test_simulate_csv_contract(capsys):
    args = ["simulate", "--m", "5", "--r", "2", "--channel", "bsc:0.1",
            "--grid", "0.0,0.12", "--trials", "400", "--seed", "3"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == OUTPUT_KEYS
    assert len(rows) == 3
    first = dict(zip(rows[0], rows[1]))
    assert first["p"] == "0.0" and first["wer"] == "0.0"
    assert first["snr_db"] == ""  # noiseless: no finite SNR
    second = dict(zip(rows[0], rows[2]))
    assert float(second["wer"]) >= 0.0
    assert second["m"] == "5" and second["algorithm"] == "psi"
    # byte-identical on repeat with the same seed
    code2, out2, _ = run_cli(capsys, *args)
    assert code2 == 0 and out2 == out


def test_simulate_csv_values_roundtrip_exactly(capsys):
    from rmrec import Channel, DecoderOptions, SimConfig, run_wer

    code, out, _ = run_cli(capsys, "simulate", "--m", "5", "--r", "2",
                           "--channel", "bsc:0.13", "--trials", "600",
                           "--seed", "21")
    assert code == 0
    row = dict(zip(*[r for r in csv.reader(io.StringIO(out))]))
    report = run_wer(SimConfig(params=CodeParams(5, 2), channel=Channel.bsc(0.13),
                               options=DecoderOptions(tie_seed=21),
                               trials=600, master_seed=21))
    assert float(row["wer"]) == report.wer
    assert float(row["ber"]) == report.ber
    assert float(row["wer_ci"]) == report.wer_half_width
    # the emitted p and snr_db columns describe the same channel
    sigma = 1.0 / math.sqrt(2 * (CodeParams(5, 2).k / 32) * 10 ** (float(row["snr_db"]) / 10))
    assert q_function(1.0 / sigma) == pytest.approx(float(row["p"]), rel=1e-9)


def test_simulate_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--r", "1",
                           "--channel", "bsc:0.05", "--trials", "200",
                           "--seed", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["m"] == 4
    assert set(rows[0]) == set(OUTPUT_KEYS)


def test_simulate_rejects_non_finite_sigma(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "6", "--r", "2",
                           "--channel", "awgn:nan", "--trials", "10")
    assert code == 2 and "sigma" in err
    for spec in ("bsc", "foo:1"):
        code, _, err = run_cli(capsys, "simulate", "--m", "6", "--r", "2",
                               "--channel", spec, "--trials", "10")
        assert code == 2 and "channel" in err


def test_simulate_tiny_crossovers(capsys):
    # 1 - 2p rounds to one below about 5.6e-17: such a channel has no finite
    # SNR, as bsc:0; just above it the SNR is finite
    for spec, noiseless in (("bsc:1e-17", True), ("bsc:6e-17", False), ("bsc:0", True)):
        code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--r", "1",
                               "--channel", spec, "--trials", "50")
        assert code == 0
        row = dict(zip(*csv.reader(io.StringIO(out))))
        assert (row["snr_db"] == "") == noiseless and row["wer"] == "0.0"


def test_simulate_range_grid(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--r", "1",
                           "--channel", "bsc:0.1", "--grid", "0.05:0.15:3",
                           "--trials", "100", "--seed", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[OUTPUT_KEYS.index("p")] for r in rows[1:]] == ["0.05", "0.1", "0.15"]
    code, out, _ = run_cli(capsys, "simulate", "--m", "4", "--r", "1",
                           "--channel", "bsc:0.1", "--grid", "0.1:0.2:1", "--trials", "100")
    assert code == 0
    assert [r[OUTPUT_KEYS.index("p")] for r in csv.reader(io.StringIO(out))][1:] == ["0.1"]
    code, _, err = run_cli(capsys, "simulate", "--m", "4", "--r", "1",
                           "--channel", "bsc:0.1", "--grid", "0:1:0", "--trials", "100")
    assert code == 2 and "count" in err


def test_simulate_respects_env_seed(capsys, monkeypatch):
    argv = ["simulate", "--m", "4", "--r", "1", "--channel", "bsc:0.1",
            "--trials", "300"]
    monkeypatch.setenv("RM_SEED", "12")
    _, out_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("RM_SEED")
    _, out_seed, _ = run_cli(capsys, *argv, "--seed", "12")
    assert out_env == out_seed
    _, out_other, _ = run_cli(capsys, *argv, "--seed", "13")
    assert out_other != out_seed


def test_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--m", "7", "--r", "2",
                           "--at-threshold")
    assert code == 0
    assert "epsilon_psi=0.838" in out
    assert "block error bounds" in out


def test_analyze_example_variance(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--m", "4", "--r", "1",
                           "--epsilon", "0.5")
    assert code == 0
    assert "weakest variance=1.875" in out


def test_analyze_csv_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--m", "6", "--r", "2",
                           "--at-threshold", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    params = CodeParams(6, 2)
    assert len(rows) == params.k
    for row in rows:
        assert float(row["p_low"]) <= float(row["p_high"])


def test_analyze_rejects_small_constant(capsys):
    for c in ("1.0", "nan", "inf"):
        code, _, err = run_cli(capsys, "analyze", "--m", "6", "--r", "2",
                               "--c", c)
        assert code == 2 and "ln 4" in err


def test_opcount_within_bounds(capsys):
    code, out, _ = run_cli(capsys, "opcount", "--m", "7", "--r", "2",
                           "--trials", "3", "--seed", "1")
    assert code == 0
    assert "bound=1152" in out
    code, out, _ = run_cli(capsys, "opcount", "--m", "8", "--r", "3",
                           "--algo", "encode")
    assert code == 0
    assert "bound=768" in out


def test_opcount_rejects_empty_trial_count(capsys):
    code, _, err = run_cli(capsys, "opcount", "--m", "4", "--r", "1",
                           "--trials", "0")
    assert code == 2 and "trials" in err


def test_opcount_violation_exit_code(capsys, monkeypatch):
    import rmrec.cli as cli

    monkeypatch.setattr(cli, "decode_op_bound", lambda *a, **k: 0)
    code, _, err = run_cli(capsys, "opcount", "--m", "4", "--r", "1",
                           "--trials", "1")
    assert code == 3 and "violated" in err


def test_opcount_phi_unscaled_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "opcount", "--m", "8", "--r", "2",
                           "--algo", "phi", "--u-rule", "unscaled",
                           "--trials", "2")
    assert code == 0
    assert "measured=2800" in out
