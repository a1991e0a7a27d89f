"""Command-line surface: subcommands, file formats, exit codes."""

import sys
import time

import pytest

from rankmk.cli import main
from rankmk.fields import ExtField
from rankmk.matrix import mat_from_text

FIELD = "q=2 m=5 f=1,0,1,0,0,1"
CODE = "gabidulin:g=1,2,4,8,16,k=2"


@pytest.fixture()
def msg_file(tmp_path):
    path = tmp_path / "msg.txt"
    path.write_text("2 5 2 2\n2 1\n4 2\n")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_demo_passes(capsys):
    assert run("demo") == 0
    out = capsys.readouterr().out
    for stage in ("S:", "rref(S):", "H_sub:", "ext(H_sub):", "B:", "A:", "C:", "PASS"):
        assert stage in out


def test_demo_quiet(capsys):
    assert run("demo", "--quiet") == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_demo_tamper_fails(capsys):
    assert run("demo", "--tamper", "0,0,1", "--quiet") != 0
    assert "FAIL at stage verification" in capsys.readouterr().out


def test_encode_corrupt_decode_roundtrip(tmp_path, msg_file, capsys):
    cw, rx, err = tmp_path / "cw.txt", tmp_path / "rx.txt", tmp_path / "err.txt"
    chat, a_out, b_out = tmp_path / "chat.txt", tmp_path / "A.txt", tmp_path / "B.txt"
    assert run("encode", "--field", FIELD, "--code", CODE, "--message", msg_file, "--out", cw) == 0
    assert run(
        "corrupt", "--in", cw, "--t", 2, "--seed", 5, "--mode", "fullrank",
        "--out", rx, "--error-out", err,
    ) == 0
    assert run(
        "decode", "--field", FIELD, "--code", CODE, "--in", rx, "--out", chat,
        "--out-coeff", a_out, "--out-support", b_out,
    ) == 0
    assert "status,success t,2" in capsys.readouterr().out
    assert chat.read_text() == cw.read_text()
    ctx = ExtField.from_spec(FIELD)
    a = mat_from_text(a_out.read_text(), ctx=ctx)
    b = mat_from_text(b_out.read_text(), ctx=ctx)
    e = mat_from_text(err.read_text(), ctx=ctx)
    assert a @ b == e
    # received word = codeword + error, and every file re-parses bit-exactly
    rx_mat = mat_from_text(rx.read_text(), ctx=ctx)
    cw_mat = mat_from_text(cw.read_text(), ctx=ctx)
    assert cw_mat.add(e) == rx_mat
    assert rx_mat.to_text() == rx.read_text()


def test_roundtrip_zero_error(tmp_path, msg_file):
    cw, rx, err, chat = (tmp_path / n for n in ("cw.txt", "rx.txt", "err.txt", "chat.txt"))
    run("encode", "--field", FIELD, "--code", CODE, "--message", msg_file, "--out", cw)
    run("corrupt", "--in", cw, "--t", 0, "--seed", 1, "--out", rx, "--error-out", err)
    assert rx.read_text() == cw.read_text()
    assert run("decode", "--field", FIELD, "--code", CODE, "--in", rx, "--out", chat) == 0
    assert chat.read_text() == cw.read_text()


def test_decode_failure_prints_detail(tmp_path, capsys):
    cw, rx, err, chat = (tmp_path / n for n in ("cw.txt", "rx.txt", "err.txt", "chat.txt"))
    msg3 = tmp_path / "msg3.txt"
    msg3.write_text("2 5 3 2\n2 1\n4 2\n7 9\n")
    run("encode", "--field", FIELD, "--code", CODE, "--message", msg3, "--out", cw)
    run("corrupt", "--in", cw, "--t", 3, "--seed", 2, "--mode", "fullrank",
        "--out", rx, "--error-out", err)
    assert run("decode", "--field", FIELD, "--code", CODE, "--in", rx, "--out", chat) == 2
    stderr = capsys.readouterr().err
    assert "too_many_errors (t_hat=3): syndrome rank 3 leaves no zero rows" in stderr


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    chat = tmp_path / "chat.txt"
    assert run("decode", "--field", FIELD, "--code", CODE, "--in", bad, "--out", chat) == 3
    assert "format error" in capsys.readouterr().err


def test_parameter_error_exit_codes(tmp_path, msg_file, capsys):
    chat = tmp_path / "chat.txt"
    assert run("decode", "--code", CODE, "--in", msg_file, "--out", chat) == 4  # missing --field
    assert run("decode", "--field", FIELD, "--code", "hamming:xyz", "--in", msg_file, "--out", chat) == 4
    assert run("bogus-subcommand") == 4
    assert run("bench") == 4  # retired: timing lives in rankbench/
    capsys.readouterr()
    code_file = tmp_path / "code.txt"
    code_file.write_text(f"{FIELD}\nkind=gabidulin g=1,2,4,8,16 k=2\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("2 5 1 3\n1 2 3\n")
    for argv in (
        ("decode", "--field", FIELD, "--code", "gabidulin:g=1,2,k=x", "--in", msg_file, "--out", chat),
        ("decode", "--field", FIELD, "--code", "gabidulin:k=2", "--in", msg_file, "--out", chat),
        ("decode", "--field", "q=2 m=4 f=1,1,0,0,1", "--code-file", code_file, "--in", msg_file,
         "--out", chat),
        ("decode", "--field", FIELD, "--in", msg_file, "--out", chat),  # neither --code nor --code-file
        ("demo", "--tamper", "1,2"),
        ("encode", "--field", FIELD, "--code", CODE, "--message", wide, "--out", chat),  # 3 columns, k = 2
    ):
        assert run(*argv) == 4, argv
        assert capsys.readouterr().out == "", argv
    for position in ("9,9,1", "0,-1,1", "2,0,1", "0,5,1"):  # R is 2x5: no IndexError, no wrapped index
        assert run("demo", f"--tamper={position}", "--quiet") == 4
        assert "outside R's 2x5 shape" in capsys.readouterr().err
    # bound rejects a q or m that ExtField(q, m) rejects, and does so at once
    start = time.perf_counter()
    for q, m in ((0, 1), (4, 2), (2, 0), (2, -1), (2**31, 1), (2, 1_000_000), (257, 4)):
        assert run("bound", "--q", q, "--m", m, "--t", 1, "--ell", 2) == 4
        assert capsys.readouterr().out == ""
    assert time.perf_counter() - start < 1.0
    # and an exact bound too long for str(): its denominator is q^(m * sum_{i<t} (ell - i))
    start = time.perf_counter()
    for q, m, t, ell in ((2, 4, 200, 200), (2, 33, 30, 30), (2, 4, 800, 800), (3, 1, 1, 10**100)):
        assert run("bound", "--q", q, "--m", m, "--t", t, "--ell", ell) == 4
        assert capsys.readouterr().out == ""
    assert time.perf_counter() - start < 1.0
    # 2^ell stays below 10^limit up to this ell, so that bound still prints
    ell = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
    assert run("bound", "--q", 2, "--m", 1, "--t", 1, "--ell", ell) == 0
    assert f"/{2**ell} simple," in capsys.readouterr().out
    assert run("bound", "--q", 2, "--m", 1, "--t", 1, "--ell", ell + 1) == 4


def test_missing_file_is_io_error(tmp_path, capsys):
    assert run("decode", "--field", FIELD, "--code", CODE, "--in", tmp_path / "nope.txt",
               "--out", tmp_path / "c.txt") == 3
    capsys.readouterr()


def test_code_file_flow(tmp_path, msg_file):
    code_file = tmp_path / "code.txt"
    code_file.write_text(f"{FIELD}\nkind=gabidulin g=1,2,4,8,16 k=2\n")
    cw = tmp_path / "cw.txt"
    assert run("encode", "--code-file", code_file, "--message", msg_file, "--out", cw) == 0
    assert cw.read_text().startswith("2 5 2 5\n")


def test_simulate_csv(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run(
        "simulate", "--field", FIELD, "--code", CODE, "--ell", 2, "--t", 2,
        "--trials", 50, "--seed", 4, "--mode", "fullrank", "--out", report,
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("rate,1.0 bound,")
    lines = report.read_text().splitlines()
    assert lines[0] == "param,value"
    assert "successes,50" in lines
    # identical invocation reproduces the identical report
    again = tmp_path / "again.csv"
    run("simulate", "--field", FIELD, "--code", CODE, "--ell", 2, "--t", 2,
        "--trials", 50, "--seed", 4, "--mode", "fullrank", "--out", again)
    a = [ln for ln in report.read_text().splitlines() if not ln.startswith("wall_time")]
    b = [ln for ln in again.read_text().splitlines() if not ln.startswith("wall_time")]
    assert a == b
    # without --out the CSV goes to stdout, followed by the summary line
    capsys.readouterr()
    assert run("simulate", "--field", FIELD, "--code", CODE, "--ell", 2, "--t", 2,
               "--trials", 50, "--seed", 4, "--mode", "fullrank") == 0
    *csv, summary = capsys.readouterr().out.splitlines()
    assert [ln for ln in csv if not ln.startswith("wall_time")] == a
    assert summary.startswith("rate,1.0 bound,")


def test_bound_command(capsys):
    assert run("bound", "--q", 2, "--m", 4, "--t", 2, "--ell", 2) == 0
    out = capsys.readouterr().out
    assert "product,0.933837890625" in out
    assert "product_exact,3825/4096" in out
    assert "simple,0.875" in out
    # t = 0 bounds are exactly 1, so a huge ell costs no power
    start = time.perf_counter()
    assert run("bound", "--q", 2, "--m", 1, "--t", 0, "--ell", 10**12) == 0
    assert capsys.readouterr().out == "product,1.0 product_exact,1/1 simple,1.0 simple_exact,1/1\n"
    assert time.perf_counter() - start < 1.0


def test_huge_base_field_header_fails_fast(tmp_path, capsys):
    # q = 2^61 - 1 is prime; trial division up to its square root would hang.
    word = tmp_path / "word.txt"
    word.write_text("2305843009213693951 1 1 1\n0\n")
    start = time.perf_counter()
    code = run("corrupt", "--in", word, "--t", 0, "--out", tmp_path / "rx.txt",
               "--error-out", tmp_path / "err.txt")
    assert code == 4
    assert time.perf_counter() - start < 2.0
    assert "parameter error" in capsys.readouterr().err
