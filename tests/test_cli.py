"""End-to-end command-line tests driven through subprocess."""

import gc
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def glab(*args, env=None):
    merged = os.environ.copy()
    if env:
        merged.update(env)
    return subprocess.run([sys.executable, "-m", "glab", *args],
                          capture_output=True, text=True, cwd=ROOT,
                          env=merged)


# ---------------------------------------------------------------------------
# verify-all end to end

def test_verify_all_green_exits_zero():
    r = glab("verify-all", "fixtures/f3c2.glab")
    assert r.returncode == 0
    assert "summary: 20 pass, 4 skip" in r.stdout


def test_verify_all_red_exits_one():
    r = glab("verify-all", "fixtures/z4c2.glab")
    assert r.returncode == 1
    assert "4/49 ideal pairs fail; first at pair (1, 6)" in r.stdout


def test_verify_all_matrix_instance_failures():
    r = glab("verify-all", "fixtures/m2f2c2.glab")
    assert r.returncode == 1
    for line in ("idem-dual.formula", "split-refine.dual-of-sum",
                 "checkable-routes.dual-principal"):
        row = next(l for l in r.stdout.splitlines() if line in l)
        assert "fail" in row


def test_tsv_header_and_digest():
    r = glab("verify-all", "fixtures/z4c2.glab", "--format", "tsv")
    lines = r.stdout.splitlines()
    assert lines[0] == "# command: verify-all"
    digest = lines[1].removeprefix("# instance: ")
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert lines[2] == "# algebra: Z4C2"
    assert lines[3] == "check_id\tlaw\tstatus\twitness\tmicros"
    assert ("residue-lcp.biconditional\tresidue-lcp\tfail\t"
            "4/49 ideal pairs fail; first at pair (1, 6)\t-") in lines


def test_reports_byte_identical_without_timing():
    a = glab("verify-all", "fixtures/z4c2.glab", "--format", "tsv")
    b = glab("verify-all", "fixtures/z4c2.glab", "--format", "tsv")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 1


def test_timing_fills_micros_column():
    plain = glab("verify-all", "fixtures/f2c2.glab", "--format", "tsv")
    rows = [l.split("\t") for l in plain.stdout.splitlines()[4:]]
    assert all(r[4] == "-" for r in rows)
    timed = glab("verify-all", "fixtures/f2c2.glab", "--format", "tsv",
                 "--timing")
    rows = [l.split("\t") for l in timed.stdout.splitlines()[4:]]
    assert all(int(r[4]) >= 0 for r in rows)


# ---------------------------------------------------------------------------
# the other commands

def test_ring_info_fields():
    r = glab("ring-info", "fixtures/f3c2.glab")
    assert r.returncode == 0
    rows = r.stdout.splitlines()
    assert any("ring.frobenius" in l and "frobenius" in l for l in rows)
    assert any("ring.generating-character" in l for l in rows)
    assert any("ring.local" in l and "true" in l for l in rows)


def test_ring_info_reports_missing_character_without_failing():
    r = glab("ring-info", "fixtures/ut2c1.glab")
    assert r.returncode == 0
    assert "not-frobenius" in r.stdout


def test_idempotents_partition():
    r = glab("idempotents", "fixtures/f3c2.glab")
    assert r.returncode == 0
    assert "2 primitive parts sum to 1" in r.stdout
    assert "2 + 2g" in r.stdout


def test_lcp_scan_counts_trivial_pairs():
    r = glab("lcp", "scan", "fixtures/f2c2.glab")
    assert r.returncode == 0
    assert "2 complementary pairs" in r.stdout


def test_lcp_verify_pair_green():
    r = glab("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C", "D")
    assert r.returncode == 0
    assert "central certificate; inversion image of C equals dual(D)" \
        in r.stdout


def test_lcp_verify_not_complementary():
    r = glab("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C", "C")
    assert r.returncode == 1
    assert "not complementary" in r.stdout


def test_lcp_residue_green():
    r = glab("lcp", "residue", "fixtures/z4c3.glab", "--pair", "C", "D")
    assert r.returncode == 0
    assert "22 = 2 + g + g^2" in r.stdout


def test_lcp_residue_reports_violation():
    r = glab("lcp", "residue", "fixtures/z4c2.glab", "--pair", "N", "F")
    assert r.returncode == 1
    assert "residue pair complementary but base pair is not" in r.stdout


def test_checkable_ideal_without_check_element():
    r = glab("checkable", "ideal", "fixtures/z4c2.glab", "--ideal", "N")
    assert r.returncode == 0
    rows = r.stdout.splitlines()
    assert any("checkable-ideal.checkable" in l and "false" in l
               for l in rows)
    assert any("checkable-ideal.consistency" in l and "pass" in l
               for l in rows)


def test_checkable_census():
    r = glab("checkable", "census", "fixtures/z4c2.glab")
    assert r.returncode == 0
    assert "all 7 ideals consistent" in r.stdout
    rows = r.stdout.splitlines()
    assert any("checkable-census.code-checkable" in l and "false" in l
               for l in rows)


# ---------------------------------------------------------------------------
# exit codes for scale and usage problems

def test_scale_error_exits_three():
    r = glab("verify-all", "fixtures/m2f2c3.glab")
    assert r.returncode == 3
    assert "scale error" in r.stderr


def test_env_cap_exits_three():
    r = glab("ring-info", "fixtures/f2c2.glab",
             env={"GLAB_MAX_ELEMS": "2"})
    assert r.returncode == 3
    assert "exceeds the cap 2" in r.stderr


def test_huge_field_exits_three(tmp_path):
    # 2^15000 has more digits than Python prints as an integer
    spec = tmp_path / "gf.glab"
    spec.write_text(f"ring = polyquot(2, [{', '.join(['1'] * 15001)}])\n"
                    "group = cyclic(1)\n")
    r = glab("ring-info", str(spec))
    assert r.returncode == 3, r.stderr
    assert "GF(2^15000): 2^15000 elements exceeds" in r.stderr


def test_huge_product_group_exits_three(tmp_path):
    # 2^15000 again, as the order of a product of 15,000 groups of order 2
    spec = tmp_path / "prod.glab"
    spec.write_text("ring = zmod(2)\ngroup = product("
                    + ", ".join(["cyclic(2)"] * 15000) + ")\n")
    r = glab("ring-info", str(spec))
    assert r.returncode == 3, r.stderr
    assert "product group of order 2^15000 exceeds the limit 256" in r.stderr


def test_census_bound_flag_tightens():
    r = glab("verify-all", "fixtures/f3c2.glab", "--census-bound", "2")
    assert r.returncode == 3


@pytest.mark.parametrize("command, options, code", [
    (("idempotents",), (), 3),
    (("lcp", "scan"), (), 3),
    (("lcp", "verify"), ("--pair", "C", "D"), 3),
    (("checkable", "census"), (), 3),
    (("checkable", "ideal"), ("--ideal", "C"), 3),
    (("verify-all",), (), 3),
    (("ring-info",), (), 0),
    (("lcp", "residue"), ("--pair", "C", "D"), 0),
])
def test_bound_flag_reaches_every_scan(command, options, code):
    # f3c2 has 9 elements: every command that scans RG exceeds bound 2
    r = glab(*command, "fixtures/f3c2.glab", *options, "--bound", "2")
    assert r.returncode == code, r.stderr
    if code == 3:
        assert "exceeds the bound 2" in r.stderr


@pytest.mark.parametrize("flag, value", [
    ("--bound", "-1"), ("--bound", "0"),
    ("--census-bound", "-1"), ("--census-bound", "0")])
def test_nonpositive_bound_flags_exit_two(flag, value):
    # as `bound = 0` in an instance file is, before any command runs
    r = glab("ring-info", "fixtures/f2c2.glab", flag, value)
    assert r.returncode == 2
    assert (f"argument {flag}: must be a positive integer, got '{value}'"
            in r.stderr)
    assert r.stdout == ""


@pytest.mark.parametrize("value", ["abc", "0", "-4", "1.5"])
def test_malformed_env_cap_exits_two(value, monkeypatch, capsys):
    message = f"GLAB_MAX_ELEMS must be a positive integer, got '{value}'"
    r = glab("ring-info", "fixtures/f2c2.glab", env={"GLAB_MAX_ELEMS": value})
    assert (r.returncode, r.stderr, r.stdout) == (2, f"error: {message}\n", "")
    # refused before the instance is built
    from glab import cli

    def build(*args, **kwargs):
        raise AssertionError("an instance was built")
    monkeypatch.setattr(cli, "build_instance", build)
    monkeypatch.setenv("GLAB_MAX_ELEMS", value)
    assert cli.main(["ring-info", "fixtures/f2c2.glab"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_memory_error_exits_three(monkeypatch, capsys):
    import glab.cli

    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(glab.cli, "_run", exhausted)
    assert glab.cli.main(["ring-info", "fixtures/f2c2.glab"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "scale error: out of memory\n"
    assert captured.out == ""


@pytest.mark.parametrize("args, fragment", [
    (("verify-all", "nosuch.glab"), "No such file"),
    (("verify-all", "fixtures/corrupt_cayley.glab"),
     "not associative at (1, 1, 2)"),
    (("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C", "X"),
     "no ideal named 'X'"),
    (("lcp", "verify", "fixtures/f3c2.glab"), "needs --pair"),
    (("checkable", "ideal", "fixtures/z4c2.glab"), "needs --ideal"),
    (("wat", "fixtures/f2c2.glab"), "invalid choice"),
])
def test_usage_and_parse_errors_exit_two(args, fragment):
    r = glab(*args)
    assert r.returncode == 2
    assert fragment in r.stderr


@pytest.mark.parametrize("args, stderr", [
    (("verify-all", "fixtures/corrupt_cayley.glab"),
     "error: broken: not associative at (1, 1, 2): (1*1)*2 = 2, 1*(1*2) = 1\n"),
    (("ring-info", "fixtures/"), "error: fixtures/: Is a directory\n"),
    (("ring-info", "nosuch.glab"),
     "error: nosuch.glab: No such file or directory\n"),
])
def test_input_errors_print_one_line_and_exit_two(args, stderr):
    r = glab(*args)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", stderr)


@pytest.mark.parametrize("argv, message", [
    (["lcp", "verify", "fixtures/f3c2.glab"], "lcp verify needs --pair C D"),
    (["lcp", "residue", "fixtures/f3c2.glab"], "lcp residue needs --pair C D"),
    (["checkable", "ideal", "fixtures/z4c2.glab"],
     "checkable ideal needs --ideal C"),
    # named before the file, which is never opened
    (["lcp", "verify", "nosuch.glab"], "lcp verify needs --pair C D"),
])
def test_missing_required_option_is_refused_before_loading(argv, message,
                                                           monkeypatch, capsys):
    import glab.cli

    def load(path):
        raise AssertionError("the instance file was loaded")
    monkeypatch.setattr(glab.cli, "load_instance", load)
    assert glab.cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_control_character_in_a_label_exits_two(tmp_path, capsys):
    # a tab in a label would split the label's row of a TSV report
    import glab.cli
    path = tmp_path / "tab.glab"
    path.write_text('ring = table([2], [[0, 0], [0, 1]], "a\tb")\n'
                    "group = cyclic(2)\n")
    assert glab.cli.main(["ring-info", str(path), "--format", "tsv"]) == 2
    assert capsys.readouterr() == (
        "", "error: line 1: a string holds a control character: "
            "'\"a\\tb\"'\n")


def test_invalid_utf8_instance_exits_two(tmp_path):
    path = tmp_path / "latin1.glab"
    path.write_bytes(b"# caf\xe9\nring = zmod(2)\ngroup = cyclic(1)\n")
    r = glab("ring-info", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (f"error: {path}: 'utf-8' codec can't decode byte "
                        f"0xe9 in position 5: invalid continuation byte\n")


def test_instance_one_byte_past_the_limit_exits_two(tmp_path, capsys):
    # a valid instance padded by one long comment line: at the limit it
    # parses, one byte past it it is refused before it is decoded
    import glab.cli
    from glab.config import INSTANCE_BYTE_LIMIT
    head = "ring = zmod(2)\ngroup = cyclic(1)\n#"
    path = tmp_path / "long.glab"
    for size, code in ((INSTANCE_BYTE_LIMIT, 0), (INSTANCE_BYTE_LIMIT + 1, 2)):
        path.write_text(head + "x" * (size - len(head) - 1) + "\n")
        assert path.stat().st_size == size
        assert glab.cli.main(["ring-info", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: longer than the limit of "
                            f"{INSTANCE_BYTE_LIMIT} bytes\n")


def test_endless_instance_file_exits_two():
    # read up to one byte past the limit, then refused
    r = subprocess.run(
        [sys.executable, "-m", "glab", "ring-info", "/dev/zero"],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "error: /dev/zero: longer than the limit of 1048576 bytes\n")


def test_largest_cayley_table_reaches_the_table_reader(tmp_path, capsys):
    # a 256 x 256 Cayley table, each entry padded to four columns, lies
    # under the byte limit; its one bad entry is found by the reader
    import glab.cli
    from glab.config import INSTANCE_BYTE_LIMIT
    rows = [[(i + j) % 256 for j in range(256)] for i in range(256)]
    rows[255][255] = 256
    table = ", ".join("[" + ", ".join(f"{v:>3}" for v in row) + "]"
                      for row in rows)
    path = tmp_path / "cayley256.glab"
    path.write_text(f"ring = zmod(2)\ngroup = cayley([{table}])\n")
    assert 300_000 < path.stat().st_size < INSTANCE_BYTE_LIMIT
    assert glab.cli.main(["ring-info", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "entry 256 at (255, 255) out of range [0, 256)\n")


# each line of a bad explicit table, as a table ring on Z2 and as a
# Cayley table: ragged, too many or too few rows, and entries out of
# range, up to one past the interpreter's limit on digits
_BAD_ROWS = ["[[0, 1], [1]]", "[[0, 1]]", "[[0, 1], [1, 0], [0, 1]]",
             "[[0, 1], [1, -1]]", "[[0, 1], [1, 2]]",
             f"[[0, 1], [1, {2 ** 31}]]", f"[[0, 1], [1, {2 ** 64}]]",
             f"[[0, 1], [1, {'9' * 5000}]]"]


@pytest.mark.parametrize("rows", _BAD_ROWS, ids=[
    "ragged", "one-row", "three-rows", "negative", "n", "2^31", "2^64",
    "5000-digits"])
@pytest.mark.parametrize("text", [
    "ring = table([2], {rows})\ngroup = cyclic(1)\n",
    "ring = zmod(2)\ngroup = cayley({rows})\n"], ids=["table", "cayley"])
def test_bad_explicit_tables_exit_two(text, rows, tmp_path, capsys):
    import glab.cli
    path = tmp_path / "bad.glab"
    path.write_text(text.format(rows=rows))
    assert glab.cli.main(["ring-info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_ragged_cayley_past_the_order_limit_exits_three(tmp_path):
    # 300 rows of one entry: refused by the order gate, before any row
    # is read
    path = tmp_path / "ragged.glab"
    path.write_text(f"ring = zmod(2)\ngroup = cayley([{', '.join(['[0]'] * 300)}])\n")
    r = glab("ring-info", str(path))
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == "scale error: cayley table of order 300 exceeds the limit 256\n"


def test_over_nested_group_exits_two(tmp_path):
    group = "cyclic(1)"
    for _ in range(199):
        group = f"product({group})"
    path = tmp_path / "deep.glab"
    path.write_text(f"ring = zmod(2)\ngroup = {group}\n")
    r = glab("verify-all", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: line 2: group nested more than 32 levels deep\n"


def test_console_script_entry():
    if shutil.which("glab") is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run(["glab", "verify-all", str(FIX / "f3c2.glab")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "summary: 20 pass, 4 skip" in r.stdout


def test_console_script_and_module_share_the_entry():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"glab": "glab.cli:entry"}
    main_py = (ROOT / "src" / "glab" / "__main__.py").read_text()
    assert "raise SystemExit(entry())" in main_py


@pytest.mark.parametrize("command, loaded", [
    (("ring-info",), []),
    (("idempotents",), []),
    (("lcp", "scan"), []),
    (("lcp", "verify", "--pair", "C", "D"), []),
    (("lcp", "residue", "--pair", "C", "D"), []),
    (("checkable", "census"), ["glab.chk"]),
    (("checkable", "ideal", "--ideal", "C"), ["glab.chk"]),
    (("verify-all",), ["glab.chk", "glab.verify"]),
])
def test_only_verify_all_loads_the_law_matrix(command, loaded):
    # each command in a fresh process: the law matrix is compiled only
    # for verify-all, the checkable engine only where it runs
    code = ("import sys, glab.cli\n"
            "glab.cli.main(sys.argv[1:])\n"
            "print(sorted({'glab.chk', 'glab.verify'} & set(sys.modules)), "
            "file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code, *command[:2],
                        str(FIX / "z4c3.glab"), *command[2:]],
                       capture_output=True, text=True, cwd=ROOT)
    assert r.stdout.startswith("command ")
    assert r.stderr == f"{loaded}\n"


def test_main_freezes_nothing():
    import glab.cli

    assert glab.cli.main(["ring-info", str(FIX / "f2c2.glab")]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("args, code", [
    (("ring-info", "fixtures/f2c2.glab"), 0),
    (("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C", "C"), 1),
    (("lcp", "verify", "fixtures/f3c2.glab"), 2),
    (("idempotents", "fixtures/f3c2.glab", "--bound", "2"), 3),
])
def test_process_entry_exits_as_main_returns(args, code, capsysbinary,
                                             monkeypatch, tmp_path):
    import glab.cli

    monkeypatch.chdir(ROOT)
    assert glab.cli.main(list(args)) == code
    in_process = capsysbinary.readouterr().out
    # stdout is a block-buffered file, so the report reaches it only if
    # the entry flushes before ending the process
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "out", "wb") as out:
        r = subprocess.run([sys.executable, "-m", "glab", *args], stdout=out,
                           stderr=subprocess.PIPE, cwd=ROOT, env=env)
    assert r.returncode == code, r.stderr
    assert (tmp_path / "out").read_bytes() == in_process


def test_module_entry_imports_without_collecting():
    # a counter registered before `python -m glab` starts: numpy and
    # glab load with cyclic collection off, and the command itself
    # allocates too little to start one
    code = ("import gc, os, runpy, sys\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' "
            "and os.write(2, b'collect\\n'))\n"
            "sys.argv = ['glab', 'ring-info', 'fixtures/f2c2.glab']\n"
            "runpy.run_module('glab', run_name='__main__')\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=ROOT)
    assert r.returncode == 0
    assert r.stdout.startswith("command ")
    assert "collect" not in r.stderr


def test_closed_stdout_exits_one():
    # the reader is gone before the process starts; the report's write
    # raises in `main`, and the error propagates out of the entry
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "glab", "verify-all",
                            "perfbench/instances/z4c2c2.glab", "--format",
                            "tsv"], stdout=write, stderr=subprocess.PIPE,
                           text=True, cwd=ROOT,
                           env={**os.environ, "PYTHONUNBUFFERED": "1"})
    finally:
        os.close(write)
    assert r.returncode == 1
    assert "BrokenPipeError" in r.stderr


@pytest.mark.parametrize("args", [
    ("ring-info", "fixtures/f2c2.glab"),
    ("verify-all", "perfbench/instances/z4c2c2.glab", "--format", "tsv"),
])
def test_closed_stdout_exits_one_when_buffered(args):
    # the report fits stdout's buffer, so `main` returns and the entry's
    # flush is what fails: it prints the error and exits 1, where the
    # interpreter's second flush at exit used to set 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "glab", *args],
                           stdout=write, stderr=subprocess.PIPE, text=True,
                           cwd=ROOT, env=env)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (
        1, "error: BrokenPipeError: [Errno 32] Broken pipe\n")


def test_commands_leave_dataclasses_and_numpy_ma_unloaded():
    # the record types derive from glab.records.Record, so no process
    # pays for the methods that dataclasses generate at import; and no
    # command calls np.unique, which imports numpy.ma (numpy loads
    # neither module itself). The commands run in one process, each on
    # its own instance
    z4c3, lattice = str(FIX / "z4c3.glab"), str(
        ROOT / "perfbench" / "instances" / "z4c2c2.glab")
    commands = [["checkable", "census", str(FIX / "m2f2c2.glab")],
                ["verify-all", z4c3], ["verify-all", lattice],
                ["lcp", "scan", z4c3], ["idempotents", z4c3],
                ["lcp", "residue", z4c3, "--pair", "C", "D"]]
    code = ("import sys, glab.cli\n"
            f"for args in {commands!r}:\n"
            "    glab.cli.main(args)\n"
            "print(sorted({'dataclasses', 'numpy.ma'} & set(sys.modules)), "
            "file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=ROOT)
    assert r.stderr == "[]\n"
    assert r.stdout.count("command ") == len(commands)


def test_commands_leave_hashlib_and_openssl_unloaded():
    # the instance digest comes from CPython's built-in SHA-256, so no
    # process loads hashlib and, through it, OpenSSL; the two exit-2 runs
    # fail while building and after it, all in one fresh process
    f3c2, z4c3 = str(FIX / "f3c2.glab"), str(FIX / "z4c3.glab")
    commands = [(["ring-info", str(FIX / "f2c2.glab")], 0),
                (["lcp", "verify", f3c2, "--pair", "C", "D"], 0),
                (["checkable", "ideal", z4c3, "--ideal", "C"], 0),
                (["checkable", "census", str(FIX / "m2f2c2.glab")], 1),
                (["verify-all", z4c3], 1),
                (["lcp", "verify", f3c2], 2),
                (["ring-info", str(FIX / "corrupt_cayley.glab")], 2)]
    code = ("import sys, glab.cli\n"
            f"codes = [glab.cli.main(args) for args, _ in {commands!r}]\n"
            "print(codes, sorted({'hashlib', '_hashlib', '_ssl'} "
            "& set(sys.modules)), file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=ROOT)
    expected = [want for _, want in commands]
    assert r.stderr.splitlines()[-1] == f"{expected} []"
    assert r.stderr.count("error: ") == 2


# ---------------------------------------------------------------------------
# the command-line grammar: COMMAND [MODE] FILE, options anywhere after
# COMMAND

@pytest.mark.parametrize("args, code, fragment", [
    (("ring-info", "--format=tsv", "fixtures/f2c2.glab"), 0, ""),
    (("ring-info", "--census-bound=50", "--format", "tsv",
      "fixtures/f2c2.glab"), 0, ""),
    (("lcp", "--pair", "C", "D", "verify", "fixtures/f3c2.glab"), 0, ""),
    (("checkable", "ideal", "--ideal=N", "fixtures/z4c2.glab"), 0, ""),
    (("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C"), 2,
     "argument --pair: expected 2 arguments"),
    (("lcp", "verify", "fixtures/f3c2.glab", "--pair", "C", "--timing"), 2,
     "argument --pair: expected 2 arguments"),
    (("lcp", "verify", "fixtures/f3c2.glab", "--pair=C", "D"), 2,
     "argument --pair: expected 2 arguments"),
    (("ring-info", "fixtures/f2c2.glab", "--nosuch"), 2,
     "unrecognized arguments: --nosuch"),
    (("ring-info", "-x", "fixtures/f2c2.glab"), 2,
     "unrecognized arguments: -x"),
    (("ring-info", "fixtures/f2c2.glab", "--census"), 2,
     "unrecognized arguments: --census"),
    (("ring-info", "fixtures/f2c2.glab", "--pair", "C", "D"), 2,
     "unrecognized arguments: --pair"),
    (("ring-info",), 2, "the following arguments are required: file"),
    (("lcp", "scan"), 2, "the following arguments are required: file"),
    ((), 2, "the following arguments are required: command"),
    (("ring-info", "fixtures/f2c2.glab", "extra"), 2,
     "unrecognized arguments: extra"),
    (("ring-info", "fixtures/f2c2.glab", "--format", "bogus"), 2,
     "argument --format: invalid choice: 'bogus' (choose from 'tsv', 'text')"),
    (("ring-info", "fixtures/f2c2.glab", "--format=bogus"), 2,
     "argument --format: invalid choice: 'bogus'"),
    (("lcp", "bogus", "fixtures/f2c2.glab"), 2,
     "argument mode: invalid choice: 'bogus'"),
    (("ring-info", "fixtures/f2c2.glab", "--bound"), 2,
     "argument --bound: expected one argument"),
    (("ring-info", "fixtures/f2c2.glab", "--bound=-1"), 2,
     "argument --bound: must be a positive integer, got '-1'"),
    (("ring-info", "fixtures/f2c2.glab", "--timing=yes"), 2,
     "argument --timing: expected 0 arguments"),
])
def test_command_line_grammar(args, code, fragment):
    r = glab(*args)
    assert r.returncode == code, r.stderr
    if code == 0:
        assert "command" in r.stdout.splitlines()[0] and r.stderr == ""
    else:
        # one line on stderr, and no report
        assert r.stderr.startswith(f"error: {fragment}")
        assert r.stderr.count("\n") == 1 and r.stdout == ""


@pytest.mark.parametrize("args", [
    ("-h",), ("--help",), ("lcp", "-h"), ("ring-info", "fixtures/f2c2.glab",
                                          "--help")])
def test_help_prints_usage_and_exits_zero(args):
    r = glab(*args)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.startswith("usage: glab COMMAND [MODE] FILE")
    for name in ("ring-info", "idempotents", "lcp {scan,verify,residue}",
                 "checkable {ideal,census}", "verify-all", "--bound N",
                 "--census-bound N", "--format {tsv,text}", "--timing",
                 "--pair C D", "--ideal C", "-h, --help"):
        assert name in r.stdout


@pytest.mark.parametrize("argv", [
    [], ["wat", "fixtures/f2c2.glab"], ["ring-info"],
    ["ring-info", "fixtures/f2c2.glab", "--format", "bogus"],
    ["ring-info", "fixtures/f2c2.glab", "--bound", "0"]])
def test_main_returns_two_on_usage_errors(argv, capsys):
    # a usage error is a return value, not SystemExit
    import glab.cli

    assert glab.cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_main_returns_zero_on_help(capsys):
    import glab.cli

    assert glab.cli.main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: glab COMMAND")


def test_commands_leave_argparse_gettext_and_locale_unloaded():
    # the command line is parsed without argparse, which loads gettext
    # and locale; and the record types are made without
    # collections.namedtuple, patched to raise once numpy (which calls
    # it) has loaded and while glab loads
    code = ("import collections, sys, numpy\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('namedtuple called')\n"
            "collections.namedtuple = refuse\n"
            "import glab.cli, glab.verify\n"
            f"for args in {DESK_COMMANDS!r}:\n"
            "    glab.cli.main(args)\n"
            "    print(sorted({'argparse', 'gettext', 'locale'} "
            "& set(sys.modules)), file=sys.stderr)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, cwd=ROOT)
    assert r.stderr == "[]\n" * len(DESK_COMMANDS)
    assert r.stdout.count("command ") == len(DESK_COMMANDS)


DESK_COMMANDS = [
    ["ring-info", str(FIX / "f2c2.glab")],
    ["idempotents", str(FIX / "f3c2.glab")],
    ["lcp", "scan", str(FIX / "z4c3.glab")],
    ["lcp", "verify", str(FIX / "f3c2.glab"), "--pair", "C", "D"],
    ["lcp", "residue", str(FIX / "z4c3.glab"), "--pair", "C", "D"],
    ["checkable", "ideal", str(FIX / "z4c2.glab"), "--ideal", "N"],
    ["checkable", "census", str(FIX / "z4c2.glab")],
    ["verify-all", str(FIX / "f2c3.glab"), "--timing"],
]
