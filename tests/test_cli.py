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
                                             monkeypatch):
    import glab.cli

    monkeypatch.chdir(ROOT)
    assert glab.cli.main(list(args)) == code
    in_process = capsysbinary.readouterr().out
    r = subprocess.run([sys.executable, "-m", "glab", *args],
                       capture_output=True, cwd=ROOT)
    assert r.returncode == code, r.stderr
    assert r.stdout == in_process


def test_commands_leave_dataclasses_and_numpy_ma_unloaded():
    # the record types are NamedTuples, so no process pays for the
    # methods that dataclasses generate at import; and no command calls
    # np.unique, which imports numpy.ma (numpy loads neither module
    # itself). The commands run in one process, each on its own instance
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
