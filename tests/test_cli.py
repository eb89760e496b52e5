import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import khlab
import khlab.cli as cli
from khlab.homology import BigradedGroup
from khlab.invariants import Check, VerificationReport

from helpers import table_of

HOPF_PD = "X[0,1,2,3] +\nX[1,0,3,2] +\n"
NONPLANAR_PD = "X[1,2,1,2] +\n"  # one crossing, one face: no planar embedding
# KnotAtlas's trefoil, whose crossings are all negative, signed +.
WRONG_SIGN_TREFOIL_PD = "X[1,4,2,5] +\nX[3,6,4,1] +\nX[5,2,6,3] +\n"


def run(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_json_trefoil(capsys):
    code, out, _ = run(["homology", "--braid", "1 1 1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["input", "n_plus", "n_minus", "components",
                         "convention", "homology", "euler_characteristic"]
    assert doc["input"] == {"kind": "braid", "text": "1 1 1", "strands": 2}
    assert doc["n_plus"] == 3 and doc["n_minus"] == 0
    assert doc["components"] == 1
    assert len(doc["homology"]) == 5
    assert {"i": 3, "j": 7, "rank": 0, "torsion": [2]} in doc["homology"]
    assert doc["euler_characteristic"] == {"1": 1, "3": 1, "5": 1, "9": -1}


def test_homology_json_roundtrip_stable(capsys):
    code, out, _ = run(["homology", "--braid", "1 2 1 2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    entries = [(e["i"], e["j"]) for e in doc["homology"]]
    assert entries == sorted(entries)


def test_homology_rational_ring_drops_torsion(capsys):
    code, out, _ = run(
        ["homology", "--braid", "1 1 1", "--ring", "q", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert all(e["torsion"] == [] for e in doc["homology"])
    # the rank-0 pure-torsion entry disappears over the rationals
    assert len(doc["homology"]) == 4


def test_homology_inverted_convention(capsys):
    code, out, _ = run(
        ["homology", "--braid", "1 1 1", "--convention", "inverted",
         "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert {e["j"] for e in doc["homology"]} == {-1, -3, -5, -7, -9}


def test_homology_pd_input(tmp_path, capsys):
    pd = tmp_path / "hopf.pd"
    pd.write_text(HOPF_PD, encoding="utf-8")
    code, out, _ = run(["homology", "--pd", str(pd), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["kind"] == "pd"
    assert doc["components"] == 2
    assert len(doc["homology"]) == 4


def test_nonplanar_pd_exits_one(tmp_path, capsys):
    pd = tmp_path / "nonplanar.pd"
    pd.write_text(NONPLANAR_PD, encoding="utf-8")
    for command in ("homology", "jones"):
        code, out, err = run([command, "--pd", str(pd)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "planar" in err


def test_wrong_sign_pd_exits_one(tmp_path, capsys):
    pd = tmp_path / "trefoil.pd"
    pd.write_text(WRONG_SIGN_TREFOIL_PD, encoding="utf-8")
    for command in ("homology", "jones"):
        code, out, err = run([command, "--pd", str(pd)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "orientation" in err


def test_pd_text_header_is_all_comment_lines(tmp_path, capsys):
    # A PD file's records share the first comment line, so a reader that
    # skips "#" lines sees only the table or the polynomial.
    pd = tmp_path / "trefoil.pd"
    pd.write_text("X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n", encoding="utf-8")
    for command, body in (("homology", "j\\i  -3    -2  0"),
                          ("jones", "-q^-9 + q^-5 + q^-3 + q^-1")):
        code, out, _ = run([command, "--pd", str(pd)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# input (pd): X[1,4,2,5] -; X[3,6,4,1] -; X[5,2,6,3] -"
        assert lines[1].startswith("# strands=None ") and lines[2] == body


def test_nonplanar_pd_exits_one_under_optimize(tmp_path):
    # The input check must not rely on assert, which -O strips.
    pd = tmp_path / "nonplanar.pd"
    pd.write_text(NONPLANAR_PD, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(khlab.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "khlab.cli", "homology", "--pd", str(pd)],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_render_table_cells():
    text = cli.render_table(table_of("1 1 1"), "text")
    assert "0+T2" in text
    csv = cli.render_table(table_of("1 1 1"), "csv")
    assert "3,7,0,2" in csv.splitlines()
    assert csv.splitlines()[0] == "i,j,rank,torsion"


def test_render_empty_table():
    assert cli.render_table(BigradedGroup({}), "text") == "j\\i"
    assert cli.render_table(BigradedGroup({}), "csv") == "i,j,rank,torsion"


def test_jones_command(capsys):
    code, out, _ = run(["jones", "--braid", "-1 -1 -1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["euler_characteristic"] == {"-9": -1, "-5": 1, "-3": 1, "-1": 1}


def test_jones_csv_lists_each_term(capsys):
    code, out, _ = run(["jones", "--braid", "1 1 1", "--format", "csv"], capsys)
    assert code == 0
    assert out == "exponent,coefficient\n1,1\n3,1\n5,1\n9,-1\n"


def test_verify_command_passes(capsys):
    code, out, _ = run(["verify", "--braid", "1 1 1"], capsys)
    assert code == 0
    assert "h1_vanishing: pass" in out


def test_verify_t_2_41_needs_a_raised_cap(monkeypatch, capsys):
    monkeypatch.delenv("KHLAB_CAP", raising=False)
    word = " ".join(["1"] * 41)
    code, out, _ = run(["verify", "--braid", word, "--cap", "41"], capsys)
    assert code == 0 and "h1_vanishing: pass" in out
    code, _, err = run(["verify", "--braid", word], capsys)
    assert code == 2 and "cap of 20" in err


def test_verify_failure_exits_three(monkeypatch, capsys):
    def fake_verify(word, cap):
        return VerificationReport(
            word=word, is_knot=True,
            checks=(Check("h1_vanishing", "fail", "synthetic"),),
        )

    monkeypatch.setattr(cli, "verify_positive_braid", fake_verify)
    code, _, _ = run(["verify", "--braid", "1 1 1"], capsys)
    assert code == 3


def test_parse_error_exits_one(capsys):
    code, _, err = run(["homology", "--braid", "0"], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("text, message", [
    ("p=0;", "strand count must be >= 1, got 0"),
    ("p=0; 1", "strand count 0 too small for generator 1"),
])
def test_zero_strand_count_exits_one(text, message, capsys):
    code, out, err = run(["homology", "--braid", text], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_flag_exits_one(capsys):
    code, _, _ = run(["homology", "--braid", "1", "--bogus"], capsys)
    assert code == 1


@pytest.mark.parametrize("flags", [
    ("jones", "--ring", "q"),
    ("verify", "--ring", "q"),
    ("cube-stats", "--ring", "q"),
    ("verify", "--convention", "inverted"),
    ("cube-stats", "--convention", "inverted"),
    ("verify", "--format", "csv"),
    ("cube-stats", "--format", "csv"),
])
def test_flag_the_command_does_not_read_exits_one(flags, capsys):
    command, *rest = flags
    code, out, err = run([command, "--braid", "1 1 1", *rest], capsys)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_unreadable_pd_exits_one(capsys):
    code, _, err = run(["homology", "--pd", "/no/such/file.pd"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_non_utf8_pd_exits_one(tmp_path, capsys):
    pd = tmp_path / "binary.pd"
    pd.write_bytes(b"\xff\xfeX[1,4,2,5] -\n")
    code, out, err = run(["homology", "--pd", str(pd)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read PD file")
    assert "not UTF-8 text" in err and "Traceback" not in err


def test_pd_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # A UTF-8 byte-order mark, as some editors save it, is not part of the
    # first record: the file gives the same table and JSON as without it.
    records = b"X[1,4,2,5] -\nX[3,6,4,1] -\nX[5,2,6,3] -\n"
    outputs = []
    for name, data in (("plain.pd", records), ("bom.pd", b"\xef\xbb\xbf" + records)):
        pd = tmp_path / name
        pd.write_bytes(data)
        code, text, err = run(["homology", "--pd", str(pd)], capsys)
        assert code == 0 and err == ""
        # The second comment line ends with the time the run took.
        lines = text.splitlines()
        assert lines[1].startswith("# strands=None n+=0 n-=3 components=1 time=")
        code, doc, err = run(["homology", "--pd", str(pd), "--format", "json"], capsys)
        assert code == 0 and err == ""
        outputs.append((lines[:1] + lines[2:], json.loads(doc)))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["input"]["text"].startswith("X[1,4,2,5]")


def test_cap_exceeded_exits_two(capsys):
    code, _, err = run(["homology", "--braid", "1 1 1", "--cap", "2"], capsys)
    assert code == 2
    assert "cap" in err


HUGE_STRANDS = "p=99999999999999999999; 1"


def test_generator_budget_exits_two_under_optimize():
    # p=40; 1 has one crossing and 38 free loops: 2^40 + 2^39 generators,
    # above the default cap's budget 3^20 + 3, refused before any q-degree is
    # listed.  The huge strand count is refused before its strands are laid
    # out.  Both refusals raise by hand, so they hold under -O.
    calls = [([command, "--braid", "p=40; 1"], "the cube has 1649267441664 generators, "
              "above the budget of 3486784404 (3^20 + 3) for the crossing cap of 20")
             for command in ("homology", "verify", "cube-stats")]
    calls += [([command, "--braid", HUGE_STRANDS], "99999999999999999999 strands leave "
               "99999999999999999997 without a letter")
              for command in ("homology", "jones", "verify", "cube-stats")]
    for argv, message in calls:
        started = time.monotonic()
        code, out, err = _in_process(argv)
        assert time.monotonic() - started < 0.5, argv
        assert (code, out) == (2, "") and err.startswith(f"error: {message}"), (argv, err)
        proc = subprocess.run([sys.executable, "-O", "-m", "khlab.cli", *argv],
                              capture_output=True, encoding="utf-8", env=_cli_env(), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


HUGE_CAP = "99999999999999999999"


def test_huge_cap_exits_zero(monkeypatch):
    # A cap that admits the cube outright: no 3^cap is formed, by --cap or
    # by KHLAB_CAP.
    def runs_quickly(argv):
        started = time.monotonic()
        code, out, err = _in_process(argv)
        assert time.monotonic() - started < 1, argv
        assert (code, err) == (0, "") and out, argv

    for command in ("homology", "verify", "cube-stats"):
        runs_quickly([command, "--braid", "1 1 1", "--cap", HUGE_CAP])
    monkeypatch.setenv("KHLAB_CAP", HUGE_CAP)
    runs_quickly(["homology", "--braid", "1 1 1"])


def test_budget_refusals_keep_their_messages():
    for word, generators in (("p=40; 1", 1649267441664), ("p=3; 1 2", 18)):
        code, out, err = _in_process(["homology", "--braid", word, "--cap", "2"])
        assert (code, out) == (2, "")
        assert err == (f"error: the cube has {generators} generators, above the budget of "
                       f"12 (3^2 + 3) for the crossing cap of 2; raise the cap explicitly "
                       f"to proceed\n")


def test_cap_zero_exits_one(capsys):
    code, out, err = run(["homology", "--braid", "1 1 1", "--cap", "0"], capsys)
    assert code == 1 and out == ""
    assert err == "error: crossing cap must be >= 1, got 0\n"


def test_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("KHLAB_CAP", "2")
    code, _, _ = run(["homology", "--braid", "1 1 1"], capsys)
    assert code == 2
    code, _, _ = run(["homology", "--braid", "1 1 1", "--cap", "5"], capsys)
    assert code == 0


def test_env_cap_not_an_integer_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("KHLAB_CAP", "abc")
    code, out, err = run(["homology", "--braid", "1 1 1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: KHLAB_CAP is not an integer: 'abc'\n"  # and no traceback


def test_cube_stats(capsys):
    code, out, _ = run(["cube-stats", "--braid", "1 1 1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 6, 12, 8]
    assert len(doc["nonzeros"]) == 3


def test_cube_stats_reports_each_block(capsys):
    # Every (i, q) block of d^i once, with the sizes of c.blocks(i); the
    # blocks of d^i tile its columns, rows and nonzeros.
    code, out, _ = run(["cube-stats", "--braid", "1 -2 1 -2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    c = khlab.build_complex(khlab.braid_closure(khlab.parse_braid("1 -2 1 -2")))
    expected = [{"i": i, "q": q, "rows": b.rows, "cols": b.cols, "nonzeros": len(b.entries)}
                for i in range(c.m) for q, b in sorted(c.blocks(i).items())]
    assert doc["blocks"] == expected
    assert doc["nonzeros"] == [len(entries) for entries in c.diffs]
    # An independent count: each edge record writes one entry per image and
    # per labeling of the circles it leaves alone.
    assert doc["nonzeros"] == [sum(len(shape[0]) * len(shape[2]) for _, _, shape, _ in c.records(i))
                               for i in range(c.m)]
    for i in range(c.m):
        mine = [b for b in doc["blocks"] if b["i"] == i]
        assert sum(b["cols"] for b in mine) == doc["dims"][i]
        assert sum(b["rows"] for b in mine) == doc["dims"][i + 1]
        assert sum(b["nonzeros"] for b in mine) == doc["nonzeros"][i]
    code, text, _ = run(["cube-stats", "--braid", "1 -2 1 -2"], capsys)
    assert code == 0
    lines = text.splitlines()
    header = lines.index("d^i     q  rows  cols  nonzeros")
    rows = [tuple(map(int, line.split())) for line in lines[header + 1:]]
    assert rows == [tuple(b.values()) for b in expected]


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def test_json_schema(tmp_path, capsys):
    pd = tmp_path / "hopf.pd"
    pd.write_text(HOPF_PD, encoding="utf-8")
    for kind, source in (("braid", ["--braid", "1 1 1"]), ("pd", ["--pd", str(pd)])):
        docs = {}
        for command in ("homology", "jones"):
            code, out, _ = run([command, *source, "--format", "json"], capsys)
            assert code == 0
            doc = docs[command] = json.loads(out)
            assert doc["input"]["kind"] == kind
            assert isinstance(doc["input"]["text"], str)
            for key in ("n_plus", "n_minus", "components"):
                assert _is_int(doc[key])
            chi = doc["euler_characteristic"]
            assert chi and all(str(int(e)) == e and _is_int(v) for e, v in chi.items())
        assert docs["homology"]["euler_characteristic"] == docs["jones"]["euler_characteristic"]
        rows = docs["homology"]["homology"]
        assert rows
        for row in rows:
            assert list(row) == ["i", "j", "rank", "torsion"]
            assert all(_is_int(row[key]) for key in ("i", "j", "rank"))
            assert isinstance(row["torsion"], list) and all(map(_is_int, row["torsion"]))

        code, out, _ = run(["cube-stats", *source, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["dims", "nonzeros", "blocks"]
        assert len(doc["nonzeros"]) == len(doc["dims"]) - 1
        assert all(map(_is_int, doc["dims"] + doc["nonzeros"]))
        assert doc["blocks"]
        for block in doc["blocks"]:
            assert list(block) == ["i", "q", "rows", "cols", "nonzeros"]
            assert all(map(_is_int, block.values()))

    code, out, _ = run(["verify", "--braid", "1 1 1", "--format", "json"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks
    for check in checks:
        assert list(check) == ["name", "status", "details"]
        assert all(isinstance(v, str) for v in check.values())
        assert check["status"] in ("pass", "fail", "skip")
    code, _, err = run(["verify", "--pd", str(pd), "--format", "json"], capsys)
    assert code == 1 and "error:" in err


def _in_process(argv):
    """(exit code, stdout, stderr) of cli.run(argv), captured for this call alone."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_env() -> dict:
    """The environment of a new python -m khlab.cli process that imports this khlab."""
    src = os.path.dirname(os.path.dirname(khlab.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _fresh_process(argv):
    """(exit code, stdout, stderr) of argv in a new python -m khlab.cli process."""
    proc = subprocess.run([sys.executable, "-m", "khlab.cli", *argv],
                          capture_output=True, encoding="utf-8", env=_cli_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_stdout_exits_one_without_traceback():
    # The reader is gone before the process writes, as when `head` has quit.
    for command in ("homology", "jones", "verify"):
        read, write = os.pipe()
        os.close(read)
        proc = subprocess.Popen(
            [sys.executable, "-m", "khlab.cli", command, "--braid", "1 1 1", "--format", "json"],
            stdout=write, stderr=subprocess.PIPE, encoding="utf-8", env=_cli_env())
        os.close(write)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, (command, err)
        assert "Traceback" not in err and "Exception ignored" not in err, (command, err)


TREFOIL = ("--braid", "1 1 1")
UNKNOWN_FLAG = ["homology", *TREFOIL, "--bogus"]
UNREAD_FLAG = ["jones", *TREFOIL, "--ring", "q"]
MIXED_CALLS = [
    ["homology", *TREFOIL, "--ring", "q", "--format", "json"],
    ["homology", *TREFOIL, "--format", "json"],
    ["homology", *TREFOIL, "--convention", "inverted", "--format", "json"],
    ["homology", *TREFOIL, "--format", "csv"],
    ["jones", *TREFOIL, "--convention", "inverted", "--format", "json"],
    ["jones", *TREFOIL, "--format", "json"],
    ["verify", *TREFOIL, "--format", "json"],
    ["cube-stats", *TREFOIL],
    UNKNOWN_FLAG,
    UNREAD_FLAG,
    ["homology", *TREFOIL, "--cap", "2"],
    ["homology", "--braid", "0"],
]


def test_parser_is_built_once_and_leaks_nothing_between_calls(monkeypatch):
    # argparse wraps usage lines to the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("KHLAB_CAP", raising=False)
    assert cli._build_parser() is cli._build_parser()
    results = [_in_process(argv) for argv in MIXED_CALLS]
    # --ring q drops torsion; the default ring z after it shows the trefoil's.
    assert all(e["torsion"] == [] for e in json.loads(results[0][1])["homology"])
    assert {"i": 3, "j": 7, "rank": 0, "torsion": [2]} in json.loads(results[1][1])["homology"]
    # --convention inverted negates q; the default convention after it does not.
    assert {e["j"] for e in json.loads(results[2][1])["homology"]} == {-1, -3, -5, -7, -9}
    assert "3,7,0,2" in results[3][1].splitlines()
    assert json.loads(results[4][1])["convention"] == "inverted"
    assert json.loads(results[5][1])["convention"] == "standard"
    # A rejected flag gives the same exit code and stderr on a second call,
    # written to that call's stderr, not to one captured before.
    for argv in (UNKNOWN_FLAG, UNREAD_FLAG):
        first, second = _in_process(argv), _in_process(argv)
        assert first == second
        assert first[0] == 1 and first[1] == "" and "unrecognized arguments" in first[2]
    assert [code for code, _, _ in results[-2:]] == [2, 1]
    # Each call prints what a fresh process prints for it.
    assert results == [_fresh_process(argv) for argv in MIXED_CALLS]
