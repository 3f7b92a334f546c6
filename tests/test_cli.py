"""Command line surface: exit codes, JSON schemas, determinism."""
import argparse
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import pytest

from jpaut import claims as claimcat
from jpaut import (PairMap, cli, enumerate_automorphisms, fastscan, jordan,
                   oracle, parse_system)
from jpaut.claims import standard_generated
from jpaut.cli import main
from jpaut.errors import BadInput

from test_acceptance import DETERMINISM_BATTERY


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_passing_system(capsys):
    code, out = run_cli(["verify", "VIV(n=2, ring=F5)"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["ok"] is True and rep["kind"] == "pair"
    assert rep["system"] == "VIV(2,F5)" and rep["ring"] == "F5"
    assert rep["identities_checked"] == 32 and rep["failures"] == []


def test_verify_failing_system(capsys):
    code, out = run_cli(["verify", "BadPair(F3)"], capsys)
    rep = json.loads(out)
    assert code == 1 and rep["ok"] is False
    assert rep["failures"][0]["identity"] == "outer-symmetry"
    assert len(rep["failures"]) <= 4


@pytest.mark.parametrize("spec, checks", [
    ("TIV(4,F3)", 2), ("VhI(1,3,Q)", 1), ("BadPair(F3)", 1)])
def test_verify_sweeps_each_structure_once(spec, checks, monkeypatch,
                                           tmp_path):
    # the catalog's construction guard, triple_from_algebra's check and
    # verify itself share one report per structure: TIV builds its algebra
    # and its triple, the others one structure
    swept = []
    real = jordan._axiom_report

    def counted(structure, vectorize):
        swept.append(structure)
        return real(structure, vectorize)
    monkeypatch.setattr(jordan, "_axiom_report", counted)
    out = tmp_path / "report.json"
    code = main(["verify", spec, "--out", str(out)])
    rep = json.loads(out.read_text())
    assert len(swept) == checks
    assert len({id(s) for s in swept}) == checks
    assert code == (1 if spec.startswith("Bad") else 0)
    assert rep["ok"] is (code == 0)
    if code:
        assert rep["failures"][0]["identity"] == "outer-symmetry"


def test_verify_parse_error(capsys):
    code, out = run_cli(["verify", "Nope(2,F3)"], capsys)
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "ParseError"


def test_check_passing_claim(capsys):
    code, out = run_cli(["check", "phi-n-kernel"], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert rep["claim"] == "phi-n-kernel"


def test_check_failing_claim_exits_one(capsys):
    code, out = run_cli(["check", "aut-TJI", "--n", "2"], capsys)
    rep = json.loads(out)
    assert code == 1 and rep["pass"] is False
    assert rep["details"]["exhaustive_order"] == 8


def test_check_refusal_is_a_pass(capsys):
    code, out = run_cli(["check", "lambda-iso", "--ring", "F3"], capsys)
    rep = json.loads(out)
    assert code == 0 and rep["outcome"] == "refused"


def test_check_unknown_claim(capsys):
    code, out = run_cli(["check", "no-such-claim"], capsys)
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "UnknownClaim"


def test_check_bad_dimensions(capsys):
    code, out = run_cli(["check", "vhi-rect", "--m", "2", "--n", "2"], capsys)
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "BadDims"


# n = 1 lies outside three statements: phi-n-kernel (f_tau is the
# identity), thi-product (X^T = X, so the product map is 2-to-1) and
# thi-neq-tti (ThI(1) and TtI(1,1) are the same triple)
@pytest.mark.parametrize("claim_id,flags", [
    ("detSim", "--n -1"), ("detSim", "--n 0"), ("phi-n-kernel", "--n -1"),
    ("phi-n-kernel", "--n 0"), ("phi-n-kernel", "--n 1"),
    ("thi-product", "--n 1"), ("thi-neq-tti", "--n 1"),
    ("schemesJandJTS", "--n 0"), ("aut-TJI", "--n 0"),
    ("lambda-iso", "--n 0"), ("tti-multiplier", "--m 1 --n 1"),
    ("vhi-rect", "--m 2 --n 2"), ("vti-vhi-iso", "--m 0 --n 2")])
def test_check_refuses_dimensions_outside_the_statement(claim_id, flags,
                                                        capsys, monkeypatch):
    def started(p):
        raise AssertionError("the runner started")
    monkeypatch.setattr(claimcat.CATALOG[claim_id], "runner", started)
    code, out = run_cli(["check", claim_id, *flags.split()], capsys)
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "BadDims"


@pytest.mark.parametrize("argv", [
    ["enumerate", "VIV(2,F3)", "--jobs", "-1"],
    ["enumerate", "VIV(2,F3)", "--mode", "generated", "--jobs", "0"],
    ["check", "autV-IV", "--ring", "F3", "--n", "2", "--jobs", "0"]])
def test_jobs_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -1])
def test_library_refuses_jobs_below_one(jobs, monkeypatch):
    def started(p):
        raise AssertionError("the runner started")
    monkeypatch.setattr(claimcat.CATALOG["autV-IV"], "runner", started)
    with pytest.raises(BadInput):
        claimcat.run_claim("autV-IV", ring="F3", n=2, jobs=jobs)
    for engine in ("auto", "pure"):
        with pytest.raises(BadInput):
            enumerate_automorphisms(parse_system("VIV(2,F3)"), jobs=jobs,
                                    engine=engine)


@pytest.mark.parametrize("p", [19483, 19489])
def test_auto_engine_serves_primes_past_the_fast_bound(p, capsys):
    # 19489 is the first prime past fastscan's int64 bound: auto falls back
    # to the pure engine there instead of exiting 2
    code, out = run_cli(["check", "aut-TJI", "--ring", f"F{p}", "--n", "1"],
                        capsys)
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True
    assert rep["details"]["exhaustive_order"] == 2
    code, out = run_cli(["enumerate", f"Jbilin(1,F{p})", "--jobs", "1"],
                        capsys)
    rep = json.loads(out)
    assert code == 0 and rep["order"] == 1
    engine = "fast" if p == 19483 else "pure"
    assert rep["generator_provenance"].endswith(f"(engine {engine})")


def test_enumerate_exhaustive_schema(capsys):
    code, out = run_cli(["enumerate", "ThatIV(2,F3)"], capsys)
    rep = json.loads(out)
    assert code == 0
    assert sorted(rep) == ["generator_provenance", "mode", "order", "ring",
                           "system"]
    assert rep["order"] == 8 and rep["mode"] == "exhaustive"
    assert "48 candidates" in rep["generator_provenance"]


def test_enumerate_dump_elements(capsys):
    code, out = run_cli(["enumerate", "ThatIV(2,F3)", "--dump-elements"],
                        capsys)
    rep = json.loads(out)
    assert code == 0 and len(rep["elements"]) == 8


def test_enumerate_generated_mode(capsys):
    code, out = run_cli(["enumerate", "VhI(1,2,F3)", "--mode", "generated"],
                        capsys)
    rep = json.loads(out)
    assert code == 0 and rep["order"] == 48 and rep["mode"] == "generated"
    assert rep["generator_provenance"]


def test_enumerate_budget_exit_code(capsys):
    code, out = run_cli(["enumerate", "VhI(2,2,F3)", "--budget", "100"],
                        capsys)
    rep = json.loads(out)
    assert code == 3 and rep["error"] == "BudgetExceeded"


@pytest.mark.parametrize("claim", ["detSim", "phi-n-kernel"])
def test_family_claim_budget_exit_code(claim, capsys):
    # M_4(F3) holds 3**16 = 43,046,721 matrices, past the default budget
    code, out = run_cli(["check", claim, "--n", "4"], capsys)
    rep = json.loads(out)
    assert code == 3 and rep["error"] == "BudgetExceeded"
    assert "43046721 matrices" in rep["message"]


def test_enumerate_infinite_ring_is_usage_error(capsys):
    code, out = run_cli(["enumerate", "VIV(2,Q)"], capsys)
    rep = json.loads(out)
    assert code == 2 and rep["error"] == "NonEnumerableRing"


def test_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(["enumerate", "ThatIV(2,F3)", "--out", str(target)],
                        capsys)
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["order"] == 8


def test_pretty_renders_a_table(capsys):
    code, out = run_cli(["enumerate", "ThatIV(2,F3)", "--pretty"], capsys)
    assert code == 0
    assert "order" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_claims_listing(capsys):
    code, out = run_cli(["claims"], capsys)
    rep = json.loads(out)
    assert code == 0 and len(rep["claims"]) == 15


def test_cli_reports_are_byte_identical_across_jobs():
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "jpaut.cli", "enumerate", "TIV(2,F5)",
           "--dump-elements"]
    one = subprocess.run(cmd + ["--jobs", "1"], capture_output=True, env=env)
    four = subprocess.run(cmd + ["--jobs", "4"], capture_output=True, env=env)
    assert one.returncode == 0 and four.returncode == 0
    assert one.stdout == four.stdout


_ERROR_COMMANDS = [
    ["enumerate", "Nope(2,F3)"],
    ["enumerate", "VhI(2,2,F3)", "--budget", "100"],
    ["enumerate", "VIV(2,Q)"],
    ["check", "no-such-claim"],
    ["check", "vhi-rect", "--m", "2", "--n", "2"],
    ["verify", "BadPair(F3)"],
    ["claims"],
]


@pytest.mark.parametrize("argv", [
    ["enumerate", text, "--jobs", "1"] + dump
    for text in DETERMINISM_BATTERY for dump in ([], ["--dump-elements"])
] + _ERROR_COMMANDS, ids=" ".join)
def test_report_writer_equals_indented_json_dumps(argv, tmp_path,
                                                  monkeypatch):
    # the report bytes are part of the determinism contract, so the
    # writer must reproduce json.dumps(indent=2) exactly
    reports = []
    real = cli._emit

    def spy(report, args):
        reports.append(report)
        return real(report, args)
    monkeypatch.setattr(cli, "_emit", spy)
    target = tmp_path / "report.json"
    main(argv + ["--out", str(target)])
    (report,) = reports
    if "elements" in report:  # a cli._Dump, written as its nested lists
        report = {**report, "elements": report["elements"].to_jsonable()}
    expect = json.dumps(report, indent=2, sort_keys=True, default=str)
    assert target.read_text(encoding="utf-8") == expect + "\n"


def _nested_dump_report(text, mode, capsys):
    """The --dump-elements report built the direct way: the report without
    elements, plus to_jsonable() of each element of an independently
    enumerated set."""
    argv = ["enumerate", text, "--mode", mode, "--jobs", "1"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    system = parse_system(text)
    aset = (enumerate_automorphisms(system, jobs=1) if mode == "exhaustive"
            else standard_generated(system)[0])
    report["elements"] = [el.to_jsonable() for el in aset.elements]
    return argv + ["--dump-elements"], report


@pytest.mark.parametrize("text,mode", [
    ("VhI(1,3,F3)", "exhaustive"),     # traced pair, 11,232 elements
    ("ThI(2,F3)", "exhaustive"),       # triple
    ("Mplus(2,F3)", "exhaustive"),     # algebra
    ("VhI(1,2,F3xF3)", "exhaustive"),  # pure engine, payloads first-met
    ("VhI(2,2,F3)", "generated"),
])
def test_dump_from_rows_equals_json_dumps_of_the_nested_report(text, mode,
                                                               capsys,
                                                               tmp_path):
    argv, report = _nested_dump_report(text, mode, capsys)
    _assert_writes(argv, json.dumps(report, indent=2, sort_keys=True,
                                    default=str) + "\n", capsys, tmp_path)


def _assert_writes(argv, expect, capsys, tmp_path):
    """main(argv) writes expect to stdout and, with --out, to a file."""
    assert main(argv) == 0
    assert capsys.readouterr().out == expect
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == expect


# a VhI(1,3,F3) row fills 37 template cells, its 18 leaves and the 19
# pieces of text around them, so a dump block holds CHUNK // 37 rows: at
# the default CHUNK the 11,232 rows end in a block of 182 (above).  A
# VhI(1,2,F3xF3) row fills 17 cells, and its 2,304 tuple payloads take the
# object path of each block's payload table
@pytest.mark.parametrize("text,chunk,blocks", [
    ("VhI(1,3,F3)", 37 * 432, 26),
    ("VhI(1,3,F3)", 37 * 11232, 1),
    ("VhI(1,2,F3xF3)", 17 * 100, 24),
], ids=["26 blocks of 432", "one block", "F3xF3 in 23 blocks of 100 and 4"])
def test_dump_blocks_that_end_with_the_set_equal_json_dumps(text, chunk,
                                                            blocks, capsys,
                                                            tmp_path,
                                                            monkeypatch):
    argv, report = _nested_dump_report(text, "exhaustive", capsys)
    monkeypatch.setattr(fastscan, "CHUNK", chunk)
    real, counts = cli._Dump.pieces, []

    def counted(dump, pad):
        pieces = list(real(dump, pad))
        counts.append(len(pieces))
        return iter(pieces)
    monkeypatch.setattr(cli._Dump, "pieces", counted)
    _assert_writes(argv, json.dumps(report, indent=2, sort_keys=True,
                                    default=str) + "\n", capsys, tmp_path)
    assert counts == [1 + blocks] * 2  # the opening bracket, then blocks


def test_dump_of_a_one_element_set_equals_json_dumps(capsys, tmp_path):
    system = parse_system("VhI(1,2,F3)")
    one = oracle.family_image(system, [PairMap.identity(system.ring, 2, 2)])
    expect = json.dumps({"elements": [one.elements[0].to_jsonable()],
                         "order": 1}, indent=2, sort_keys=True) + "\n"
    target = tmp_path / "report.json"
    for out in (None, str(target)):
        cli._emit({"order": 1, "elements": cli._Dump(one)},
                  argparse.Namespace(out=out, pretty=False))
    assert capsys.readouterr().out == expect
    assert target.read_text(encoding="utf-8") == expect


def test_dump_writer_holds_less_than_a_quarter_of_the_report(tmp_path,
                                                             monkeypatch):
    # the report is written block by block, never joined whole
    real, peaks = cli._emit, []

    def traced(report, args):
        tracemalloc.start()
        try:
            real(report, args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    monkeypatch.setattr(cli, "_emit", traced)
    target = tmp_path / "report.json"
    assert main(["enumerate", "VhI(1,3,F3)", "--jobs", "1",
                 "--dump-elements", "--out", str(target)]) == 0
    size = target.stat().st_size
    assert size == 5_065_819
    assert peaks[0] < size / 4


def test_out_keeps_its_old_bytes_when_the_writer_fails(tmp_path,
                                                       monkeypatch):
    target = tmp_path / "report.json"
    target.write_bytes(b"old report")
    real = cli._Dump.pieces

    def failing(dump, pad):
        pieces = real(dump, pad)
        yield next(pieces)
        yield next(pieces)
        raise RuntimeError("render failed after one block")
    monkeypatch.setattr(cli._Dump, "pieces", failing)
    with pytest.raises(RuntimeError, match="render failed"):
        main(["enumerate", "VhI(1,3,F3)", "--jobs", "1", "--dump-elements",
              "--out", str(target)])
    assert target.read_bytes() == b"old report"
    assert os.listdir(tmp_path) == ["report.json"]


def test_out_writes_a_device_in_place(capsys):
    # only a regular file is replaced; os.devnull must stay the device
    assert main(["enumerate", "ThatIV(2,F3)", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    base = os.path.basename(os.devnull)
    assert not [name for name in os.listdir(os.path.dirname(os.devnull))
                if name.startswith(base + ".")]


def test_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    target.write_bytes(b"old report")
    target.chmod(0o640)
    link.symlink_to(target)
    assert main(["enumerate", "ThatIV(2,F3)", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["order"] == 8
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.json", "report.json"]


def test_out_in_a_directory_without_write_access_is_written_in_place(
        tmp_path, capsys, monkeypatch):
    # a writable file whose directory takes no new file cannot be replaced
    target = tmp_path / "report.json"
    target.write_bytes(b"old report")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["enumerate", "ThatIV(2,F3)", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["order"] == 8
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("text", ["ThatIV(2,F3)", "VhI(1,2,F3)"])
def test_pretty_dump_renders_the_nested_report(text, capsys, monkeypatch):
    reports = []
    real = cli._emit

    def spy(report, args):
        reports.append(report)
        return real(report, args)
    monkeypatch.setattr(cli, "_emit", spy)
    argv, nested = _nested_dump_report(text, "exhaustive", capsys)
    assert main(argv + ["--pretty"]) == 0
    out = capsys.readouterr().out
    report = {**reports[-1], "elements": nested["elements"]}
    assert out == "\n".join(cli._pretty_lines(report)) + "\n"
    assert '- "2"' in out


_REPEATED = [
    ["verify", "VIV(n=2, ring=F5)"],
    ["check", "vhi-rect", "--ring", "F3", "--jobs", "1"],
    ["enumerate", "ThatIV(2,F3)", "--dump-elements", "--jobs", "1"],
    ["verify", "Nope(2,F3)"],                 # ParseError, exit 2
    ["enumerate", "ThatIV(2,F3)", "--mode", "sideways"],  # argparse, exit 2
]


def _exit_and_output(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_successive_main_calls_equal_fresh_calls(capsys):
    # main builds its parser once per process; a parser that kept state
    # from one call would change a later call's exit code or bytes
    fresh = []
    for argv in _REPEATED:
        cli.build_parser.cache_clear()
        fresh.append(_exit_and_output(argv, capsys))
    cli.build_parser.cache_clear()
    reused = [_exit_and_output(argv, capsys) for argv in _REPEATED * 2]
    assert reused == fresh * 2
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2]
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("text,mode,dump", [
    ("VhI(1,3,F3)", "exhaustive", True),
    ("VhI(1,3,F3)", "generated", True),
    ("VhI(2,2,F3)", "generated", False),
])
def test_fp_dump_paths_build_no_objects(text, mode, dump, capsys,
                                        monkeypatch):
    # over F_p the set stays int64 rows from the scan or the closure to
    # the written bytes; only the dump template decodes one row
    argv, report = _nested_dump_report(text, mode, capsys)
    if not dump:
        argv, report = argv[:-1], {k: v for k, v in report.items()
                                   if k != "elements"}
    real = oracle._Rows.decode

    def one_row_only(codec, rows):
        assert len(rows) <= 1, f"decoded {len(rows)} rows"
        return real(codec, rows)
    monkeypatch.setattr(oracle._Rows, "decode", one_row_only)
    assert main(argv) == 0
    expect = json.dumps(report, indent=2, sort_keys=True, default=str)
    assert capsys.readouterr().out == expect + "\n"
