"""Command-line surface: subcommands, exit codes, determinism, config."""

import json
import subprocess
import sys

import pytest

from latmodel import cli
from latmodel.chains import enumerate_chains
from latmodel.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from latmodel.dieudonne import ag_witness
from latmodel.invariants import StratumLabel, stratum_label
from latmodel.scalars import prime_field
from latmodel.strata import census

F2 = prime_field(2)


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_census_csv_stdout(capsys):
    code, out, err = run(["census", "--e", "2", "--q", "2,3"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "e,q,lambda,T,m1,count"
    assert any(line.startswith("2,3,") for line in lines)
    # totals per q equal (q+1)^e
    for q in (2, 3):
        total = sum(int(l.rsplit(",", 1)[1]) for l in lines[1:] if l.startswith(f"2,{q},"))
        assert total == (q + 1) ** 2


def test_census_json_and_out_file(tmp_path, capsys):
    dest = tmp_path / "census.json"
    code, out, _ = run(
        ["census", "--e", "3", "--q", "2", "--format", "json", "--out", str(dest)],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""  # data went to the file
    obj = json.loads(dest.read_text())
    assert obj[0]["total"] == 27


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for dest in (a, b):
        code, _, _ = run(
            ["poset", "--e", "3", "--q", "2", "--format", "dot", "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_jobs_flag_does_not_change_output(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for dest, jobs in ((a, "1"), (b, "7")):
        code, _, _ = run(
            ["census", "--e", "4", "--q", "2", "--jobs", jobs, "--out", str(dest)],
            capsys,
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_hasse_suite(capsys):
    code, out, err = run(["verify", "--suite", "hasse", "--e", "4", "--q", "2"], capsys)
    assert code == EXIT_OK
    assert "suite hasse: ok" in err
    rep = json.loads(out)
    assert rep["ok"] is True


@pytest.mark.parametrize("plant", ["label", "top"])
def test_hasse_suite_fails_on_a_bad_maximal_stratum(plant, capsys, monkeypatch):
    # a census with lambda = (3,0) but m_2 = 0, or with a top whose lambda
    # is not (3,0) although it is free of rank one, fails the equivalence
    def planted(e, ctx):
        cen = census(e, ctx)
        if plant == "label":
            cen.counts[StratumLabel((e, 0), {2})] = 1
        else:
            rows = next(r for r, (lam, _) in cen.fibers.items() if lam == (e, 0))
            cen.fibers[rows] = ((e - 1, 1), cen.fibers[rows][1])
        return cen

    monkeypatch.setattr(cli, "census", planted)
    code, out, err = run(["verify", "--suite", "hasse", "--e", "3", "--q", "2"], capsys)
    assert code == EXIT_FAIL
    assert "suite hasse: FAIL" in err
    checks = json.loads(out)["suites"][0]["checks"]
    assert [c["ok"] for c in checks] == [True, False]
    assert checks[1]["check"] == "maximal-stratum-equivalence"


@pytest.mark.parametrize("e", [1, 2])
def test_verify_hasse_suite_small_e(e, capsys):
    # at e <= 2, m_i = 0 is equivalent to the Hodge step: there is no
    # converse example to find, and that is not a failure
    code, out, err = run(
        ["verify", "--suite", "hasse", "--e", str(e), "--q", "2,3"], capsys
    )
    assert code == EXIT_OK
    assert "suite hasse: ok" in err
    steps = [
        c for c in json.loads(out)["suites"][0]["checks"]
        if c["check"] == "hodge-step-lemma"
    ]
    assert [(c["q"], c["violations"], c["converse_examples"]) for c in steps] == [
        (2, 0, 0),
        (3, 0, 0),
    ]
    assert all(c["ok"] for c in steps)


def test_verify_flatness_suite(capsys):
    code, out, _ = run(
        ["verify", "--suite", "flatness", "--e", "4", "--q", "2,3"], capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True


def test_witness_roundtrips_into_deform(tmp_path, capsys):
    wit = tmp_path / "wit.json"
    code, _, _ = run(["witness", "--q", "2", "--out", str(wit)], capsys)
    assert code == EXIT_OK
    obj = json.loads(wit.read_text())
    assert obj["m1_vanishes"] is True
    assert obj["label"] == "lambda=(2,2);T={2,3,4};m1=0"

    fam_out = tmp_path / "fam.json"
    code, _, _ = run(
        [
            "deform", "--chain", str(wit), "--model", str(wit),
            "--recipe", "invert-m1", "--out", str(fam_out),
        ],
        capsys,
    )
    assert code == EXIT_OK
    fam = json.loads(fam_out.read_text())
    assert fam["generic_label"] == "lambda=(2,2);T={2,3,4};m1=1"
    assert fam["specialization_label"].startswith("lambda=(2,2);T={2,3,4}")


def test_deform_search_recipe(tmp_path, capsys):
    ch = next(
        c
        for c in enumerate_chains(4, F2)
        if stratum_label(c).serialize().startswith("lambda=(3,1);T={3,4}")
    )
    src = tmp_path / "chain.json"
    src.write_text(json.dumps(ch.serialize()))
    code, out, _ = run(
        [
            "deform", "--chain", str(src), "--recipe", "search",
            "--target", "lambda=(3,1);T={3}",
        ],
        capsys,
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["generic_label"].startswith("lambda=(3,1);T={3}")


def test_deform_missing_requirements_exit_usage(tmp_path, capsys):
    ch = enumerate_chains(2, F2)[0]
    src = tmp_path / "chain.json"
    src.write_text(json.dumps(ch.serialize()))
    # search without --target
    code, _, err = run(["deform", "--chain", str(src), "--recipe", "search"], capsys)
    assert code == EXIT_USAGE and "target" in err
    # sigma recipe without --model
    code, _, err = run(["deform", "--chain", str(src), "--recipe", "732-1"], capsys)
    assert code == EXIT_USAGE and "model" in err
    # missing file
    code, _, _ = run(
        ["deform", "--chain", str(tmp_path / "nope.json"), "--recipe", "hodge-raise"],
        capsys,
    )
    assert code == EXIT_USAGE


def _swapped_levels_chain():
    obj = ag_witness(2, 1, F2)[1].serialize()
    obj["levels"][:2] = obj["levels"][1::-1]
    return json.dumps(obj)


@pytest.mark.parametrize(
    "content",
    ["{}", "not json", _swapped_levels_chain()],
    ids=["empty-object", "not-json", "swapped-levels"],
)
@pytest.mark.parametrize("flag", ["--chain", "--model"])
def test_bad_input_file_is_usage_error(tmp_path, capsys, content, flag):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    good = tmp_path / "witness.json"
    model, chain = ag_witness(2, 1, F2)
    good.write_text(json.dumps({"model": model.serialize(), "chain": chain.serialize()}))
    files = {"--chain": str(good), "--model": str(good), flag: str(bad)}
    code, out, err = run(
        ["deform", "--chain", files["--chain"], "--model", files["--model"],
         "--recipe", "732-1"],
        capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "bad.json" in err


@pytest.mark.parametrize(
    "F",
    [
        [[[0]]],
        [[[1], [0], [0]], [[0], [1]]],
        [[[1], [0]], [[0], [1]], [[0], [0]]],
    ],
    ids=["one-entry", "three-columns", "three-rows"],
)
def test_model_not_2x2_is_usage_error(tmp_path, capsys, F):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"e": 4, "F": F}))
    good = tmp_path / "witness.json"
    good.write_text(json.dumps({"chain": ag_witness(2, 1, F2)[1].serialize()}))
    code, out, err = run(
        ["deform", "--chain", str(good), "--model", str(bad), "--recipe", "invert-m1"],
        capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "bad.json" in err and "2x2" in err


def test_negative_search_budget_is_usage_error(tmp_path, capsys):
    lo = next(c for c in enumerate_chains(3, F2) if stratum_label(c).lam == (2, 1))
    src = tmp_path / "lo.json"
    src.write_text(json.dumps(lo.serialize()))
    code, _, err = run(
        [
            "deform", "--chain", str(src), "--recipe", "search",
            "--target", "lambda=(3,0);T={}", "--budget", "-5",
        ],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "budget" in err


def test_deform_not_deformable_is_verification_failure(tmp_path, capsys):
    # a maximal chain cannot be raised: NotDeformable -> exit 2 (bad input),
    # while an exhausted search -> exit 1 (not found, not a usage error)
    ch = next(c for c in enumerate_chains(3, F2) if stratum_label(c).lam == (3, 0))
    src = tmp_path / "chain.json"
    src.write_text(json.dumps(ch.serialize()))
    code, _, _ = run(["deform", "--chain", str(src), "--recipe", "hodge-raise"], capsys)
    assert code == EXIT_USAGE

    lo = next(c for c in enumerate_chains(3, F2) if stratum_label(c).lam == (2, 1))
    src2 = tmp_path / "lo.json"
    src2.write_text(json.dumps(lo.serialize()))
    code, _, err = run(
        [
            "deform", "--chain", str(src2), "--recipe", "search",
            "--target", "lambda=(3,0);T={}", "--budget", "1",
        ],
        capsys,
    )
    assert code == EXIT_FAIL


def test_fibers_csv(capsys):
    code, out, _ = run(["fibers", "--e", "3", "--q", "2"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "e,q,index,lambda,fiber_count"
    # free lattices have singleton fibers
    assert any(line.endswith(",1") for line in lines[1:])


def test_orbits_json(capsys):
    code, out, _ = run(["orbits", "--e", "3", "--q", "2"], capsys)
    assert code == EXIT_OK
    obj = json.loads(out)[0]
    assert obj["total"] == 27
    assert obj["count"] == len(obj["orbits"])


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("e = 2\nq = 3\n")
    code, out, _ = run(["census", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert out.strip().split("\n")[1].startswith("2,3,")
    # explicit flag overrides config value
    code, out, _ = run(["census", "--config", str(cfg), "--q", "2"], capsys)
    assert code == EXIT_OK
    assert out.strip().split("\n")[1].startswith("2,2,")
    # unknown config keys are rejected
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    code, _, err = run(["census", "--config", str(bad)], capsys)
    assert code == EXIT_USAGE and "nonsense" in err


def test_config_equals_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("e = 2\n")
    code, out, _ = run(["census", f"--config={cfg}"], capsys)
    assert code == EXIT_OK
    assert out.strip().split("\n")[1].startswith("2,2,")


@pytest.mark.parametrize(
    "line, flag", [("e = abc", "--e"), ("format = xml", "--format")]
)
def test_ill_typed_config_value_is_usage_error(tmp_path, capsys, line, flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(["census", "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert any("error:" in l and flag in l for l in err.splitlines())


def test_invalid_q_list(capsys):
    code, _, err = run(["census", "--q", "2,banana"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("q", ["2,2", "3,2,3", "2,,3", "2,", ",2", ""])
@pytest.mark.parametrize(
    "cmd",
    [["census"], ["fibers"], ["orbits"], ["verify", "--suite", "hasse"]],
    ids=["census", "fibers", "orbits", "verify-hasse"],
)
def test_repeated_or_empty_q_entry_is_usage_error(cmd, q, capsys):
    # a repeated field would repeat every row or check, an empty entry is
    # not a field size: both are rejected before any work
    code, out, err = run(cmd + ["--e", "2", "--q", q], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert any(l.startswith("error:") and repr(q) in l for l in err.splitlines())


@pytest.mark.parametrize("cmd", ["poset", "witness"])
def test_single_field_command_rejects_q_list(cmd, capsys):
    # these commands work over one field: a list is an error, not its head
    code, out, err = run([cmd, "--e", "2", "--q", "2,3"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert any(l.startswith("error:") and "2,3" in l for l in err.splitlines())


@pytest.mark.parametrize("e", ["2", "5"])
def test_witness_honours_e(e, capsys):
    # the witness exists at e = 4 only: another --e is an error, not ignored
    code, out, err = run(["witness", "--e", e, "--q", "2"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines() == [
        "error: InvalidInput: witness only defined for e = 4"
    ]


@pytest.mark.parametrize("suite", ["closure", "all"])
def test_closure_suite_rejects_q_list(suite, capsys):
    # the closure suite certifies one poset: a list is rejected before any
    # suite runs, not cut to its head
    code, out, err = run(["verify", "--suite", suite, "--e", "3", "--q", "2,3"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert any(l.startswith("error:") and "2,3" in l for l in err.splitlines())
    assert "suite " not in err


def test_hasse_suite_checks_m1_witness_per_field(capsys, monkeypatch):
    fields = []

    def recording(m, c, ctx, e=4):
        fields.append(ctx.order)
        return ag_witness(m, c, ctx, e)

    monkeypatch.setattr(cli, "ag_witness", recording)
    code, out, _ = run(["verify", "--suite", "hasse", "--e", "4", "--q", "2,3"], capsys)
    assert code == EXIT_OK
    assert fields == [2, 3]
    checks = json.loads(out)["suites"][0]["checks"]
    m1 = [c for c in checks if c["check"] == "m1-witness-and-inversion"]
    assert len(m1) == 2 and all(c["ok"] for c in m1)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latmodel.cli", "census", "--e", "1", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("e,q,lambda,T,m1,count")
