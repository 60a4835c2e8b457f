"""End-to-end tests of the command-line surface (in-process, plus one real
subprocess sanity check)."""

from __future__ import annotations

import importlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gpea
import gpea.catalog
import gpea.ideals
from gpea import fig1, gamma_unitize, parse, serialize
from gpea.cli import run


def invoke(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_valid_builtin(capsys):
    code, out, err = invoke(capsys, ["check", "fig1"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "ALGEBRA size=6"
    assert lines[1:6] == [
        "associativity=pass",
        "conjugation=pass",
        "cancellation=pass",
        "neutrality=pass",
        "positivity=pass",
    ]
    assert lines[6] == (
        "FLAGS total=false weakly_commutative=true commutative=true"
        " has_unit=false upward_directed=false downward_directed=true"
    )
    assert lines[-1] == "RESULT valid=true"
    # No unit, hence no unit or supplement report.
    assert "UNIT" not in out


def test_check_prints_unit_and_supplements_when_available(capsys):
    code, out, _ = invoke(capsys, ["check", "boolean(2)"])
    assert code == 0
    assert "UNIT (1,1)" in out
    assert (
        "SUPPLEMENTS (0,1): right=(1,0) left=(1,0) double_left=(0,1)" in out
    )


def test_check_invalid_but_parseable_reports_not_errors(capsys, tmp_path):
    table = tmp_path / "pos.gpea"
    table.write_text("gpea 1\nn 2\nop 1 1 0\n", encoding="utf-8")
    code, out, err = invoke(capsys, ["check", str(table)])
    assert code == 0 and err == ""
    assert "positivity=fail witness=(1, 1, 0)" in out
    assert out.splitlines()[-1] == "RESULT valid=false"
    assert "FLAGS" not in out


def test_check_rejects_malformed_file(capsys, tmp_path):
    table = tmp_path / "garbage.gpea"
    table.write_text("hello world\n", encoding="utf-8")
    code, out, err = invoke(capsys, ["check", str(table)])
    assert code == 2
    assert "line 1: missing or malformed 'gpea 1' header" in err


def test_check_rejects_unknown_source(capsys):
    code, _, err = invoke(capsys, ["check", "nosuch(9)"])
    assert code == 2
    assert "neither an existing file nor a builtin expression" in err


def test_check_reports_budget_refusal_of_a_builtin(capsys, monkeypatch):
    monkeypatch.setenv("GPEA_BUDGET", "16")
    code, out, err = invoke(capsys, ["check", "chain(100000000)"])
    assert (code, out) == (2, "")
    assert err == (
        "error: carrier of 100000001 elements exceeds the budget of 16 "
        "(set GPEA_BUDGET to raise it)\n"
    )


@pytest.mark.parametrize(
    "budget, message",
    [
        ("abc", "GPEA_BUDGET must be an integer, got 'abc'"),
        ("0", "GPEA_BUDGET must be positive"),
    ],
)
@pytest.mark.parametrize("source", ["fig1", "chain(2)"])
def test_check_reports_a_malformed_budget_for_a_builtin(
    capsys, monkeypatch, budget, message, source
):
    monkeypatch.setenv("GPEA_BUDGET", budget)
    code, out, err = invoke(capsys, ["check", source])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_reads_stdin(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        ["check", "-"],
        stdin_text="gpea 1\nn 3\nop 1 1 2\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "ALGEBRA size=3" in out and "RESULT valid=true" in out


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


def test_ideals_riesz_listing(capsys):
    code, out, _ = invoke(capsys, ["ideals", "fig1", "--riesz"])
    assert code == 0
    lines = out.splitlines()
    flagtext = (
        "order_ideal=true ideal=true normal=true sub_gpea=true r1=true riesz=true"
    )
    assert lines == [
        f"IDEAL {{0}} {flagtext}",
        f"IDEAL {{0,3}} {flagtext}",
        f"IDEAL {{0,1,2}} {flagtext}",
        f"IDEAL {{0,1,2,3,4,5}} {flagtext}",
        "RESULT count=4",
        "RESULT smallest=none",
    ]


def test_ideals_smallest_depends_on_improper_reading(capsys):
    code, out, _ = invoke(capsys, ["ideals", "chain(2)", "--riesz"])
    assert code == 0
    assert "RESULT count=2" in out
    assert "RESULT smallest={0,1,2}" in out
    code, out, _ = invoke(
        capsys, ["ideals", "chain(2)", "--riesz", "--exclude-improper"]
    )
    assert code == 0
    assert "RESULT smallest=none" in out


@pytest.mark.parametrize("extra", [[], ["--normal"]])
def test_ideals_refuses_exclude_improper_without_riesz(capsys, extra):
    code, out, err = invoke(capsys, ["ideals", "chain(2)", *extra, "--exclude-improper"])
    assert (code, out) == (2, "")
    assert err == "error: --exclude-improper needs --riesz\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ideals", "boolean(2)", "--gamma", ""],
        ["unitize", "fig1", "--gamma", ""],
        ["kite", "--base", "chain(1)", "--index", "1", "--lambda", "", "--rho", "0"],
    ],
    ids=["ideals", "unitize", "kite"],
)
def test_an_empty_image_list_is_refused(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: expected a comma-separated image list")


def test_ideals_smallest_counts_only_the_filtered_family(capsys, monkeypatch):
    sweeps = []
    sweep = gpea.ideals._ideal_sweep

    def counted(g):
        sweeps.append(g.size)
        return sweep(g)

    monkeypatch.setattr(gpea.ideals, "_ideal_sweep", counted)
    argv = ["ideals", "boolean(2)", "--riesz"]
    code, out, _ = invoke(capsys, [*argv, "--gamma", "0,2,1,3"])
    assert code == 0
    # {0,1} and {0,2} are printed but are not closed under the twist.
    assert "IDEAL {0,1} " in out and "IDEAL {0,2} " in out
    assert "RESULT count=4" in out
    assert "RESULT smallest={0,1,2,3}" in out
    code, out, _ = invoke(capsys, [*argv, "--gamma", "0,2,1,3", "--exclude-improper"])
    assert "RESULT smallest=none" in out
    code, out, _ = invoke(capsys, argv)
    assert "RESULT smallest=none" in out
    assert sweeps == [4, 4, 4]


def test_ideals_unfiltered_counts_all(capsys):
    code, out, _ = invoke(capsys, ["ideals", "fig1"])
    assert code == 0
    assert "RESULT count=8" in out
    assert "RESULT smallest" not in out


# ---------------------------------------------------------------------------
# autos
# ---------------------------------------------------------------------------


def test_autos_unitizing(capsys):
    code, out, _ = invoke(capsys, ["autos", "fig1", "--unitizing"])
    assert code == 0
    assert out.splitlines() == [
        "AUTO 0,1,2,3,4,5",
        "AUTO 0,2,1,3,5,4",
        "RESULT count=2",
    ]


def test_autos_unitizing_on_the_extension_of_the_chain_cube(capsys, tmp_path):
    # 54 elements: the pairwise-only search took seconds here; counts only.
    cube = gpea.product(gpea.chain(2), gpea.product(gpea.chain(2), gpea.chain(2)))
    source = tmp_path / "ext-chain2cube.gpea"
    extension = gamma_unitize(cube, tuple(range(27))).algebra
    source.write_text(serialize(extension), encoding="utf-8")
    code, out, _ = invoke(capsys, ["autos", str(source), "--unitizing"])
    assert code == 0
    assert out.splitlines()[-1] == "RESULT count=1"


# ---------------------------------------------------------------------------
# unitize
# ---------------------------------------------------------------------------


def test_unitize_streams_serialized_table(capsys):
    code, out, _ = invoke(capsys, ["unitize", "fig1", "--gamma", "0,1,2,3,4,5"])
    assert code == 0
    assert out.startswith("gpea 1\nn 12\n")
    extension = parse(out)
    assert extension.size == 12
    assert extension.name(6) == "η0"


def test_unitize_writes_file_with_summary(capsys, tmp_path):
    target = tmp_path / "u.gpea"
    code, out, _ = invoke(
        capsys, ["unitize", "fig1", "--gamma", "0,1,2,3,4,5", "-o", str(target)]
    )
    assert code == 0
    assert out.splitlines() == [
        "RESULT size=12",
        "RESULT unit=6",
        f"WROTE {target}",
    ]
    assert parse(target.read_text(encoding="utf-8")).size == 12


def test_unitize_rejects_non_unitizing_gamma(capsys):
    code, _, err = invoke(capsys, ["unitize", "fig1", "--gamma", "1,0,2,3,4,5"])
    assert code == 2
    assert "not a unitizing automorphism" in err


def test_unitize_pipes_into_rdp(capsys, monkeypatch):
    code, table_text, _ = invoke(
        capsys, ["unitize", "fig1", "--gamma", "0,2,1,3,5,4"]
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, ["rdp", "-"], stdin_text=table_text, monkeypatch=monkeypatch
    )
    assert code == 0
    assert "RESULT rdp=false" in out
    assert "rdp=false witness=(1, 7, 2, 8)" in out


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_streams_table_only(capsys):
    code, out, _ = invoke(capsys, ["quotient", "fig1", "--ideal", "0,3"])
    assert code == 0
    assert out.splitlines() == [
        "gpea 1",
        "n 3",
        "name 0 {0,c}",
        "name 1 {a,a+c}",
        "name 2 {b,b+c}",
    ]


def test_quotient_with_output_file_prints_blocks(capsys, tmp_path):
    target = tmp_path / "q.gpea"
    code, out, _ = invoke(
        capsys, ["quotient", "fig1", "--ideal", "0,3", "-o", str(target)]
    )
    assert code == 0
    assert out.splitlines() == [
        "BLOCK {0,3}",
        "BLOCK {1,4}",
        "BLOCK {2,5}",
        "RESULT blocks=3",
        f"WROTE {target}",
    ]
    quotiented = parse(target.read_text(encoding="utf-8"))
    assert quotiented.size == 3 and quotiented.value(1, 2) is None


def test_quotient_rejects_non_ideal(capsys):
    code, _, err = invoke(capsys, ["quotient", "fig1", "--ideal", "1"])
    assert code == 2
    assert "{1} is not an ideal" in err


def test_quotient_rejects_ideal_without_induced_equivalence(capsys, tmp_path):
    extension = gamma_unitize(fig1(), (0, 2, 1, 3, 5, 4)).algebra
    source = tmp_path / "ext-fig1.gpea"
    source.write_text(serialize(extension), encoding="utf-8")
    code, out, err = invoke(capsys, ["quotient", str(source), "--ideal", "0,1,2"])
    assert code == 2 and out == ""
    assert err.startswith("error: {0,1,2} induces no equivalence: NOT_EQUIVALENCE")


def test_quotient_rejects_malformed_members(capsys):
    code, _, err = invoke(capsys, ["quotient", "fig1", "--ideal", "0;3"])
    assert code == 2
    assert "comma-separated element indices" in err


# ---------------------------------------------------------------------------
# kite
# ---------------------------------------------------------------------------


def test_kite_summary_and_file(capsys, tmp_path):
    target = tmp_path / "k.gpea"
    code, out, _ = invoke(
        capsys,
        [
            "kite",
            "--base",
            "chain(1)",
            "--index",
            "2",
            "--lambda",
            "1,0",
            "--rho",
            "1,0",
            "-o",
            str(target),
        ],
    )
    assert code == 0
    assert out.splitlines() == [
        "RESULT kci=true",
        "RESULT kcii=true",
        "RESULT size=8",
        "RESULT connected=false",
        f"WROTE {target}",
    ]
    assert parse(target.read_text(encoding="utf-8")).size == 8


def test_kite_refuses_without_transfer_condition(capsys):
    code, _, err = invoke(
        capsys,
        [
            "kite",
            "--base",
            "chain(1)",
            "--index",
            "2",
            "--lambda",
            "0,1",
            "--rho",
            "1,0",
        ],
    )
    assert code == 2
    assert "transfer condition" in err


@pytest.mark.parametrize("perm", ["0,1", "1,0"])
def test_kite_over_the_one_element_base_does_not_arm_the_implication(
    capsys, tmp_path, perm
):
    """Every index set gives the two-element kite over the one-element
    base, whose whole carrier is its smallest normal Riesz ideal; with two
    orbits the kite says nothing about connectivity, so nothing raises."""
    target = tmp_path / "k.gpea"
    argv = ["kite", "--base", "chain(0)", "--index", "2", "--lambda", perm]
    code, out, err = invoke(capsys, [*argv, "--rho", perm, "-o", str(target)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "RESULT kci=true",
        "RESULT kcii=true",
        "RESULT size=2",
        "RESULT connected=false",
        f"WROTE {target}",
    ]


# ---------------------------------------------------------------------------
# rdp
# ---------------------------------------------------------------------------


def test_rdp_positive_report(capsys):
    code, out, _ = invoke(capsys, ["rdp", "fig1"])
    assert code == 0
    assert out.splitlines() == [
        "rdp0=true",
        "rdp=true",
        "rdp1=true",
        "rdp2=true",
        "RESULT rdp=true",
        "RESULT rdp0=true",
        "RESULT rdp1=true",
        "RESULT rdp2=true",
    ]


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_streams_tables(capsys):
    code, out, _ = invoke(capsys, ["enumerate", "--size", "3"])
    assert code == 0
    assert out.splitlines() == [
        "gpea 1",
        "n 3",
        "op 1 1 2",
        "",
        "gpea 1",
        "n 3",
        "",
        "RESULT count=2",
    ]


def test_enumerate_with_filter(capsys):
    code, out, _ = invoke(capsys, ["enumerate", "--size", "3", "--filter", "has-unit"])
    assert code == 0
    assert "RESULT count=1" in out
    assert "op 1 1 2" in out


def test_enumerate_rejects_unknown_filter(capsys):
    code, _, err = invoke(capsys, ["enumerate", "--size", "3", "--filter", "weird"])
    assert code == 2
    assert "unknown filter 'weird'" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passing_scope_exits_zero(capsys):
    code, out, _ = invoke(capsys, ["verify", "rdp", "--budget", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "VERIFY scope=rdp budget=2"
    assert "RESULT theorem=rdp_transfer_total instances=1 failures=0" in lines
    assert any(line.startswith("  note: non-total fig1:g0") for line in lines)


def test_verify_failing_scope_exits_one(capsys):
    code, out, _ = invoke(capsys, ["verify", "unitization", "--budget", "2"])
    assert code == 1
    lines = out.splitlines()
    assert "RESULT theorem=smallest_ideal_default instances=3 failures=2" in lines
    assert (
        "  failure smallest_ideal_default: n1#0:g0: base=none extension={0,1}"
        in lines
    )


def test_verify_refuses_an_over_limit_budget_before_enumerating(capsys, monkeypatch):
    searches = []
    monkeypatch.setattr(gpea.catalog, "_search_tables", searches.append)
    code, out, err = invoke(capsys, ["verify", "rdp", "--budget", "8"])
    assert code == 2 and out == ""
    assert err == "error: enumeration supports at most 7 elements\n"
    assert searches == []
    # The kite scope enumerates nothing, even at the largest budget.
    code, out, _ = invoke(capsys, ["verify", "kite", "--budget", "7"])
    assert code == 0
    assert out.splitlines()[0] == "VERIFY scope=kite budget=7"
    assert searches == []


@pytest.mark.parametrize(
    "budget, message",
    [
        ("99", "enumeration supports at most 7 elements"),
        ("-1", "budget must be at least 0, not -1"),
    ],
)
def test_verify_kite_refuses_a_budget_the_other_scopes_refuse(
    capsys, monkeypatch, budget, message
):
    """The kite scope enumerates nothing, yet echoes its budget: one that
    no other scope would run is refused, without enumerating."""
    searches = []
    monkeypatch.setattr(gpea.catalog, "_search_tables", searches.append)
    code, out, err = invoke(capsys, ["verify", "kite", "--budget", budget])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert searches == []


def test_verify_refuses_a_negative_budget(capsys):
    code, out, err = invoke(capsys, ["verify", "rdp", "--budget", "-1"])
    assert code == 2 and "RESULT" not in out
    assert err == "error: budget must be at least 0, not -1\n"
    # Budget 0 still runs the named examples.
    code, out, _ = invoke(capsys, ["verify", "rdp", "--budget", "0"])
    assert out.splitlines()[0] == "VERIFY scope=rdp budget=0"
    assert "RESULT" in out


def test_verify_rejects_unknown_scope(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["verify", "everything"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# repeated in-process runs
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _source_tree_env() -> dict[str, str]:
    """The environment with the source tree the tests imported first on
    ``PYTHONPATH``, so a fresh interpreter imports the same ``gpea``."""
    env = dict(os.environ)
    source_root = str(Path(gpea.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_parser_is_built_on_the_first_run_and_reused():
    code = """
import argparse, contextlib, io
built = []
original = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    original(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import gpea.cli
print(built.count("gpea"), len(built))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["check", "fig1"], ["rdp", "chain(2)"], ["check", "boolean(2)"]):
        assert gpea.cli.run(argv) == 0
print(built.count("gpea"))
"""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=_source_tree_env(),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == ["0 0", "1"]


def test_usage_error_is_the_same_before_and_after_a_valid_run(capsys):
    def usage_error():
        with pytest.raises(SystemExit) as excinfo:
            run(["ideals", "fig1", "--normal", "--riesz"])
        return excinfo.value.code, capsys.readouterr()

    first = usage_error()
    assert first[0] == 2 and first[1].out == ""
    assert first[1].err.startswith("usage: gpea ideals")
    assert "not allowed with argument" in first[1].err
    assert invoke(capsys, ["check", "fig1"])[0] == 0
    assert usage_error() == first


@pytest.mark.parametrize("argv", [["--help"], ["kite", "--help"]])
def test_help_is_the_same_on_every_call(capsys, argv):
    def help_text():
        with pytest.raises(SystemExit) as excinfo:
            run(argv)
        assert excinfo.value.code == 0
        return capsys.readouterr()

    first = help_text()
    assert first.out.startswith("usage: gpea") and first.err == ""
    assert help_text() == first


def test_budget_is_read_on_every_run(capsys, monkeypatch):
    assert invoke(capsys, ["check", "chain(2)"])[0] == 0
    monkeypatch.setenv("GPEA_BUDGET", "2")
    assert invoke(capsys, ["check", "chain(2)"]) == (
        2,
        "",
        "error: carrier of 3 elements exceeds the budget of 2 "
        "(set GPEA_BUDGET to raise it)\n",
    )
    monkeypatch.delenv("GPEA_BUDGET")
    assert invoke(capsys, ["check", "chain(2)"])[0] == 0


def test_check_runs_the_axiom_check_once(capsys, monkeypatch):
    calls = []
    validate_axioms = gpea.core.validate_axioms

    def counting(g):
        calls.append(g.size)
        return validate_axioms(g)

    monkeypatch.setattr(gpea.core, "validate_axioms", counting)
    code, out, _ = invoke(capsys, ["check", str(GOLDEN / "ext-fig1-swap.gpea")])
    assert code == 0 and out.endswith("RESULT valid=true\n")
    assert calls == [12]
    # A builtin is validated as it is built; check prints its report as is.
    calls.clear()
    code, out, _ = invoke(capsys, ["check", "boolean(5)"])
    assert code == 0 and out.endswith("RESULT valid=true\n")
    assert calls == [2, 4, 8, 16, 32]


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (["enumerate", "--size", "5"], 0, "enumerate-size-5.txt"),
        (["enumerate", "--size", "6"], 0, "enumerate-size-6.txt"),
        (["enumerate", "--size", "7"], 0, "enumerate-size-7.txt"),
        (["verify", "all", "--budget", "4"], 1, "verify-all-budget-4.txt"),
        (["verify", "all", "--budget", "5"], 1, "verify-all-budget-5.txt"),
        (["verify", "all", "--budget", "6"], 1, "verify-all-budget-6.txt"),
        (
            ["kite", "--base", "chain(1)", "--index", "3", "--lambda", "1,2,0", "--rho", "1,2,0"],
            0,
            "kite-chain1-index3-cycle.txt",
        ),
        (
            ["kite", "--base", "chain(2)", "--index", "2", "--lambda", "1,0", "--rho", "1,0"],
            0,
            "kite-chain2-index2-swap.txt",
        ),
        (
            ["kite", "--base", str(GOLDEN / "flat5.gpea"), "--index", "2", "--lambda", "0,1", "--rho", "0,1"],
            0,
            "kite-flat5-index2.txt",
        ),
        (["unitize", "fig1", "--gamma", "0,2,1,3,5,4"], 0, "unitize-fig1.txt"),
        (["check", str(GOLDEN / "ext-fig1-swap.gpea")], 0, "check-ext-fig1-swap.txt"),
        (["check", "boolean(3)"], 0, "check-boolean3.txt"),
    ],
)
def test_output_matches_golden_file(capsys, argv, code, golden):
    # The verify instance family is enumerate_gpeas(1..budget) in table-key
    # order, so a reordered or changed enumeration shows up here too.
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert invoke(capsys, argv) == (code, expected, "")


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def _declared_entry_point():
    """The object that ``[project.scripts]`` in pyproject.toml names for
    ``gpea``, read by a plain text match (``tomllib`` is 3.11+)."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    section = re.search(
        r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S
    )
    assert section is not None, "pyproject.toml has no [project.scripts]"
    target = re.search(
        r'^gpea\s*=\s*"([\w.]+):(\w+)"', section.group(1), re.M
    )
    assert target is not None, "[project.scripts] declares no gpea script"
    module, attr = target.groups()
    return getattr(importlib.import_module(module), attr)


def test_console_script_runs_check():
    from gpea.__main__ import main as module_main

    # The installed script and ``python -m gpea`` must be one entry point.
    assert _declared_entry_point() is module_main
    if shutil.which("gpea") is not None:
        argv = ["gpea"]
        env = None
    else:
        # Not installed: run the same source tree the test imported.
        argv = [sys.executable, "-m", "gpea"]
        env = _source_tree_env()
    completed = subprocess.run(
        argv + ["check", "fig1"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert completed.returncode == 0
    assert "RESULT valid=true" in completed.stdout
