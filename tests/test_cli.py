"""End-to-end command line behavior, run in process."""

import json
import shlex
from pathlib import Path

import pytest

from coxdepth import checks, enumeration
from coxdepth.cli import main
from coxdepth.enumeration import count_class
from coxdepth.patterns import is_fc
from coxdepth.stats import drop

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat_plain(capsys):
    code, out, err = run(capsys, "stat", "3412")
    assert code == 0 and err == ""
    assert out == (
        "length=4 rlength=2 depth=4 drop=3 des=1 exc=2 "
        "fc=true boolean=false free=false\n"
    )


def test_stat_identity(capsys):
    code, out, _ = run(capsys, "stat", "1")
    assert code == 0
    assert out == (
        "length=0 rlength=0 depth=0 drop=0 des=0 exc=0 "
        "fc=true boolean=true free=true\n"
    )


def test_stat_json(capsys):
    code, out, _ = run(capsys, "stat", "3412", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "length": 4,
        "rlength": 2,
        "depth": 4,
        "drop": 3,
        "des": 1,
        "exc": 2,
        "fc": True,
        "boolean": False,
        "free": False,
    }


def test_decompose_shallow_golden(capsys):
    code, out, _ = run(capsys, "decompose", "3715246", "--method", "shallow")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "u = (6 7)(4 6)(2 4)(1 3); v = (4 5); weight 8"
    assert lines[1] == "factor weights: 1 2 2 2 1"


def test_decompose_selection_golden(capsys):
    code, out, _ = run(capsys, "decompose", "2431756", "--method", "selection")
    assert code == 0
    assert out.splitlines()[0] == "w = (1 2)(2 4)(5 6)(5 7); weight 6"


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, "decompose", "12345")
    assert code == 0
    assert out == "u = e; v = e; weight 0\n"


def test_decompose_trace(capsys):
    code, out, _ = run(capsys, "decompose", "2431756", "--method", "selection", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "2431756 --(5 7)R--> 2431657"
    assert lines[3] == "2431657 --(5 6)R--> 2431567"
    assert lines[4] == "2431567 --(2 4)R--> 2134567"
    assert lines[5] == "2134567 --(1 2)R--> 1234567"


def test_decompose_shallow_trace_sides(capsys):
    code, out, _ = run(capsys, "decompose", "3715246", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "3715246 --(6 7)L--> 3615247"
    assert lines[4] == "3415267 --(4 5)R--> 3412567"


def test_decompose_trace_at_n_12_is_space_separated(capsys):
    code, out, _ = run(capsys, "decompose", "2 12 4 1 3 11 5 10 6 9 7 8", "--trace")
    assert code == 0
    trace = out.splitlines()[2:]
    assert len(trace) == 11
    assert trace[0] == "2 12 4 1 3 11 5 10 6 9 7 8 --(8 12)L--> 2 8 4 1 3 11 5 10 6 9 7 12"
    assert trace[-1].endswith("--> 1 2 3 4 5 6 7 8 9 10 11 12")
    for line in trace:
        before, _, rest = line.partition(" --(")
        assert len(before.split()) == len(rest.partition("--> ")[2].split()) == 12


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "3715246", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "shallow"
    assert obj["weight"] == 8
    assert obj["factors"] == [[6, 7], [4, 6], [2, 4], [1, 3], [4, 5]]
    assert obj["sides"] == ["u", "u", "u", "u", "v"]


def test_table_depth_a(capsys):
    code, out, _ = run(capsys, "table", "depth", "--group", "A", "--n", "6")
    assert code == 0
    assert out == "1 5 18 46 93 137 148 136 100 36\n"


def test_table_depth_b_regression(capsys):
    code, out, _ = run(capsys, "table", "depth", "--group", "B", "--n", "3")
    assert code == 0
    assert out == "1 3 8 13 14 8 1\n"


def test_table_depth_i2(capsys):
    code, out, _ = run(capsys, "table", "depth", "--group", "I2", "--m", "6")
    assert code == 0
    assert out == "1 2 4 4 1\n"


def test_table_depth_csv(capsys):
    code, out, _ = run(capsys, "table", "depth", "--group", "A", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,k,count\n2,0,1\n2,1,1\n"


def test_table_depth_json(capsys):
    code, out, _ = run(capsys, "table", "depth", "--group", "A", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "A",
        "stat": "depth",
        "n": 4,
        "counts": [1, 3, 7, 9, 4],
    }


def test_table_joint(capsys):
    code, out, _ = run(capsys, "table", "joint", "--n", "3")
    assert code == 0
    assert out == "0,0:1 1,1:2 2,1:2 2,2:1\n"


def test_table_class(capsys):
    code, out, _ = run(capsys, "table", "class", "--cls", "fc", "--n", "8")
    assert code == 0
    assert out == "1430\n"
    code, out, _ = run(capsys, "table", "class", "--cls", "boolean_by_length", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "5\n"


def test_table_class_refuses_k_it_does_not_take(capsys):
    code, out, err = run(capsys, "table", "class", "--cls", "fc", "--n", "3", "--k", "5")
    assert code == 2
    assert out == ""
    assert err == "error: class fc takes no parameter k\n"


def test_table_missing_arguments(capsys):
    code, out, err = run(capsys, "table", "depth", "--group", "I2")
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run(capsys, "table", "class", "--n", "4")
    assert code == 2
    assert "cls" in err


def test_verify_small_all_pass(capsys):
    for n in ("3", "4"):
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 0, err
        lines = out.splitlines()
        assert lines
        assert all(line.startswith("PASS ") for line in lines)


def test_verify_suite_selection(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--suite", "patterns")
    assert code == 0
    lines = out.splitlines()
    assert any("fc-is-depth-eq-length" in line for line in lines)
    assert all(line.startswith("PASS ") for line in lines)
    assert not any("phi" in line for line in lines)


def test_verify_reports_failing_closed_form(capsys, monkeypatch):
    # every class count one too high: both closed-form checks name it
    monkeypatch.setattr(checks, "count_class", lambda *args: count_class(*args) + 1)
    code, out, err = run(capsys, "verify", "--n", "3", "--suite", "patterns")
    assert code == 1
    lines = out.splitlines()
    assert "PASS fc-is-depth-eq-length" in lines
    for name in ("class-counts-match-closed-forms", "boolean-length-refined-counts"):
        at = lines.index("FAIL " + name)
        assert lines[at + 1].startswith("  closed form disagrees for")
    assert err == ""


# A planted fault makes table joint, table class and dihedral refuse to
# print: exit code 1, nothing on stdout, one error line with the witness.

def test_table_joint_refuses_on_a_witness(capsys, monkeypatch, fresh_columns):
    # drop one too high at 231 only, inside the column sweep
    monkeypatch.setattr(enumeration, "drop", lambda w: drop(w) + (w == (2, 3, 1)))
    code, out, err = run(capsys, "table", "joint", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: S_3, q^2 t^1: drop/des 1, dep/exc 2\n"


def test_table_class_refuses_on_a_witness(capsys, monkeypatch, fresh_columns):
    # the fc scan wrong at 321 only, so S_3 counts 6 fc windows
    monkeypatch.setattr(enumeration, "is_fc", lambda w: is_fc(w) != (w == (3, 2, 1)))
    code, out, err = run(capsys, "table", "class", "--cls", "fc", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: closed form disagrees for fc (n=3): counted 6, formula 5\n"


def test_dihedral_refuses_on_a_witness(capsys, monkeypatch):
    # the depth formula one too high at the flip (3, 1) only
    formula = checks.dihedral_depth_formula
    monkeypatch.setattr(checks, "dihedral_depth_formula", lambda b, x: formula(b, x) + (x == (3, 1)))
    code, out, err = run(capsys, "dihedral", "--m", "6")
    assert (code, out) == (1, "")
    assert err == "error: I2(6) element (3, 1): oracle 3, formula 4\n"


def test_verify_rejects_big_n(capsys):
    code, _, err = run(capsys, "verify", "--n", "9")
    assert code == 2
    assert "1..8" in err


def test_dihedral_golden(capsys):
    code, out, _ = run(capsys, "dihedral", "--m", "6")
    assert code == 0
    assert out == "1 + 2*q*t + 2*q^2*t^2 + 2*q^3*t^2 + 2*q^4*t^3 + 2*q^5*t^3 + q^6*t^4\n"


def test_dihedral_smallest(capsys):
    code, out, _ = run(capsys, "dihedral", "--m", "2")
    assert code == 0
    assert out == "1 + 2*q*t + q^2*t^2\n"


def test_dihedral_out_of_range(capsys):
    code, _, err = run(capsys, "dihedral", "--m", "13")
    assert code == 2
    assert "2..12" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "stat", "3413")
    assert code == 2
    assert err == "error: repeated value 3\n"
    code, _, err = run(capsys, "stat", "\u00b21")
    assert code == 2
    assert err == "error: malformed token '\u00b2'\n"


def test_usage_error_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["stat"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_console_entry_matches_main():
    from coxdepth.cli import main_entry

    assert callable(main_entry)


def readme_examples():
    # each "$ coxdepth ..." line in a README code block, with the lines
    # printed under it up to the next command or the end of the block
    examples, in_block, current = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ coxdepth "):
            current = (line[len("$ "):], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_examples_cover_every_subcommand():
    assert {command.split()[1] for command, _ in EXAMPLES} == {"stat", "decompose", "table", "verify", "dihedral"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    # a "..." line matches whatever the command prints from there on
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert code == 0 and err == ""
    printed = out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        printed, expected = printed[:cut], expected[:cut]
    assert printed == expected
