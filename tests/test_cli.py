"""Command-line surface: outputs, exit codes, JSON schemas, determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tritangle import NonFinite, cli, errors, extract_factors, parse_state, state_from_json
from tritangle.cli import _fmt_display, main
from tritangle.randstates import KINDS
from _util import same_physical_state

GHZ = "(|000> + |111>)/sqrt(2)"
PSI = "1/2(|100>+|010>+|001>+|111>)"
ROT = '{"matrix": [["1","1"],["-1","1"]], "sqrt_scale2": 2}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_ghz(capsys):
    code, out, err = run(capsys, ["classify", GHZ])
    assert code == 0 and err == ""
    assert "[1; 0, 0, 0, 0, 0, 0]" in out
    assert "1/16" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, ["classify", PSI, "--json"])
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"det_abs2", "sub2", "display", "separable"}
    assert record["det_abs2"] == "1/16"
    assert record["display"] == [1.0] * 7
    assert record["separable"] is False


def test_classify_float_backend(capsys):
    code, out, _ = run(capsys, ["classify", GHZ, "--float", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["det_abs2"] == pytest.approx(1 / 16)


def test_classify_parse_error_exit2(capsys):
    code, out, err = run(capsys, ["classify", "|00"])
    assert code == 2 and out == "" and "offset" in err


def test_classify_mixed_arity_exit2(capsys):
    code, _, err = run(capsys, ["classify", "|00> + |000>"])
    assert code == 2 and "mixes" in err


def test_classify_wrong_qubit_count_exit3(capsys):
    code, _, err = run(capsys, ["classify", "|00>"])
    assert code == 3 and "3-qubit" in err


def test_a_two_qubit_state_is_named_as_the_library_names_it(capsys):
    code, out, err = run(capsys, ["classify", "|00> + |11>"])
    assert code == 3 and out == ""
    assert err == "error: expected a 3-qubit state, got a 2-qubit state\n"


def test_table_statuses(capsys):
    code, out, _ = run(capsys, ["table", "--json"])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    assert rows["separable"]["status"] == "matches"
    assert rows["GHZ"]["status"] == "matches"
    assert rows["psi"]["status"] == "matches"
    assert rows["phi"]["status"] == "matches"
    assert rows["W"]["status"] == "matches up to entry order"
    assert rows["cluster"]["status"] == "DISAGREES"
    assert rows["cluster"]["computed"] == [1, 1, 1, 0, 0, 1, 1]
    assert rows["cluster"]["quoted"] == [1, 1, 0, 1, 1, 0, 1]
    assert rows["separable"]["separable"] is True


def test_table_text_output(capsys):
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    assert "DISAGREES" in out
    assert out.count("\n") == 6


def test_measure_ghz(capsys):
    code, out, _ = run(capsys, ["measure", GHZ, "--qubit", "1", "--outcome", "0", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["prob"] == 0.5
    assert record["prob_exact"] == "1/2"
    assert record["concurrence"] == 0.0


def test_measure_impossible_outcome_exit3(capsys):
    code, _, err = run(capsys, ["measure", "|000>", "--qubit", "1", "--outcome", "1"])
    assert code == 3 and "probability 0" in err


def test_measure_requires_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", GHZ])
    assert exc.value.code == 2


def test_transform_ghz_to_psi(capsys):
    code, out, _ = run(
        capsys, ["transform", GHZ, "--u1", ROT, "--u2", ROT, "--u3", ROT, "--json"]
    )
    assert code == 0
    record = json.loads(out)
    result = state_from_json(record["state"])
    assert same_physical_state(result, parse_state(PSI))


def test_transform_backend_mismatch_exit4(capsys):
    s = 2 ** -0.5
    float_rot = json.dumps({"matrix": [[s, s], [-s, s]]})
    code, _, err = run(capsys, ["transform", GHZ, "--u1", float_rot])
    assert code == 4 and "unitary" in err


def test_transform_bad_matrix_json_exit2(capsys):
    code, _, err = run(capsys, ["transform", GHZ, "--u1", "{not json"])
    assert code == 2


def test_check_sep_product(capsys):
    code, out, _ = run(capsys, ["check-sep", "|000>", "--json"])
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"separable", "factors", "oracle_agrees"}
    assert record["separable"] is True
    assert record["oracle_agrees"] is True
    assert record["factors"]["fx"] == [["1", "0"], ["0", "0"]]


def test_check_sep_entangled(capsys):
    code, out, _ = run(capsys, ["check-sep", GHZ, "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["separable"] is False
    assert record["factors"] is None
    assert record["oracle_agrees"] is True


def test_factor_command(capsys):
    code, out, _ = run(capsys, ["factor", "3|000> + 3|001> - |010> - |011> + 6|100> + 6|101> - 2|110> - 2|111>", "--json"])
    assert code == 0
    record = json.loads(out)
    assert record["factors"]["fz"] == [["1", "0"], ["1", "0"]]


def test_factor_float_json_encodes_doubles(capsys):
    code, out, _ = run(capsys, ["factor", "--float", "--json", "3|000> + 3|001> + 6|100> + 6|101>"])
    assert code == 0
    assert json.loads(out)["factors"] == {
        "fx": [[3.0, 0.0], [6.0, 0.0]], "fy": [[1.0, 0.0], [0.0, 0.0]], "fz": [[1.0, 0.0], [1.0, 0.0]]
    }


def test_factor_not_separable_exit3(capsys):
    code, _, err = run(capsys, ["factor", GHZ])
    assert code == 3 and "not a product" in err


# One physical state at three global scales: the rebuild tolerance scales
# with the amplitudes, so each is separable only within eps.
_WITHIN_EPS = (
    ("100000|000> + |111>", ""),
    ("1/1000 |000> + 1/100000000 |111>", "-scaled-1e-8"),
    ("1/10000000 |000> + 1/1000000000000 |111>", "-scaled-1e-12"),
)


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "command, ket",
    [pytest.param(c, ket, id=c + tag) for c in ("check-sep", "factor") for ket, tag in _WITHIN_EPS],
)
def test_separable_only_within_eps_exit3(command, ket, json_mode, capsys):
    # |Det|^2 ~ 1e-20 passes eps, but the factors miss the rebuild tolerance.
    argv = [command, "--float", ket] + (["--json"] if json_mode else [])
    code, out, err = run(capsys, argv)
    assert code == 3 and out == "" and "separable only within eps=1e-10" in err


@pytest.mark.parametrize(
    "u1, argv",
    [
        ('{"matrix": [["1","1"],["1","1"]], "sqrt_scale2": 2}', []),
        ('{"matrix": [["1","0"],["0","1"]], "sqrt_scale2": 2}', []),  # wrong scale2
        ('{"matrix": [[0.7071, 0.7071], [0.7071, 0.7071]]}', ["--float"]),
        ('{"matrix": [[1e200, 0], [0, 1]]}', ["--float"]),  # the check overflows
        ('{"matrix": [[1e100, 0], [0, 1]]}', ["--float"]),  # its square overflows
        ('{"matrix": [[1, 0], [0, 1]], "sqrt_scale2": 1e-200}', ["--float"]),
    ],
    ids=["exact", "exact-scale2", "double", "double-overflow", "double-square-overflow",
         "double-scale2-overflow"],
)
def test_transform_not_unitary_exit3(u1, argv, capsys):
    code, out, err = run(capsys, ["transform", GHZ, "--u1", u1, "--json"] + argv)
    assert code == 3 and out == "" and err.startswith("error: ")


def test_random_deterministic(capsys):
    code1, out1, _ = run(capsys, ["random", "--count", "25", "--seed", "9", "--json"])
    code2, out2, _ = run(capsys, ["random", "--count", "25", "--seed", "9", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    record = json.loads(out1)
    assert record["mismatches"] == 0
    assert len(record["states"]) == 25


def test_random_kind_product_all_separable(capsys):
    code, out, _ = run(capsys, ["random", "--count", "10", "--seed", "3", "--kind", "product", "--json"])
    assert code == 0
    record = json.loads(out)
    assert all(r["separable"] for r in record["states"])


def test_random_kind_choices_are_the_generator_kinds(capsys):
    """``--kind`` reads its choices from ``randstates.KINDS`` when it needs them."""
    listed = "{" + ",".join(KINDS) + "}"
    with pytest.raises(SystemExit) as exc:
        main(["random", "--help"])
    assert exc.value.code == 0 and f"--kind {listed}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["random", "--kind", "bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'bogus' (choose from " + ", ".join(map(repr, KINDS)) + ")" in err


def test_json_state_input(tmp_path, capsys):
    code, out, _ = run(capsys, ["classify", GHZ, "--json"])
    expected = json.loads(out)
    path = tmp_path / "state.json"
    from tritangle import state_to_json

    path.write_text(json.dumps(state_to_json(parse_state(GHZ))))
    code, out, _ = run(capsys, ["classify", "--json-state", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == expected


def test_json_state_malformed_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"amps": "nope"}')
    code, _, err = run(capsys, ["classify", "--json-state", str(path)])
    assert code == 2


def test_deeply_nested_json_exit2(tmp_path, capsys):
    """JSON nested past the decoder's depth limit is bad JSON, not a crash."""
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, out, err = run(capsys, ["classify", "--json-state", str(path)])
    assert code == 2 and out == "" and "bad state JSON" in err
    code, out, err = run(capsys, ["transform", "|000>", "--u1", deep])
    assert code == 2 and out == "" and "bad unitary JSON" in err


_NESTED = json.loads("[" * 900 + "]" * 900)
_ZEROS = [[0, 0]] * 6 + [[1, 0]]


@pytest.mark.parametrize(
    "state, u1",
    [
        ({"amps": [[_NESTED, 0]] + _ZEROS}, None),
        ({"amps": [["1" * 5000 + "x", 0]] + _ZEROS}, None),
        (None, {"matrix": [[_NESTED, 0], [0, 1]]}),
        ({"amps": [["1" * 5000 + "x", 0]] + _ZEROS, "backend": "approx"}, None),
        ({"amps": [[1, 0]] + _ZEROS, "scale2": _NESTED}, None),
        (None, {"matrix": [["1,2," + "3" * 5000, 0], [0, 1]]}),
        (None, {"matrix": [["1" * 5000 + "x", 0], [0, 1]]}),
        (None, {"matrix": [[1, 0], [0, 1]], "sqrt_scale2": _NESTED}),
        ({"amps": ["1" * 5000] + _ZEROS}, None),
    ],
    ids=["nested-part", "long-string", "nested-cell", "long-double-string", "nested-scale2",
         "long-comma-cell", "long-text-cell", "nested-root", "string-amplitude"],
)
def test_bad_json_messages_cut_the_value_short(state, u1, tmp_path, capsys):
    """A malformed value is echoed cut short: the message stays under 200 characters."""
    if state is None:
        argv, prefix = ["transform", "|000>", "--u1", json.dumps(u1)], "bad unitary JSON: "
    else:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        argv, prefix = ["classify", "--json-state", str(path)], "bad state JSON: "
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith(f"error: {prefix}") and len(err) < 200, err


def test_json_errors_carry_their_prefix_and_no_ket_offset(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("not JSON")
    cases = [
        (["transform", "--u1", '{"matrix": [["1,2,3", 0], [0, 1]]}', "|000>"], "bad unitary JSON: "),
        (["transform", "--u1", "[[1, 0], [0, 1]", "|000>"], "bad unitary JSON: "),
        (["classify", "--json-state", str(path)], "bad state JSON: "),
    ]
    for argv, prefix in cases:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith(f"error: {prefix}"), err
        assert "offset" not in err, err


def test_no_expression_exit2(capsys):
    code, out, err = run(capsys, ["classify"])
    assert code == 2 and out == "" and err == "error: no expression given\n"
    assert "offset" not in err


def test_json_state_missing_file_exit2(tmp_path, capsys):
    code, out, err = run(capsys, ["classify", "--json-state", str(tmp_path / "absent.json")])
    assert code == 2 and out == "" and "cannot read state file" in err


def test_json_state_unreadable_file_exit2(tmp_path, capsys):
    code, out, err = run(capsys, ["classify", "--json-state", str(tmp_path)])
    assert code == 2 and out == "" and "cannot read state file" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, ["classify", "--json-state", str(binary)])
    assert code == 2 and out == "" and "cannot read state file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", GHZ, "--eps", "-1"],
        ["classify", GHZ, "--eps", "nan"],
        ["check-sep", GHZ, "--eps=-1e-9"],
        ["random", "--count", "-3"],
        ["measure", GHZ, "--qubit", "1", "--outcome", "0", "--eps", "inf"],
    ],
)
def test_negative_or_nonfinite_option_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be a finite number >= 0" in captured.err


@pytest.mark.parametrize("command", ["table", "random"])
def test_exact_only_commands_take_no_eps(command, capsys):
    """``table`` and ``random`` decide exact states, on which eps acts on nothing."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--eps", "1e-3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --eps 1e-3" in captured.err
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "--eps" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "amps, scale2",
    [
        ([[float("nan"), 0]] + [[0, 0]] * 6 + [[1, 0]], 1.0),
        ([[1, 0]] + [[0, 0]] * 6 + [[0, float("inf")]], 1.0),
        ([[1, 0]] + [[0, 0]] * 6 + [[1, 0]], float("nan")),
        ([[1, 0]] + [[0, 0]] * 6 + [[1, 0]], float("-inf")),
        # Non-finite values are reported before the scale2 that is not positive.
        ([["nan", 0]] + [[0, 0]] * 6 + [[1, 0]], 0),
    ],
)
def test_nonfinite_state_json_exit3(tmp_path, capsys, amps, scale2):
    path = tmp_path / "approx.json"
    path.write_text(json.dumps({"amps": amps, "scale2": scale2, "backend": "approx"}))
    code, out, err = run(capsys, ["classify", "--json-state", str(path), "--json"])
    assert code == 3 and out == "" and "finite" in err


@pytest.mark.parametrize("scale2", ["1e400", "1e-400"], ids=["above", "below"])
def test_float_of_exact_scale2_beyond_the_double_range_exit3(tmp_path, capsys, scale2):
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({"amps": [["1", "0"]] + [["0", "0"]] * 6 + [["1", "0"]],
                                "scale2": scale2}))
    code, out, err = run(capsys, ["classify", "--float", "--json-state", str(path)])
    assert code == 3 and out == "" and "double range" in err


def test_nonfinite_unitary_exit3(capsys):
    nan_rot = '{"matrix": [[NaN, 0], [0, 1]]}'
    code, out, err = run(capsys, ["transform", GHZ, "--float", "--u1", nan_rot, "--json"])
    assert code == 3 and out == "" and "finite" in err


def test_json_output_never_carries_nan(capsys):
    # Amplitudes near 1e200 overflow the double backend's |Det|^2 and norm,
    # so the normalized entries are NaN: strict JSON refuses to print them.
    huge = "1" + "0" * 200
    code, out, err = run(capsys, ["classify", f"{huge}|000> + |111>", "--float", "--json"])
    assert code == 3 and out == "" and "JSON" in err


def _big(digits):
    return "1" + "0" * digits


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        # An exact amplitude beyond the double range.
        ["classify", f"{_big(400)}|000> + |111>"],
        # Finite amplitudes whose norm2 overflows.
        ["classify", f"{_big(160)}|000> + |111>"],
        ["check-sep", f"{_big(160)}|000> + |111>"],
        ["measure", f"{_big(160)}|000> + |111>", "--qubit", "1", "--outcome", "0"],
        # A finite norm2 (2e154) whose degree-4 |Det|^2 overflows.
        ["classify", f"{_big(77)}|000> + {_big(77)}|111>"],
        ["check-sep", f"{_big(77)}|000> + {_big(77)}|111>"],
        ["factor", f"{_big(77)}|000> + {_big(77)}|111>"],
        # A finite post-measurement norm whose |det|^2 overflows.
        ["measure", f"{_big(80)}|000> + {_big(80)}|011>", "--qubit", "1", "--outcome", "0"],
        # Nonzero amplitudes whose normalizing denominator underflows to zero.
        ["classify", f"1/{_big(45)}|000> + 1/{_big(45)}|111>"],
        ["check-sep", f"1/{_big(45)}|000> + 1/{_big(45)}|111>"],
        ["factor", f"1/{_big(45)}|000> + 1/{_big(45)}|111>"],
        ["measure", f"1/{_big(200)}|000> + 1/{_big(200)}|111>", "--qubit", "1", "--outcome", "0"],
        # A scale2 that underflows to 0.0 as a double.
        ["classify", f"(|000> + |111>)/sqrt({_big(400)})"],
    ],
    ids=["classify-1e400", "classify-1e160", "check-sep-1e160", "measure-1e160",
         "classify-1e77", "check-sep-1e77", "factor-1e77", "measure-1e80",
         "classify-1e-45", "check-sep-1e-45", "factor-1e-45", "measure-1e-200",
         "classify-scale2-1e-400"],
)
def test_double_overflow_exit3(argv, json_mode, capsys):
    argv = argv + ["--float"] + (["--json"] if json_mode else [])
    code, out, err = run(capsys, argv)
    assert code == 3 and out == "" and "double range" in err


_HUGE_X0 = f"|001> + |010> + |100> + 1/{_big(200)}|111>"
_TINY_X0 = f"|000> + |111> + 1/{_big(200)}|011>"


@pytest.mark.parametrize(
    "argv, shown",
    [
        # The squared x0 entry over |Det|^2 overflows a double; its root does not.
        (["classify", _HUGE_X0], "[1; 7.5e+199, 0.75, 7.5e+199, 0.75, 7.5e+199, 0.75]"),
        # The squared x0 entry over |Det|^2 underflows to zero; its root does not.
        (["classify", _TINY_X0], "[1; 2e-200, 0, 0, 0, 0, 0]"),
    ],
    ids=["overflow", "underflow"],
)
def test_exact_display_takes_the_root_before_the_double(argv, shown, capsys):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and f"display            : {shown}\n" in out
    code, out, err = run(capsys, argv + ["--json"])
    display = json.loads(out)["display"]
    assert code == 0 and err == "" and _fmt_display(display) == shown


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "expr",
    [_HUGE_X0.replace(_big(200), _big(700)), _TINY_X0.replace(_big(200), _big(700))],
    ids=["root-overflows", "root-underflows"],
)
def test_exact_display_beyond_the_double_range_exit3(expr, json_mode, capsys):
    code, out, err = run(capsys, ["classify", expr] + (["--json"] if json_mode else []))
    assert code == 3 and out == "" and "double range" in err


@pytest.mark.parametrize(
    "u1",
    [
        '{"matrix": [[1,1],[-1,1]], "sqrt_scale2": "x"}',
        '{"matrix": "ab"}',
        '{"matrix": [[true, 0], [0, 1.0]]}',  # a double matrix: the 1.0 decides
    ],
    ids=["scale", "matrix", "bool"],
)
def test_malformed_unitary_number_exit2(u1, capsys):
    code, out, err = run(capsys, ["transform", "|000>", "--u1", u1])
    assert code == 2 and out == "" and "bad unitary JSON" in err


@pytest.mark.parametrize(
    "amp, backend",
    [("1/0", "exact"), (True, "approx"), (True, "exact")],
    ids=["zero-den", "bool-approx", "bool-exact"],
)
def test_state_json_bad_number_exit2(tmp_path, capsys, amp, backend):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amps": [[amp, 0]] + [[0, 0]] * 7, "backend": backend}))
    code, out, err = run(capsys, ["classify", "--json-state", str(path)])
    assert code == 2 and out == "" and "bad state JSON" in err


#: A 401-digit JSON integer, beyond the double range as 1e400 is.
_HUGE = 10**400
_ONE = [[1, 0]] + [[0, 0]] * 7


@pytest.mark.parametrize(
    "state, u1",
    [
        ({"amps": [[_HUGE, 0]] + [[0, 0]] * 7, "backend": "approx"}, None),
        ({"amps": _ONE, "scale2": _HUGE, "backend": "approx"}, None),
        (None, {"matrix": [[1.0, 0], [0, _HUGE]]}),
        (None, {"matrix": [[1.0, 0], [0, 1]], "sqrt_scale2": _HUGE}),
    ],
    ids=["state-part", "state-scale2", "u1-cell", "u1-root"],
)
def test_json_int_beyond_the_double_range_exit3(tmp_path, capsys, state, u1):
    # A double part read from a JSON integer exits 3 and names the double
    # range, as the same number written 1e400 does.
    if state is None:
        argv = ["transform", "--float", "|000>", "--u1", json.dumps(u1)]
    else:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        argv = ["classify", "--json-state", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error: the JSON integer 1000") and "is beyond the double range" in err


def test_check_sep_text_extracts_once(monkeypatch, capsys):
    import tritangle.separability as separability

    calls = []

    def counting(*args):
        calls.append(args)
        return extract_factors(*args)

    monkeypatch.setattr(separability, "extract_factors", counting)
    code, out, _ = run(capsys, ["check-sep", "3|000> + 3|001> - |010> - |011> + 6|100> + 6|101> - 2|110> - 2|111>"])
    assert code == 0 and len(calls) == 1
    assert "factors       : x=('3', '6') y=('1', '-1/3') z=('1', '1')" in out
    assert "oracle agrees : yes" in out


@pytest.mark.parametrize(
    "u1",
    [
        "[[1,0,0,1]]",
        "[[0],[1,1,0]]",
        '{"matrix": "0110"}',
        '[["1,0,5"],[0],[0],[1]]',
        '[["1,0,5", 0], [0, 1]]',
        "[[[1,0,7], 0], [0, 1]]",
        "[[1, 0], [0, 1], [0, 0]]",
    ],
    ids=["one-row", "ragged", "string-matrix", "comma-rows", "two-commas", "long-pair", "three-rows"],
)
def test_unitary_must_be_two_rows_of_two_cells_exit2(u1, capsys):
    code, out, err = run(capsys, ["transform", "|000>", "--u1", u1])
    assert code == 2 and out == "" and "bad unitary JSON" in err


def test_state_json_unknown_backend_exit2(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amps": [[1, 0]] + [[0, 0]] * 7, "backend": "Exact"}))
    code, out, err = run(capsys, ["classify", "--json-state", str(path)])
    assert code == 2 and out == "" and "unknown backend" in err


@pytest.mark.parametrize("root", ["0", '"0"', '"1/0"', "0.0", "-0.0"])
def test_zero_sqrt_scale2_names_the_field_exit2(root, capsys):
    u1 = '{"matrix": [[1,1],[-1,1]], "sqrt_scale2": %s}' % root
    code, out, err = run(capsys, ["transform", "|000>", "--u1", u1])
    assert code == 2 and out == ""
    assert "sqrt_scale2 must be nonzero" in err


@pytest.mark.parametrize("root", ["-2", '"-2"', '"-1/2"', "-2.0"])
def test_negative_sqrt_scale2_exit3(root, capsys):
    u1 = '{"matrix": [[1,1],[-1,1]], "sqrt_scale2": %s}' % root
    code, out, err = run(capsys, ["transform", "|000>", "--u1", u1])
    assert code == 3 and out == "" and "scale2 must be positive" in err


@pytest.mark.parametrize(
    "u1",
    [
        '{"matrix": [["1","0"],["0","1"]], "sqrt_scale2": 1e400}',
        '{"matrix": [["1","0"],["0","1"]], "sqrt_scale2": -1e400}',
        '{"matrix": [[1.0, 0], [0, 1]], "sqrt_scale2": "1e400"}',
        '{"matrix": [[1.0, 0], [0, 1]], "sqrt_scale2": NaN}',
    ],
    ids=["inf", "-inf", "double-text-inf", "nan"],
)
def test_nonfinite_double_sqrt_scale2_exit3(u1, capsys):
    # JSON reads 1e400 as inf, whose reciprocal 0.0 once read as "scale2 must be positive".
    code, out, err = run(capsys, ["transform", "--u1", u1, "|000>+|111>"])
    assert code == 3 and out == ""
    assert "sqrt_scale2 reads as the double" in err and "double range" in err


@pytest.mark.parametrize(
    "u1, literal",
    [
        ('{"matrix": [[1.0,0],[0,1]], "sqrt_scale2": 1e-400}', "1e-400"),
        ('{"matrix": [["1","0"],["0","1"]], "sqrt_scale2": -2.5E-999}', "-2.5E-999"),
        ('{"matrix": [[1e-400, 0], [0, 1.0]]}', "1e-400"),
        ('{"matrix": [[1.0, [0, 0.001e-322]], [0, 1]]}', "0.001e-322"),
    ],
    ids=["root", "negative-root", "entry", "imaginary-part"],
)
def test_double_below_the_range_in_unitary_json_exit3(u1, literal, capsys):
    # JSON reads each literal as 0.0: the root once read as "must be nonzero" (exit 2).
    code, out, err = run(capsys, ["transform", "--u1", u1, "|000>+|111>"])
    assert code == 3 and out == ""
    assert f"the JSON number {literal} is below the double range" in err


@pytest.mark.parametrize(
    "last, scale2", [("[1, 0]", "1e-400"), ("[1, -3e-500]", "0.5")], ids=["scale2", "part"]
)
def test_double_below_the_range_in_state_json_exit3(tmp_path, capsys, last, scale2):
    # The scale2 once read as "scale2 must be positive" (exit 2), the part as a zero.
    path = tmp_path / "approx.json"
    amps = ", ".join(["[1, 0]"] + ["[0, 0]"] * 6 + [last])
    path.write_text('{"amps": [%s], "scale2": %s, "backend": "approx"}' % (amps, scale2))
    for json_mode in ([], ["--json"]):
        code, out, err = run(capsys, ["classify", "--json-state", str(path)] + json_mode)
        assert code == 3 and out == "" and "is below the double range" in err


def test_exact_state_json_reads_a_float_literal_as_before(tmp_path, capsys):
    # An exact file reads str() of each JSON double: 1e-400 is 0.
    path = tmp_path / "exact.json"
    amps = '[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1e-400, 0]]'
    path.write_text('{"amps": %s, "scale2": 0.5}' % amps)
    code, out, err = run(capsys, ["classify", "--json-state", str(path), "--json"])
    assert code == 0 and json.loads(out)["det_abs2"] == "0"
    path.write_text('{"amps": %s, "scale2": 1e-400}' % amps)
    code, out, err = run(capsys, ["classify", "--json-state", str(path)])
    assert code == 2 and "scale2 must be positive" in err


def test_literal_past_the_int_digit_limit_exit2(capsys):
    code, out, err = run(capsys, ["classify", "1" * 5000 + "|000>"])
    assert code == 2 and out == "" and "offset 0" in err


#: Parses within the int-to-str limit; its exact |Det|^2 has about 9600 digits.
LONG_EXACT = f"1/{10**600}|000> + 1/{10**600 + 1}|111>"


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_command_prints_exact_values_past_the_int_digit_limit(json_mode):
    """The command lifts the int-to-str limit for its own process; main does not."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "tritangle", "classify", LONG_EXACT] + (
        ["--json"] if json_mode else []
    )
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if json_mode:
        record = json.loads(proc.stdout)
        assert len(record["det_abs2"]) > 4300  # the default limit
        assert record["display"][0] == 1.0 and not record["separable"]
    else:
        assert "separable          : no" in proc.stdout


@pytest.mark.parametrize("text", ["1e-400", " -2.5E-999 ", "+0.001e-322"])
def test_double_string_below_the_range_exit3(tmp_path, capsys, text):
    # Each string once read as 0.0 without a word: the file classified, the matrix applied.
    obj = {"amps": [[1, 0]] + [[0, 0]] * 6 + [[text, 0]], "scale2": 0.5, "backend": "approx"}
    with pytest.raises(NonFinite, match=re.escape(f"the JSON string {text!r} is below the double")):
        state_from_json(obj)
    path = tmp_path / "approx.json"
    path.write_text(json.dumps(obj))
    u1 = json.dumps({"matrix": [[1.0, [text, 0]], [0, 1.0]]})
    for argv in (["classify", "--json-state", str(path)], ["transform", "--float", "--u1", u1, GHZ]):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == "" and "below the double range" in err


@pytest.mark.parametrize("text", ["1e4301", "-2.5E-4301", " 1_0e+43_01 ", "1e10000000"])
def test_exact_string_with_an_exponent_past_the_cap_exit2(tmp_path, capsys, text):
    # Fraction builds 10**exponent: "1e10000000" alone once took seconds, and classify did not finish.
    obj = {"amps": [[1, 0]] + [[0, 0]] * 6 + [[text, 0]], "scale2": "1/2"}
    with pytest.raises(ValueError, match="has an exponent beyond 4300 in magnitude"):
        state_from_json(obj)
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(obj))
    u1 = json.dumps({"matrix": [["1", f"{text},0"], ["0", "1"]]})
    for argv in (["classify", "--json-state", str(path)], ["transform", "--u1", u1, GHZ]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "has an exponent beyond 4300 in magnitude" in err


@pytest.mark.parametrize("text", ["1e4300", "-1E-4300", "1e+04_300"])
def test_exact_string_with_an_exponent_at_the_cap_reads(capsys, text):
    value = Fraction(text)
    state = state_from_json({"amps": [[1, 0]] + [[0, 0]] * 6 + [[text, 0]]})
    assert state.amps[7] == value
    # A matrix that is not unitary is refused after it was read.
    u1 = json.dumps({"matrix": [["1", f"{text},0"], ["0", "1"]]})
    with pytest.raises(ValueError, match="not unitary"):
        cli._unitary_from_json(u1)
    code, out, err = run(capsys, ["transform", "--u1", u1, GHZ])
    assert code == 3 and out == "" and "not unitary" in err


@pytest.mark.parametrize("text", ["0", " 0.0 ", "+0", "-0", "0e999", "-0.0e-5"])
def test_double_string_zero_reads_as_zero(tmp_path, capsys, text):
    obj = {"amps": [[1, 0]] + [[0, 0]] * 6 + [[text, 0]], "scale2": 1.0, "backend": "approx"}
    assert state_from_json(obj).amps[7] == 0
    path = tmp_path / "approx.json"
    path.write_text(json.dumps(obj))
    u1 = json.dumps({"matrix": [[1.0, [text, 0]], [0, 1.0]]})
    for argv in (["classify", "--json-state", str(path)], ["transform", "--float", "--u1", u1, GHZ]):
        assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "argv, key, shown",
    [
        (
            ["measure", "--float", "--qubit", "1", "--outcome", "0", GHZ],
            "post_state",
            "post state  : amps [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], scale2 0.5\n",
        ),
        (
            ["transform", "--float", "--u1", '{"matrix": [[1.0, 0], [0, 1.0]]}', GHZ],
            "state",
            f"amps [[1.0, 0.0], {'[0.0, 0.0], ' * 6}[1.0, 0.0]], scale2 0.5\n",
        ),
    ],
    ids=["measure", "transform"],
)
def test_float_text_shows_the_amplitudes_and_scale2_of_the_json_record(argv, key, shown, capsys):
    code, out, _ = run(capsys, argv)
    assert code == 0 and shown in out.splitlines(keepends=True)
    code, out, _ = run(capsys, argv + ["--json"])
    record = json.loads(out)[key]
    assert shown.endswith(f"amps {json.dumps(record['amps'])}, scale2 {record['scale2']!r}\n")


@pytest.mark.parametrize(
    "cell, where",
    [("1e-400", "below"), ("1e400", "beyond"), ("0, -1e-400", "below")],
    ids=["below", "beyond", "imaginary-part"],
)
def test_double_text_cell_beyond_the_range_exit3(capsys, cell, where):
    # A text cell of a double matrix was divided without a check: 1e-400
    # read as 0.0 and the X gate applied (exit 0), 1e400 overflowed the int
    # division (exit 2).
    u1 = json.dumps({"matrix": [[cell, 1.0], [1.0, 0]]})
    code, out, err = run(capsys, ["transform", "--float", "--u1", u1, "|000>"])
    assert code == 3 and out == ""
    assert f"the text cell part {cell.split(',')[-1].strip()!r} is {where} the double range" in err


def test_double_text_cell_reads_its_rational(capsys):
    text_cells = json.dumps({"matrix": [["1/2, 1/2", "1/2,-1/2"], ["1/2, -1/2", [0.5, 0.5]]]})
    list_cells = json.dumps({"matrix": [[[0.5, 0.5], [0.5, -0.5]], [[0.5, -0.5], [0.5, 0.5]]]})
    outs = [run(capsys, ["transform", "--float", "--u1", u1, GHZ]) for u1 in (text_cells, list_cells)]
    assert outs[0] == outs[1] and outs[0][0] == 0


PRODUCT_KETS = {
    "anchor-000": (
        "2|000> + 2/3|001> - |010> - 1/3|011> + 2i|100> + 2/3i|101> - i|110> - 1/3i|111>",
        '{"separable": true, "factors": {"fx": [["2", "0"], ["0", "2"]], '
        '"fy": [["1", "0"], ["-1/2", "0"]], "fz": [["1", "0"], ["1/3", "0"]]}, "oracle_agrees": true}',
    ),
    "anchor-100": (
        "|100> - |101> + i|110> - i|111>",
        '{"separable": true, "factors": {"fx": [["0", "0"], ["1", "0"]], '
        '"fy": [["1", "0"], ["0", "1"]], "fz": [["1", "0"], ["-1", "0"]]}, "oracle_agrees": true}',
    ),
}


@pytest.mark.parametrize("ket, check_sep", PRODUCT_KETS.values(), ids=PRODUCT_KETS.keys())
def test_product_state_json_records_are_unchanged(capsys, ket, check_sep):
    # Seven exact zeros print as "0", and the factors as their reduced ratios.
    classify_record = (
        '{"det_abs2": "0", "sub2": ["0", "0", "0", "0", "0", "0"], '
        '"display": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "separable": true}'
    )
    for argv, expected in (("classify", classify_record), ("check-sep", check_sep)):
        assert run(capsys, [argv, "--json", ket]) == (0, expected + "\n", "")


@pytest.mark.parametrize("amps", [["10", "01", "00", "00", "00", "00", "00", "01"]], ids=["strings"])
def test_state_json_string_amplitude_exit2(tmp_path, capsys, amps):
    # Each two-character string once unpacked as [re, im]: the list read as
    # |000> + i|001> + i|111> and classified with exit 0.
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amps": amps}))
    for backend in ([], ["--float"]):
        code, out, err = run(capsys, ["classify", "--json-state", str(path)] + backend)
        assert (code, out) == (2, "")
        assert err == "error: bad state JSON: amplitude 0 is not one [re, im] pair: '10'\n"
    # Pairs passed from Python may be tuples.
    tuples = {"amps": [(1, 0)] + [(0, 0)] * 6 + [("1", "0")]}
    assert state_from_json(tuples) == parse_state("|000> + |111>")


_DICT_AMPS = json.dumps({"amps": dict.fromkeys(["10", "01", "00", "11", "ab", "cd", "ef", "gh"], 0)})


@pytest.mark.parametrize(
    "text",
    ['"abc"', "5", "[1, 2]", '{"amps": 5}', "{}", '{"amps": null}', pytest.param(_DICT_AMPS, id="dict")],
)
def test_state_json_of_another_shape_exit2(tmp_path, capsys, text):
    # Each once leaked a Python message: "string indices must be integers",
    # "'int' object is not subscriptable", "object of type 'int' has no len()";
    # a mapping's keys were read as its amplitudes.
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", "--json-state", str(path)])
    assert (code, out) == (2, "")
    assert err == 'error: bad state JSON: expected an object whose "amps" is a list of 4 or 8 [re, im] pairs\n'


def test_state_from_json_rejects_a_mapping_of_amplitudes():
    # From Python the keys may be pairs, which once read as |00> + i|01> + 2|10> + 2i|11>.
    with pytest.raises(ValueError, match='"amps" is a list of 4 or 8'):
        state_from_json({"amps": {(1, 0): 0, (0, 1): 0, (2, 0): 0, (0, 2): 0}})


def test_impossible_double_outcome_names_its_probability_and_eps(capsys):
    code, out, err = run(capsys, ["measure", "--float", "--qubit", "1", "--outcome", "1", "|000> + 1/100000|111>"])
    assert (code, out) == (3, "")
    shown = re.fullmatch(r"error: outcome 1 on qubit 1 has probability (\S+), at most eps = 1e-10\n", err)
    assert shown and 0 < float(shown[1]) <= 1e-10 and float(shown[1]) == pytest.approx(1e-10)
    for argv in (["measure", "--float"], ["measure"]):  # a probability that is 0 says so
        code, _, err = run(capsys, argv + ["--qubit", "1", "--outcome", "1", "|000>"])
        assert (code, err) == (3, "error: outcome 1 on qubit 1 has probability 0\n")


PRODUCT = "3|000> + 3|001> - |010> - |011> + 6|100> + 6|101> - 2|110> - 2|111>"

#: The complete text output of every command; those that read a state read PRODUCT.
TEXT_OUTPUTS = {
    "classify": (
        ["classify", PRODUCT],
        "|Det|^2            : 0\n"
        "sub-concurrences^2 : ['0', '0', '0', '0', '0', '0']  (order x0 x1 y0 y1 z0 z1)\n"
        "display            : [0; 0, 0, 0, 0, 0, 0]\n"
        "separable          : yes\n",
    ),
    "table": (
        ["table"],
        "separable  computed [0; 0, 0, 0, 0, 0, 0]    quoted [0; 0, 0, 0, 0, 0, 0]    matches\n"
        "W          computed [0; 1, 0, 1, 0, 1, 0]    quoted [0; 1, 1, 1, 0, 0, 0]    matches up to entry order\n"
        "GHZ        computed [1; 0, 0, 0, 0, 0, 0]    quoted [1; 0, 0, 0, 0, 0, 0]    matches\n"
        "cluster    computed [1; 1, 1, 0, 0, 1, 1]    quoted [1; 1, 0, 1, 1, 0, 1]    DISAGREES\n"
        "psi        computed [1; 1, 1, 1, 1, 1, 1]    quoted [1; 1, 1, 1, 1, 1, 1]    matches\n"
        "phi        computed [1; 1, 1, 1, 1, 1, 1]    quoted [1; 1, 1, 1, 1, 1, 1]    matches\n",
    ),
    "measure": (
        ["measure", "--qubit", "2", "--outcome", "1", PRODUCT],
        "prob        : 0.1  (exact 1/10)\npost state  : -|00> - |01> - 2|10> - 2|11>\nconcurrence : 0\n",
    ),
    "transform": (
        ["transform", "--u1", ROT, PRODUCT],
        "(-3|000> - 3|001> + |010> + |011> + 9|100> + 9|101> - 3|110> - 3|111>)/sqrt(2)\n",
    ),
    "check-sep": (
        ["check-sep", PRODUCT],
        "separable     : yes\nfactors       : x=('3', '6') y=('1', '-1/3') z=('1', '1')\noracle agrees : yes\n",
    ),
    "factor": (["factor", PRODUCT], "x : (3, 6)\ny : (1, -1/3)\nz : (1, 1)\n"),
    "random": (
        ["random", "--count", "5", "--seed", "1"],
        "5 states (kind=mixed, seed=1): 3 separable, 0 oracle mismatches\n",
    ),
}


@pytest.mark.parametrize("argv, text", TEXT_OUTPUTS.values(), ids=TEXT_OUTPUTS.keys())
def test_text_output_of_every_command(argv, text, capsys):
    assert run(capsys, argv) == (0, text, "")


@pytest.mark.parametrize("argv, text", TEXT_OUTPUTS.values(), ids=TEXT_OUTPUTS.keys())
def test_json_mode_prints_the_record_alone(argv, text, capsys):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0 and err == "" and out.count("\n") == 1 and out.endswith("\n")
    json.loads(out)  # one strict JSON document and nothing else
    assert not set(out.splitlines()) & set(text.splitlines())


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_random_exits_1_when_the_oracle_disagrees(monkeypatch, json_mode, capsys):
    import tritangle.separability as separability

    is_separable = separability.is_separable
    monkeypatch.setattr(separability, "rank1_oracle", lambda state: not is_separable(state))
    code, out, err = run(capsys, ["random", "--count", "5", "--seed", "1"] + (["--json"] if json_mode else []))
    assert code == 1 and err == ""
    if json_mode:
        record = json.loads(out)
        assert record["mismatches"] == 5 and not any(r["oracle_agrees"] for r in record["states"])
    else:
        assert out == "5 states (kind=mixed, seed=1): 3 separable, 5 oracle mismatches\n"


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_nonfinite_error_notes_that_nothing_is_printed(json_mode, capsys):
    argv = ["classify", "--float", f"{_big(400)}|000> + |111>"] + (["--json"] if json_mode else [])
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "error: an exact value is beyond the double range; no text or JSON result is printed\n"
    # Other errors carry no such note.
    code, out, err = run(capsys, ["measure", "|000>", "--qubit", "1", "--outcome", "1"])
    assert (code, out) == (3, "") and err == "error: outcome 1 on qubit 1 has probability 0\n"


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.KetSyntaxError("bad", 0), 2),
        (errors.MixedArity("mixed", 0), 2),
        (cli._BadInput("bad JSON"), 2),
        (errors.EmptyState("zero"), 2),
        (errors.UnsupportedIrrational("root"), 2),
        (errors.InputFileError("file"), 2),
        (errors.BackendMismatch("mixed backends"), 4),
        (NonFinite("nan"), 3),
        (errors.ImpossibleOutcome("p = 0"), 3),
        (errors.NotSeparable("entangled"), 3),
        (errors.ResidualNonzero("residual"), 3),
        (errors.ZeroScale("zero"), 3),
        (ValueError("3 qubits"), 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_exit_code_of_every_error(exc, code):
    assert cli._exit_code(exc) == code


def test_closed_stdout_exits_141_without_a_traceback():
    """``tritangle random --json | head -c 1``: the reader goes after one byte."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "tritangle", "random", "--count", "2000", "--json"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b""
