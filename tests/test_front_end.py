"""The front end: the Records splice of render_json, the family table behind
the CLI and build_model, the flags each subcommand takes, and unwritable
outputs."""

import json
import os

import numpy as np
import pytest

from h2h2 import cli
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import report as rp


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def as_lists(payload):
    """The payload with every Records replaced by its list of records."""
    if isinstance(payload, rp.Records):
        return [as_lists(r) for r in payload]
    if isinstance(payload, dict):
        return {k: as_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [as_lists(v) for v in payload]
    return payload


FLAT = {"l": [0.5, -1e-300, float("nan")], "focal": [True, False, None], "n%": [1, 2, 10 ** 20]}


class TestRecordsWriter:
    @pytest.mark.parametrize("payload", [
        {"a": {"b": rp.Records(FLAT)}},
        {"a": [{"b": rp.Records(FLAT), "c": 1.0}, rp.Records(FLAT)]},
        [[rp.Records(FLAT)]],
        {"rows": rp.Records(FLAT), "more": rp.Records({"x": [2.5]}), "z": "\n"},
    ], ids=["two-levels", "in-a-list", "list-of-lists", "two-records"])
    def test_records_at_depth_take_the_indent_of_their_line(self, payload):
        assert rp.render_json(payload) == reference(as_lists(payload))

    @pytest.mark.parametrize("columns", [{}, {"x": []}, {"x": [], "y": []}])
    def test_empty_records(self, columns):
        assert rp.render_json({"rows": rp.Records(columns)}) == reference({"rows": []})
        assert rp.render_json(rp.Records(columns)) == "[]\n"

    @pytest.mark.parametrize("columns", [
        {"name": ["a", "b, c"], "x": [1.0, 2.0]},          # a string cell
        {"x": [[1.0, 2.0], {"y": None}], "z": [0, 1]},     # nested cells
        {"x": [np.float64(1.5), 2.0]},                     # a float subclass
        {1: [1.0], 2: [None]},                             # keys that are not strings
    ], ids=["string", "nested", "float-subclass", "int-key"])
    def test_records_that_are_not_flat_take_jsons_layout(self, columns):
        payload = {"rows": rp.Records(columns)}
        assert rp.render_json(payload) == reference(as_lists(payload))

    def test_stand_in_text_is_what_json_writes(self):
        assert json.dumps(rp._STAND_IN) == rp._STAND_IN_TEXT

    @pytest.mark.parametrize("payload", [
        {"rows": rp.Records(FLAT), "name": rp._STAND_IN},
        {"rows": rp.Records(FLAT), rp._STAND_IN: 1.0},
        {"name": rp._STAND_IN},
        [rp.Records(FLAT), 'x"' + rp._STAND_IN],
    ], ids=["value", "key", "no-records", "suffix"])
    def test_a_payload_string_written_as_the_stand_in_is_refused(self, payload):
        with pytest.raises(ValueError, match="stand-in"):
            rp.render_json(payload)


def given(kind, cmd):
    """argv of a valid call of ``cmd`` on ``kind``: each required parameter
    at a valid value."""
    values = {"c": "0.5", "tau": "-2", "kappa_gamma": "0.5"}
    argv = [cmd, "--model", kind]
    for name, default in mz.FAMILIES[kind][1].items():
        if default is None:
            argv += [mz.flag(name), values[name]]
    return argv


def foreign_cases():
    params = {name: d for _, ps in mz.FAMILIES.values() for name, d in ps.items()}
    for kind, (_, own) in mz.FAMILIES.items():
        for name, default in params.items():
            if name not in own:
                yield kind, name, "0.25" if default is None else "one"


MODEL_COMMANDS = ["verify", "parallel", "poincare-dump"]


class TestFamilyTable:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_every_parameter_has_its_flag(self, command):
        parser = cli.build_parser()
        assert mz.flag("kappa_gamma") == "--kappa-gamma"
        for kind, (_, params) in mz.FAMILIES.items():
            for name in params:
                args = parser.parse_args([command, "--model", kind, mz.flag(name), "0.5",
                                          "--out", "x"])
                assert getattr(args, name) in (0.5, "0.5")

    @pytest.mark.parametrize("spec", mz.CATALOG + (
        mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"}),
        mz.ModelSpec("M_kk", {"c": 0.25, "kappa": "one", "kappa_tilde": "minus-one"}),
    ), ids=str)
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_argv_round_trips_to_the_spec(self, spec, command):
        argv = [command, "--model", spec.kind, "--out", "x"]
        for name, value in spec.params.items():
            argv.append(f"{mz.flag(name)}={value}")
        assert cli._model_from_args(cli.build_parser().parse_args(argv)) == spec

    def test_curvature_defaults_fill_in(self):
        args = cli.build_parser().parse_args(["verify", "--model", "M_kk", "--c", "0.5"])
        assert cli._model_from_args(args) == mz.ModelSpec(
            "M_kk", {"c": 0.5, "kappa": "one", "kappa_tilde": "minus-one"})

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("kind", list(mz.FAMILIES))
    def test_a_missing_required_flag_is_named(self, kind, command, tmp_path, capsys):
        for name, default in mz.FAMILIES[kind][1].items():
            if default is None:
                argv = given(kind, command)
                i = argv.index(mz.flag(name))
                del argv[i:i + 2]
                assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
                assert capsys.readouterr().err == f"error: {kind} requires {mz.flag(name)}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("kind, name, value", list(foreign_cases()))
    def test_a_flag_of_another_family_is_refused(self, kind, name, value, command,
                                                 tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main([*given(kind, command), mz.flag(name), value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {kind} does not take {mz.flag(name)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--kappa", "--kappa-tilde"])
    @pytest.mark.parametrize("value", ["const:abc", "bogus", "const:"])
    def test_an_unknown_curvature_function_names_its_flag(self, flag, value, capsys):
        assert cli.main(["verify", "--model", "M_kk", "--c", "0.5", flag, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag}: unknown curvature function {value!r}: expected a "
                       "number, const:<x> or one of one, minus-one, zero, tanh"]

    def test_parse_kappa_refuses_a_const_that_is_not_a_number(self):
        with pytest.raises(ValueError, match="unknown curvature function 'const:abc'"):
            mz.parse_kappa("const:abc")

    def test_the_horocycle_pair_is_the_table_entry(self):
        for kind, (pair, _) in mz.HOROCYCLES.items():
            assert mz.curvature_pair(mz.ModelSpec(kind, {"c": 0.5})) == pair
            surface, oracle = mz.build_model(mz.ModelSpec(kind, {"c": 0.5}))
            assert surface.name == f"{kind}(c=0.5)" and oracle.constant_curvatures


class TestSubcommandFlags:
    @pytest.mark.parametrize("command, argv", [
        ("poincare-dump", ["--samples", "-5"]),
        ("poincare-dump", ["--seed", "1"]),
        ("poincare-dump", ["--tol", "bogus=1"]),
        ("poincare-dump", ["--l-grid=0:1:0.1"]),
        ("poincare-dump", ["--format", "csv"]),
        ("parallel", ["--tol", "oracle_C=1"]),
    ])
    def test_an_unread_flag_is_a_usage_error(self, command, argv, tmp_path):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model", "M_Gamma", "--kappa-gamma", "1", *argv,
                      "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_parallel_config_echoes_the_default_tolerances(self, capsys):
        assert cli.main(["parallel", "--model", "M_Gamma", "--kappa-gamma", "2",
                         "--samples", "2", "--l-grid=0:0.2:0.1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["tolerances"] == rp.DEFAULT_TOLERANCES


def unwritable(tmp_path, case) -> str:
    if case == "missing-directory":
        return str(tmp_path / "missing" / "r.out")
    (tmp_path / "a-directory").mkdir()
    return str(tmp_path / "a-directory")


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["verify", "--model", "M_1m1", "--c", "0.5", "--samples", "8"],
    ["parallel", "--model", "M_tau", "--tau", "-2", "--samples", "8"],
    ["table", "detq-derivatives"],
    ["poincare-dump", "--model", "M_Gamma", "--kappa-gamma", "1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_a_usage_error(argv, case, tmp_path, capsys):
    path = unwritable(tmp_path, case)
    before = sorted(os.walk(tmp_path))
    assert cli.main([*argv, "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: "), err
    assert sorted(os.walk(tmp_path)) == before           # no temporary file left


def test_array_distance_chart_is_named_without_its_distances(m_tau_m2):
    surface, _ = m_tau_m2
    ls = np.linspace(-0.5, 0.5, 400)
    merged = pf.parallel_surface(surface, ls)
    assert merged.name == f"{surface.name}|parallel(l per row)"
    assert merged.row_surface(7).name == f"{surface.name}|parallel(l={float(ls[7])})"
    assert pf.parallel_surface(surface, 0.25).name == f"{surface.name}|parallel(l=0.25)"
