import argparse
import json
import os
import subprocess
import sys
import warnings

import pytest

import oracles
from quiverdt import catalog, framing, linalg, monad
from quiverdt.cli import build_parser, run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run_capture(capsys, ["catalog", "list"])
    assert code == 0
    assert "conifold" in out and "adhm3d" in out


def test_catalog_show_json_roundtrip(capsys):
    code, out, _ = run_capture(capsys, ["catalog", "show", "conifold", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["quiver"]["vertices"] == ["0", "1"]
    assert all(len(t["word"]) == 4 for t in data["potential"]["terms"])


def test_catalog_show_unknown_exits_2(capsys):
    for geometry in ("y77", "y020", "y030", "y0030"):
        code, _, err = run_capture(capsys, ["catalog", "show", geometry])
        assert code == 2 and "catalog" in err, geometry
        code, out, err = run_capture(capsys, ["quiver", geometry])
        assert (code, out) == (2, "") and "catalog" in err, geometry


def test_catalog_show_without_id_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["catalog", "show"])
    assert code == 2 and "usage" in err


def test_quiver_dot_marks_fixed_arrows(capsys):
    code, out, _ = run_capture(capsys, ["quiver", "adhm3d", "--framed", "--dot"])
    assert code == 0
    assert "dashed" in out and '"inf" -> "0"' in out


@pytest.mark.parametrize("geometry", ["c3", "y10", "conifold", "nonsense"])
def test_framed_quiver_of_a_geometry_is_not_in_catalog(capsys, geometry):
    code, out, err = run_capture(capsys, ["quiver", geometry, "--framed"])
    assert (code, out, err) == (2, "", f"not in catalog: {geometry!r}\n")


def test_quiver_json_deterministic(capsys):
    code1, out1, _ = run_capture(capsys, ["quiver", "c3"])
    code2, out2, _ = run_capture(capsys, ["quiver", "c3"])
    assert code1 == code2 == 0 and out1 == out2


def test_relations_text(capsys):
    code, out, _ = run_capture(capsys, ["relations", "adhm3d"])
    assert code == 0
    assert "d/dB3" in out and "J*I" in out


def test_relations_json_for_plain_geometry(capsys):
    code, out, _ = run_capture(capsys, ["relations", "c3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert len(data) == 3 and all(len(t["word"]) == 2 for r in data for t in r["terms"])


def test_relations_with_framing_file(tmp_path, capsys):
    spec = {"ranks": {"inf": 1}, "arrows": {"Af": [[0]]}}
    path = tmp_path / "framing.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_capture(capsys, ["relations", "adhm3d", "--framing", str(path)])
    assert code == 0 and "d/dI" in out


@pytest.mark.parametrize("example", catalog.framed_example_ids())
def test_relations_without_framing_file_reads_as_empty_file(tmp_path, capsys, example):
    path = tmp_path / "framing.json"
    path.write_text("{}")
    plain = run_capture(capsys, ["relations", example, "--json"])
    assert plain[0] == 0
    assert run_capture(capsys, ["relations", example, "--framing", str(path), "--json"]) == plain


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20", "y30"])
def test_relations_framing_on_unframed_geometry_is_usage_error(tmp_path, capsys, geometry):
    path = tmp_path / "framing.json"
    path.write_text(json.dumps({"ranks": {"inf": 1}, "arrows": {}}))
    for framing_file in (str(path), str(tmp_path / "missing.json")):
        code, out, err = run_capture(capsys, ["relations", geometry, "--framing", framing_file])
        assert code == 2 and "usage" in err and "--framing" in err and out == ""


@pytest.mark.parametrize(
    "spec, named",
    [
        ([{"ranks": {"inf": 1}}], "JSON object"),
        ({"rank": {"inf": 2}}, "'rank'"),
        ({"arrows": {"Zz": [[1]]}}, "'Zz'"),
        ({"arrows": {"I": [[1]]}}, "'I'"),
        ({"ranks": {"0": 2}}, "'0'"),
        ({"ranks": {"inf": "two"}}, "'inf'"),
        ({"ranks": {"inf": 1.5}}, "'inf'"),
        ({"arrows": []}, "'arrows'"),
        ({"arrows": {"Af": 3}}, "'Af'"),
        ({"arrows": {"Af": [["x"]]}}, "'Af'"),
        ({"ranks": {"inf": 2}, "arrows": {"Af": [[0, 0], [0]]}}, "marked arrow Af"),
        ({"ranks": {"inf": 2}, "arrows": {"Af": [[0, 1], [0]]}}, "marked arrow Af"),
    ],
)
def test_malformed_framing_file_is_usage_error(tmp_path, capsys, spec, named):
    path = tmp_path / "framing.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_capture(capsys, ["relations", "adhm3d", "--framing", str(path)])
    assert code == 2 and out == "" and named in err


def test_monad_verify(capsys):
    code, out, _ = run_capture(capsys, ["monad", "verify", "ny3d"])
    assert code == 0 and "certified" in out


@pytest.mark.parametrize(
    "alias, template",
    [("y10", "c3"), ("Y10", "c3"), ("pervsystem-y10", "pervsystem-c3"),
     ("pervsystem-y11", "pervsystem-conifold")],
)
def test_monad_verify_resolves_geometry_aliases(capsys, alias, template):
    for flags in ([], ["--json"]):
        outputs = [run_capture(capsys, ["monad", "verify", t, *flags]) for t in (alias, template)]
        if flags:
            for i, (code, out, err) in enumerate(outputs):
                data = json.loads(out)
                del data["phases"]
                outputs[i] = (code, data, err)
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_monad_verify_of_an_alias_without_a_template_is_not_in_catalog(capsys):
    code, out, err = run_capture(capsys, ["monad", "verify", "y11"])
    assert (code, out, err) == (2, "", "not in catalog: 'y11'\n")


@pytest.mark.parametrize(
    "argv",
    [["relations", "pervsystem-nonsense"], ["quiver", "pervsystem-nonsense", "--framed"],
     ["monad", "verify", "pervsystem-nonsense"]],
)
def test_unknown_geometry_after_pervsystem_is_named_as_typed(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (2, "", "not in catalog: 'pervsystem-nonsense'\n")


# template: (components, (systems, rows, nonzeros, pivots)); the sizes pin
# the rows each endpoint system takes in: those of the components of
# products that hold a word of a certified component
MONAD_MEMBERSHIP_SIZES = {
    # one vertex, so one endpoint system: the 6 components are reduced by
    # 3 products u*r*v, two terms each
    "c3": (6, (1, 3, 6, 3)),
    "y20": (12, (4, 6, 12, 6)),
    "pervsystem-c3": (6, (1, 3, 6, 3)),
    "pervsystem-conifold": (8, (2, 4, 8, 4)),
    "adhm3d": (8, (3, 5, 9, 5)),
    "kn": (14, (6, 8, 15, 8)),
    "ny3d": (10, (4, 6, 11, 6)),
}
# the same sizes when every product of each endpoint pair is eliminated
# (oracles.EagerMembershipSystem): c3 has 3 commutators times 4 words on
# each side at bound 1, two terms each, and one dependency in degree 3
EAGER_MEMBERSHIP_SIZES = {
    "c3": (1, 48, 96, 47),
    "y20": (4, 96, 192, 94),
    "pervsystem-c3": (1, 48, 96, 47),
    "pervsystem-conifold": (2, 20, 40, 20),
    "adhm3d": (3, 90, 186, 89),
    "kn": (6, 122, 250, 120),
    "ny3d": (4, 30, 59, 30),
}


def test_monad_verify_json_reports_membership_sizes_and_phases(capsys):
    for template, (components, sizes) in MONAD_MEMBERSHIP_SIZES.items():
        code, out, _ = run_capture(capsys, ["monad", "verify", template, "--json"])
        assert code == 0
        data = json.loads(out)
        assert (data["certified"], data["components"], data["failures"]) == (True, components, [])
        m = data["membership"]
        assert (template, m["systems"], m["rows"], m["nonzeros"], m["pivots"]) == (template, *sizes)
        assert sorted(data["phases"]) == ["compose", "membership"]
        assert all(isinstance(s, float) and s >= 0 for s in data["phases"].values())


def test_membership_sizes_count_the_components_the_queries_reach(monkeypatch, capsys):
    """Under the eager oracle every template keeps its full-system sizes;
    a search of the oracle's product lists from the words of the certified
    components finds the rows, terms and rank that the package reports."""
    for template, (components, sizes) in MONAD_MEMBERSHIP_SIZES.items():
        systems = []

        class Recording(oracles.EagerMembershipSystem):
            def __init__(self, *args):
                super().__init__(*args)
                self.asked = {}
                systems.append(self)

            def decide(self, p):
                q = self.quiver
                for w in p.terms:
                    self.asked.setdefault((w.source(q), w.target(q)), set()).add(w.sort_key(q))
                return super().decide(p)

        monkeypatch.setattr(monad, "MembershipSystem", Recording)
        code, out, _ = run_capture(capsys, ["monad", "verify", template, "--json"])
        data = json.loads(out)
        assert (code, data["certified"], data["components"]) == (0, True, components)
        m = data["membership"]
        assert (template, m["systems"], m["rows"], m["nonzeros"], m["pivots"]) == (
            template, *EAGER_MEMBERSHIP_SIZES[template]
        )
        [eager] = systems
        rows = pivots = nonzeros = 0
        for ends, products in eager.products.items():
            reached = [row for _, row in oracles.reached_rows(products, eager.asked[ends])]
            keys = sorted({k for row in reached for k in row})
            rows += len(reached)
            nonzeros += sum(map(len, reached))
            pivots += oracles.rank_dense([[row.get(k, 0) for k in keys] for row in reached])
        assert (template, len(eager.products), rows, nonzeros, pivots) == (template, *sizes)


def test_monad_verify_numeric(tmp_path, capsys):
    points = {"points": [["0", "0"], ["1", "0"]]}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    code, out, _ = run_capture(
        capsys, ["monad", "verify", "c3", "--numeric", str(path), "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["certified"] is True
    assert all(t["sheaf"] == [0, 0, 0, 1] for t in data["numeric"]["cohomology"])


def test_monad_verify_numeric_without_points_key(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"pts": [["0", "0"]]}))
    code, _, err = run_capture(capsys, ["monad", "verify", "c3", "--numeric", str(path)])
    assert code == 2 and "'points'" in err and "catalog" not in err


@pytest.mark.parametrize(
    "points, named",
    [
        (3, "'points'"),
        ([["1"]], "points[0]"),
        ([["0", "0"], ["1", "2", "3"]], "points[1]"),
        ([["0", "0", "0"]], "points[0]"),
        ([["1", "a"]], "points[0]"),
        ([{"x": 1, "y": 2}], "points[0]"),
    ],
)
def test_monad_verify_numeric_rejects_malformed_points(tmp_path, capsys, points, named):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}))
    code, out, err = run_capture(capsys, ["monad", "verify", "c3", "--numeric", str(path)])
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize("template", ["c3", "pervsystem-c3"])
def test_monad_verify_numeric_refuses_an_empty_point_list(tmp_path, capsys, template):
    # no point would be checked, and the run would still exit 0
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"points": []}))
    argv = ["monad", "verify", template, "--numeric", str(path), "--json"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: 'points' is empty, so there is no point to check\n"


@pytest.mark.parametrize(
    "template, unbound",
    [
        ("y20", "E, F, A, C, B, D"),
        ("kn", "E, F, A, C, B, D, Gf"),
        ("pervsystem-conifold", "A, C, B, D"),
        ("adhm3d", "Af"),
        ("ny3d", "A, C, B, D"),
    ],
)
def test_numeric_rejects_template_without_witness(tmp_path, capsys, template, unbound):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["0", "0"], ["1", "0"]]}))
    code, out, err = run_capture(capsys, ["monad", "verify", template, "--numeric", str(path)])
    assert code == 2 and out == ""
    assert f"no numeric witness for template {template}: unbound arrows {unbound}" in err


def test_monad_verify_numeric_on_framed_c3(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["0", "0"], ["1", "0"]]}))
    code, out, _ = run_capture(
        capsys, ["monad", "verify", "pervsystem-c3", "--numeric", str(path), "--json"]
    )
    assert code == 0 and len(json.loads(out)["numeric"]["cohomology"]) == 2


@pytest.mark.parametrize("template", ["c3", "pervsystem-c3"])
def test_numeric_witness_violating_a_relation_exits_1(tmp_path, capsys, monkeypatch, template):
    def non_commuting(points):
        rep = {
            "B1": ((0, 1), (0, 0)),
            "B2": ((0, 0), (1, 0)),
            "B3": linalg.zeros(2, 2),
            "I": ((1,), (1,)),
            "J": linalg.zeros(1, 2),
        }
        return rep, {"0": 2, "inf": 1}, True

    monkeypatch.setattr(framing, "numeric_solution_builder", non_commuting)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["0", "0"], ["1", "0"]]}))
    code, out, err = run_capture(capsys, ["monad", "verify", template, "--numeric", str(path)])
    assert code == 1 and out == ""
    assert f"numeric witness of {template}: relation d/dB3" in err


@pytest.mark.parametrize("template", ["c3", "pervsystem-c3"])
def test_numeric_d_squared_nonzero_exits_1(tmp_path, capsys, monkeypatch, template):
    def nonzero_d_squared(*args, **kwargs):
        return monad.EvaluationResult(False, [0, 0, 0, 1], [0, 0, 0, 1])

    monkeypatch.setattr(monad, "evaluate", nonzero_d_squared)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["1/2", "-3"]]}))
    code, out, err = run_capture(capsys, ["monad", "verify", template, "--numeric", str(path)])
    assert code == 1 and out == ""
    assert err == f"numeric witness of {template}: d^2 != 0 at (1/2, -3, 0)\n"


def test_missing_numeric_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, _, err = run_capture(capsys, ["monad", "verify", "c3", "--numeric", str(missing)])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("content", [b"", b"{", b"[1, 2", b"\xff\xfe"])
@pytest.mark.parametrize(
    "argv", [["monad", "verify", "c3", "--numeric"], ["relations", "adhm3d", "--framing"]]
)
def test_unparsable_json_file_is_reported_with_its_name(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_capture(capsys, argv + [str(path)])
    assert code == 2 and out == "" and err.startswith(f"error: {path}: ")


def test_closed_stdout_pipe_is_not_a_usage_error(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = run(["catalog", "list"])
        monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def test_stdout_that_refuses_writes_is_not_a_usage_error(monkeypatch, capsys):
    class Gone:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Gone())
    code = run(["catalog", "list"])
    monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def test_reader_gone_before_output_leaves_stderr_empty():
    """A real process whose stdout pipe is closed before it writes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys, time; time.sleep(0.3); from quiverdt.cli import main; main()",
         "relations", "adhm3d"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_stray_key_error_is_not_reported_as_not_in_catalog(monkeypatch):
    def broken(template):
        raise KeyError("E")

    monkeypatch.setattr(catalog, "monad_case", broken)
    with pytest.raises(KeyError):
        run(["monad", "verify", "c3"])


def test_count_families(capsys):
    code, out, _ = run_capture(capsys, ["count", "partitions", "--order", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert {"exp": [5], "c": "7"} in data["coeffs"]


def test_count_plane_with_pit(capsys):
    code, out, _ = run_capture(
        capsys, ["count", "plane", "--order", "6", "--pit", "2,0", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["q"]


@pytest.mark.parametrize("pit", ["1", ",", "1,2,3", "a,b"])
def test_count_plane_malformed_pit_is_usage_error(capsys, pit):
    code, out, err = run_capture(capsys, ["count", "plane", "--order", "3", "--pit", pit])
    assert (code, out) == (2, "")
    assert "argument --pit: expected M,N (two comma-separated integers)" in err


@pytest.mark.parametrize(
    "argv, option, value, cause",
    [
        (
            ["count", "plane", "--order", "3"], "--pit", "-1,2",
            "pit coordinates must be positive, or one of them zero",
        ),
        (
            ["character", "--m", "2", "--n", "1", "--t", "1", "--order", "3"], "--shift", "-1;2",
            "negative subdiagonal entry in (-1, 2)",
        ),
    ],
)
def test_a_value_starting_with_a_minus_sign_is_named_in_its_joined_form(
    capsys, argv, option, value, cause
):
    # argparse reads a separate "-1,2" as an option; joined with "=", the
    # value reaches the check that names what is wrong with it
    code, out, err = run_capture(capsys, [*argv, option, value])
    assert (code, out) == (2, "")
    hint = f"(a value that starts with '-' is given as {option}=VALUE)"
    assert f"error: argument {option}: expected one argument {hint}\n" in err
    assert run_capture(capsys, [*argv, f"{option}={value}"]) == (2, "", f"error: {cause}\n")


def test_count_blowup_prints_half_powers(capsys):
    code, out, _ = run_capture(capsys, ["count", "blowup", "--order", "2"])
    assert code == 0 and "qh^1/2" in out


def test_series_macmahon(capsys):
    code, out, _ = run_capture(capsys, ["series", "macmahon", "--order", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert {"exp": [4], "c": "13"} in data["coeffs"]


@pytest.mark.parametrize(
    "argv, says",
    [
        (
            ["count", "pyramid", "--order", "3", "--colors", "5", "--pit", "1,1", "--rank", "7"],
            "count --rank applies only to tuples and nested, not to pyramid",
        ),
        (["count", "plane", "--order", "3", "--rank", "2"], "count --rank applies only to"),
        (["count", "partitions", "--order", "3", "--colors", "2"], "count --colors applies only to plane"),
        (["count", "nested", "--order", "3", "--pit", "1,1"], "count --pit applies only to plane"),
        (
            ["series", "macmahon", "--order", "3", "--power", "9"],
            "series --power applies only to macmahon-power, not to macmahon",
        ),
        (["series", "eta", "--order", "3", "--power", "1"], "series --power applies only to"),
        (["catalog", "list", "c3"], "catalog id applies only to show, not to list"),
        (["catalog", "list", "--json"], "catalog --json applies only to show, not to list"),
    ],
)
def test_option_the_choice_does_not_read_is_usage_error(capsys, argv, says):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and says in err


@pytest.mark.parametrize(
    "bare, explicit",
    [
        (["count", "tuples", "--order", "4"], ["count", "tuples", "--order", "4", "--rank", "1"]),
        (["count", "nested", "--order", "4"], ["count", "nested", "--order", "4", "--rank", "1"]),
        (["series", "macmahon-power", "--order", "5"], ["series", "macmahon", "--order", "5"]),
    ],
)
def test_unset_rank_and_power_default_to_one(capsys, bare, explicit):
    assert run_capture(capsys, bare) == run_capture(capsys, explicit)


def test_character_golden_line(capsys):
    code, out, _ = run_capture(
        capsys, ["character", "--shift", "1", "--m", "2", "--n", "0", "--t", "1", "--order", "4"]
    )
    assert code == 0
    # weight multiset {1: x3, 2: x2}: prod (1-q^k)^-3 (1-q^(k+1))^-2
    assert out.strip().splitlines()[-1] == "1,3,11,30,80"


@pytest.mark.parametrize("m, zeros", [(1, ""), (3, "0;0")])
def test_character_default_shift_is_m_plus_n_minus_one_zeros(capsys, m, zeros):
    argv = ["character", "--m", str(m), "--n", "0", "--t", "1", "--order", "3", "--json"]
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "") and json.loads(out)["sub"] == [0] * (m - 1)
    assert run_capture(capsys, [*argv, "--shift", zeros]) == (code, out, err)


def test_character_default_shift_for_m_two_is_unchanged(capsys):
    argv = ["character", "--m", "2", "--n", "0", "--t", "3", "--order", "8"]
    assert run_capture(capsys, argv) == run_capture(capsys, [*argv, "--shift", "0"])
    assert run_capture(capsys, argv)[1].splitlines() == [
        "shift (0,) (m=2, n=0), t=3",
        "1,4,18,64,211,636,1822,4936,12861",
    ]


def test_character_divisor_route(capsys):
    code, out, _ = run_capture(
        capsys,
        ["character", "--divisor", "mu=3,1", "--m", "2", "--n", "0", "--t", "2", "--order", "3", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["sub"] == [2]


@pytest.mark.parametrize(
    "option, value, says",
    [
        ("--shift", "a", "expected integers separated by ';' or ',', got 'a'"),
        ("--shift", "0;x", "expected integers separated by ';' or ',', got '0;x'"),
        ("--divisor", "mu=a", "bad divisor component 'mu=a'"),
        ("--divisor", "mu=3,1 nu=b", "bad divisor component 'nu=b'"),
        ("--divisor", "lambda=1", "bad divisor component 'lambda=1'"),
    ],
)
def test_character_malformed_integer_names_option(capsys, option, value, says):
    argv = ["character", option, value, "--m", "2", "--n", "0", "--t", "1", "--order", "3"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert f"argument {option}: {says}" in err


def test_character_negative_m_is_named(capsys):
    argv = ["character", "--m", "-1", "--n", "2", "--t", "1", "--order", "3"]
    assert run_capture(capsys, argv) == (2, "", "error: need m >= 0, got m = -1\n")


def test_character_empty_divisor_is_not_ignored(capsys):
    argv = ["character", "--divisor", "", "--m", "2", "--n", "0", "--t", "1", "--order", "3"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "") and "partition lengths" in err


def test_character_shift_and_divisor_are_exclusive(capsys):
    argv = ["character", "--shift", "5", "--divisor", "mu=3,1"]
    argv += ["--m", "2", "--n", "0", "--t", "1", "--order", "3"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "--shift" in err and "--divisor" in err and "not allowed with" in err


MIXED_PYRAMID = ["character", "--divisor", "mu=3,2 nu=1", "--m", "2", "--n", "1", "--t", "2"]


def test_character_warning_is_one_plain_stderr_line(capsys):
    argv = MIXED_PYRAMID + ["--order", "4"]
    warning = (
        "warning: mixed even/odd pyramid with non-rectangular blocks: "
        "the inter-block ordering convention is untested\n"
    )
    for _ in range(2):  # on every call, not once per process
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (0, "shift (1, 1) (m=2, n=1), t=2\n1,6,33,148,594\n")
        assert err == warning


def test_character_warning_raised_as_error_is_usage_error(capsys):
    # under -W error (or PYTHONWARNINGS=error) the warning is raised, not shown
    argv = MIXED_PYRAMID + ["--order", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: mixed even/odd pyramid with non-rectangular blocks: "
        "the inter-block ordering convention is untested\n"
    )


def test_compare_pass_exit_zero(capsys):
    code, out, _ = run_capture(capsys, ["compare", "vw-rank1"])
    assert code == 0 and "equal through" in out


def test_compare_json(capsys):
    code, out, _ = run_capture(capsys, ["compare", "blowup", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data[0]["equal"] is True


def test_usage_error_exit_two(capsys):
    assert run(["count", "bogus-family", "--order", "3"]) == 2
    assert run([]) == 2


# usage errors, help and valid calls, in an order where leftover parser state
# would show: each must behave as it does alone in a fresh process
SHARED_PARSER_SEQUENCE = [
    ["count", "plane", "--order", "3", "--pit", "1,2,3"],
    ["count", "plane", "--order", "6", "--pit", "2,0", "--json"],
    ["count", "plane", "--order", "6"],
    ["character", "--shift", "5", "--divisor", "mu=3,1", "--m", "2", "--n", "0", "--t", "1", "--order", "3"],
    ["compare", "nope"],
    ["compare", "c3-dt", "--bogus"],
    ["compare", "monad-certification", "--order", "3"],
    ["--help"],
    ["--help"],
    ["monad", "verify", "c3"],
    ["character", "--divisor", "mu=3,1", "--m", "2", "--n", "0", "--t", "2", "--order", "3", "--json"],
    ["character", "--m", "2", "--n", "0", "--t", "1", "--order", "3"],
    ["compare", "blowup", "--json", "--order", "6"],
    ["compare", "c3-dt", "--order", "3", "extra"],
    ["compare", "monad-certification", "--json"],
    MIXED_PYRAMID + ["--order", "4"],
]


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap the same in both
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parser = build_parser()
    for argv in SHARED_PARSER_SEQUENCE:
        alone = subprocess.run(
            [sys.executable, "-m", "quiverdt", *argv], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert run_capture(capsys, argv) == (alone.returncode, alone.stdout, alone.stderr), argv
    assert build_parser() is parser


def _subparsers_built(monkeypatch, capsys, argv) -> list[str]:
    """The subcommand parsers that ``run(argv)`` builds from an empty cache."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    build_parser.cache_clear()
    try:
        run(argv)
    finally:
        build_parser.cache_clear()
    capsys.readouterr()
    return built


def test_a_command_builds_only_its_own_subparser(monkeypatch, capsys):
    every = ["catalog", "quiver", "relations", "monad", "count", "series", "character", "compare"]
    argv = ["compare", "blowup", "--order", "0", "--json"]
    assert _subparsers_built(monkeypatch, capsys, argv) == ["compare"]
    assert _subparsers_built(monkeypatch, capsys, ["--help"]) == every
    # a leftover word is refused by the full parser, whose usage lists every command
    argv = ["compare", "c3-dt", "--bogus"]
    assert _subparsers_built(monkeypatch, capsys, argv) == ["compare", *every]
