import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bblab.cli import main
from bblab.families import CrossSpec, gen_cross_polytope
from bblab.polytope import Polytope
from bblab.bbtree import BBTree, full_variable_tree, proves_infeasibility


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_polytope_json(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("gen", "--family", "cross", "--n", "2", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["dim"] == 2 and obj["box"] is True and len(obj["rows"]) == 4
    assert obj["provenance"]["family"] == "cross"
    assert all(isinstance(c, str) for c in obj["rows"][0]["coeffs"])


def test_gen_oracle_mode_roundtrips(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("gen", "--family", "cross", "--n", "5", "--oracle",
                   "--out", str(out)) == 0
    P = Polytope.from_json(json.loads(out.read_text()))
    assert P.oracle is not None and P.rows == ()


def test_check_tree_infeasibility_and_fault_injection(tmp_path):
    p = tmp_path / "p.json"
    t = tmp_path / "t.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--family", "cross", "--n", "2", "--out", str(p))
    t.write_text(json.dumps(full_variable_tree(2).to_json()))
    assert run_cli("check-tree", "--polytope", str(p), "--tree", str(t),
                   "--mode", "infeasibility", "--out", str(cert)) == 0
    obj = json.loads(cert.read_text())
    assert obj["verdict"] is True and obj["tree_size"] == 7
    assert all(leaf["status"] == "empty" and leaf["farkas"] for leaf in obj["leaves"])

    # drop one row: the corresponding 0/1 point becomes feasible
    broken = json.loads(p.read_text())
    del broken["rows"][0]
    p2 = tmp_path / "broken.json"
    p2.write_text(json.dumps(broken))
    assert run_cli("check-tree", "--polytope", str(p2), "--tree", str(t),
                   "--mode", "infeasibility", "--out", str(cert)) == 1
    obj = json.loads(cert.read_text())
    assert obj["verdict"] is False
    assert any(leaf["status"] == "nonempty" for leaf in obj["leaves"])


def test_run_and_solves_replay_with_witnesses(tmp_path):
    p = tmp_path / "p.json"
    rep = tmp_path / "rep.json"
    tree = tmp_path / "tree.json"
    cert = tmp_path / "cert.json"
    run_cli("gen", "--family", "packing", "--n", "4", "--k", "2", "--out", str(p))
    assert run_cli("run", "--polytope", str(p), "--objective", "ones",
                   "--out", str(rep), "--tree-out", str(tree)) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "solved" and report["value"] == "1"
    assert run_cli("check-tree", "--polytope", str(p), "--tree", str(tree),
                   "--mode", "solves", "--objective", "ones",
                   "--report", str(rep), "--out", str(cert)) == 0
    assert json.loads(cert.read_text())["verdict"] is True


def test_check_tree_separates_mode(tmp_path):
    p = tmp_path / "p.json"
    t = tmp_path / "t.json"
    run_cli("gen", "--family", "cross", "--n", "2", "--out", str(p))
    t.write_text(json.dumps(full_variable_tree(2).to_json()))
    assert run_cli("check-tree", "--polytope", str(p), "--tree", str(t),
                   "--mode", "separates", "--point", "1/2,1/2",
                   "--out", str(tmp_path / "c.json")) == 0
    t.write_text(json.dumps(BBTree().to_json()))
    assert run_cli("check-tree", "--polytope", str(p), "--tree", str(t),
                   "--mode", "separates", "--point", "1/2,1/2",
                   "--out", str(tmp_path / "c.json")) == 1


def test_min_tree_verb_reports_caveat(tmp_path):
    p = tmp_path / "p.json"
    out = tmp_path / "m.json"
    run_cli("gen", "--family", "cross", "--n", "1", "--out", str(p))
    assert run_cli("min-tree", "--polytope", str(p), "--M", "2",
                   "--max-leaves", "4", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["result"] == "exact" and obj["leaves"] == 2
    assert "bounded-coefficient" in obj["caveat"]


def test_experiment_csv_is_deterministic_and_trees_replay(tmp_path):
    config = {
        "family": "cross",
        "n": [2, 3, 4],
        "oracle": True,
        "strategies": [{"kind": "most-fractional"}],
        "seeds": [0],
        "budget": {"max_nodes": 2000, "max_leaves": 2000},
        "trees_dir": str(tmp_path / "trees"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "family,n,k,strategy,seed,nodes,leaves,status"
    nodes = {row.split(",")[1]: int(row.split(",")[5]) for row in lines[1:]}
    assert nodes == {"2": 7, "3": 15, "4": 31}
    assert all(row.endswith("proved-infeasible") for row in lines[1:])

    from bblab.families import CrossSpec, gen_cross_polytope

    for n in (2, 3, 4):
        tree_file = tmp_path / "trees" / f"cross_n{n}_k0_most-fractional_s0.tree.json"
        tree = BBTree.from_json(json.loads(tree_file.read_text()))
        assert proves_infeasibility(tree, gen_cross_polytope(CrossSpec(n, "oracle"))).proved


def test_experiment_growth_matches_formula_through_n6(tmp_path):
    config = {
        "family": "cross",
        "n": [5, 6],
        "oracle": True,
        "strategies": [{"kind": "most-fractional"}],
        "budget": {"max_nodes": 5000, "max_leaves": 5000},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "growth.csv"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()[1:]
    nodes = {r.split(",")[1]: int(r.split(",")[5]) for r in rows}
    assert nodes == {"5": 2 ** 6 - 1, "6": 2 ** 7 - 1}


def test_experiment_random_general_rows_are_reproducible(tmp_path):
    config = {
        "family": "cross",
        "n": [2, 3],
        "strategies": [{"kind": "random-general", "M": 2, "seed": 7}],
        "budget": {"max_nodes": 3000, "max_leaves": 3000},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(a)) == 0
    assert run_cli("experiment", "--config", str(cfg), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    for row in a.read_text().strip().splitlines()[1:]:
        assert row.endswith("proved-infeasible")


def test_experiment_solved_rows_replay_through_check_tree(tmp_path):
    config = {
        "family": "tsp",
        "n": [6],
        "strategies": [{"kind": "most-fractional"}],
        "seeds": [3],
        "objective": "random",
        "budget": {"max_nodes": 4000, "max_leaves": 4000},
        "trees_dir": str(tmp_path / "trees"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "tsp.csv"
    assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
    row = out.read_text().strip().splitlines()[1]
    assert row.endswith("solved")
    p = tmp_path / "p.json"
    run_cli("gen", "--family", "tsp", "--n", "6", "--out", str(p))
    stem = tmp_path / "trees" / "tsp_n6_k0_most-fractional_s3"
    assert run_cli(
        "check-tree", "--polytope", str(p),
        "--tree", str(stem) + ".tree.json",
        "--mode", "solves", "--objective", "random", "--seed", "3",
        "--report", str(stem) + ".report.json",
        "--out", str(tmp_path / "cert.json"),
    ) == 0
    assert json.loads((tmp_path / "cert.json").read_text())["verdict"] is True


def test_experiment_config_validation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "cross", "n": [2], "strategies": []}))
    assert run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")) == 2
    cfg.write_text(json.dumps({
        "family": "perturbed", "n": [3], "seeds": [],
        "strategies": [{"kind": "most-fractional"}],
    }))
    assert run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")) == 2


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("gen", "--family", "packing", "--n", "4",
                   "--out", str(tmp_path / "x.json")) == 2  # missing k
    with pytest.raises(SystemExit) as err:
        run_cli("gen", "--family", "nope", "--n", "2")
    assert err.value.code == 2


def test_options_a_verb_does_not_read_are_usage_errors(tmp_path):
    # --out only where a verb writes a file, --seed only where it draws one
    for argv in (
        ["verify-paper", "--out", str(tmp_path / "x.json")],
        ["verify-paper", "--seed", "9"],
        ["min-tree", "--polytope", "p.json", "--M", "2", "--max-leaves", "4", "--seed", "1"],
        ["experiment", "--config", "c.json", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
    assert not (tmp_path / "x.json").exists()


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    from bblab import _kernel

    p = tmp_path / "p.json"
    t = tmp_path / "t.json"
    run_cli("gen", "--family", "cross", "--n", "1", "--out", str(p))
    t.write_text(json.dumps(BBTree().to_json()))
    real = _kernel.pivot_update

    def corrupted(rows, r, c, den):
        new_den = real(rows, r, c, den)
        rows[r][-1] += new_den  # the entering variable's value goes up by one
        return new_den

    monkeypatch.setattr(_kernel, "pivot_update", corrupted)
    assert run_cli("check-tree", "--polytope", str(p), "--tree", str(t),
                   "--mode", "infeasibility", "--out", str(tmp_path / "c.json")) == 3
    err = capsys.readouterr().err
    assert err == "internal error: simplex returned a point violating a constraint\n"


def test_malformed_polytope_and_tree_files_exit_2_naming_the_field(tmp_path, capsys):
    p = tmp_path / "p.json"
    t = tmp_path / "t.json"
    run_cli("gen", "--family", "cross", "--n", "2", "--out", str(p))
    good_p = json.loads(p.read_text())
    good_t = full_variable_tree(2).to_json()
    bad_row = {**good_p["rows"][0], "coeffs": 5}
    no_right = {k: v for k, v in good_t.items() if k != "right"}
    cases = [
        ({**good_p, "rows": [bad_row]}, good_t, "rows[0].coeffs"),
        ({**good_p, "dim": 2.7}, good_t, "dim"),
        ({**good_p, "dim": "1_0"}, good_t, "dim"),
        ({**good_p, "rows": [{**good_p["rows"][0], "coeffs": ["1_0/3", "1"]}]}, good_t,
         "rows[0].coeffs[0]"),
        ({**good_p, "box": False}, good_t, "box"),
        ({**good_p, "rows": [], "oracle": {"family": "cross", "n": 2.5}}, good_t, "oracle"),
        ({**good_p, "rows": [], "oracle": {"family": "cross", "n": 3}}, good_t, "oracle"),
        (good_p, no_right, "tree.right"),
        (good_p, {**good_t, "pi": [1.5, 0]}, "tree.pi[0]"),
        (good_p, {**good_t, "pi": [True, 0]}, "tree.pi[0]"),
        (good_p, {**good_t, "left": {**good_t["left"], "pi0": 0.9}}, "tree.left.pi0"),
    ]
    capsys.readouterr()
    for polytope, tree, field in cases:
        p.write_text(json.dumps(polytope))
        t.write_text(json.dumps(tree))
        assert run_cli("check-tree", "--polytope", str(p), "--tree", str(t),
                       "--mode", "infeasibility", "--out", str(tmp_path / "c.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


def test_verify_paper_times_each_criterion_on_stderr(monkeypatch, capsys):
    from bblab import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("first", lambda reg: (True, "fine")),
        ("second", lambda reg: (False, "broken")),
    ])
    assert run_cli("verify-paper") == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "PASS criterion  1 [first]: fine\n"
        "FAIL criterion  2 [second]: broken\n"
    )
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["criterion  1", "criterion  2"]
    assert all(line.endswith(" s") for line in lines)


def test_malformed_report_and_experiment_config_exit_2_naming_the_field(tmp_path, capsys):
    p = tmp_path / "p.json"
    t = tmp_path / "t.json"
    rep = tmp_path / "rep.json"
    run_cli("gen", "--family", "packing", "--n", "4", "--k", "2", "--out", str(p))
    assert run_cli("run", "--polytope", str(p), "--objective", "ones",
                   "--out", str(rep), "--tree-out", str(t)) == 0
    report = json.loads(rep.read_text())
    witness = next(iter(report["leaf_witnesses"].values()))
    report["leaf_witnesses"] = 5
    rep.write_text(json.dumps(report))
    string_point = tmp_path / "rep2.json"  # a string is not read as a list of digits
    string_point.write_text(json.dumps({**report, "leaf_witnesses": {"0": "01"}}))
    # a leaf index is an integer in 0..leaf_count-1
    leaf_count = BBTree.from_json(json.loads(t.read_text())).leaf_count
    stray_keys = {}
    for key in ("1_0", "-1", str(leaf_count), "99"):
        stray_keys[key] = tmp_path / f"rep-{len(stray_keys)}.json"
        stray_keys[key].write_text(json.dumps({**report, "leaf_witnesses": {key: witness}}))
    cfg = tmp_path / "cfg.json"
    # an --objective @file is read like a report or config field
    not_a_list, not_rationals = tmp_path / "five.json", tmp_path / "floats.json"
    not_a_list.write_text("5")
    not_rationals.write_text("[1.5, 2]")
    check = ["check-tree", "--polytope", str(p), "--tree", str(t), "--mode", "solves"]
    run = ["run", "--polytope", str(p)]
    experiment = ["experiment", "--config", str(cfg)]
    base = {"family": "cross", "n": [2], "strategies": [{"kind": "most-fractional"}]}
    fixed = {"kind": "fixed-sequence", "disjunctions": [{"pi": [1, 0], "pi0": 0},
                                                        {"pi": [0, 1.5], "pi0": 0}]}
    capsys.readouterr()
    cases = [
        (check + ["--objective", "ones", "--report", str(rep)], "leaf_witnesses", None),
        (check + ["--objective", "ones", "--report", str(string_point)],
         "leaf_witnesses.0", None),
        *((check + ["--objective", "ones", "--report", str(path)],
           f"leaf_witnesses.{key}", None) for key, path in stray_keys.items()),
        (experiment, "n", {**base, "n": "x"}),
        (experiment, "strategies[0]", {**base, "strategies": [5]}),
        (experiment, "budget", {**base, "budget": 5}),
        (experiment, "budget.max_nodes", {**base, "budget": {"max_nodes": "x"}}),
        (experiment, "budget.max_nodes", {**base, "budget": {"max_nodes": 0}}),
        (experiment, "budget.max_leaves", {**base, "budget": {"max_leaves": -1}}),
        (experiment, "strategies[0].disjunctions[1].pi[1]", {**base, "strategies": [fixed]}),
        (experiment, "strategies[0]",
         {**base, "strategies": [{"kind": "random-general", "M": 2.5}]}),
        (check[:-2] + ["--mode", "separates", "--point", "1/2,x"], "point[1]", None),
        (experiment, "objective", {**base, "objective": 5}),
        (check + ["--objective", f"@{not_a_list}"], "objective", None),
        (check + ["--objective", f"@{not_rationals}"], "objective[0]", None),
        (run + ["--objective", f"@{not_a_list}"], "objective", None),
        (run + ["--objective", f"@{not_rationals}"], "objective[0]", None),
    ]
    for argv, field, config in cases:
        if config is not None:
            cfg.write_text(json.dumps(config))
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_repeated_keys_and_leaves_exit_2_naming_them(tmp_path, capsys):
    p, t, rep = tmp_path / "p.json", tmp_path / "t.json", tmp_path / "rep.json"
    run_cli("gen", "--family", "packing", "--n", "4", "--k", "2", "--out", str(p))
    t.write_text(json.dumps(full_variable_tree(4).to_json()))
    check = ["check-tree", "--polytope", str(p), "--tree", str(t), "--mode", "solves",
             "--objective", "ones", "--out", str(tmp_path / "out")]
    # "1" and "01" both name leaf 1; the second claim is refused, not kept
    rep.write_text(json.dumps({"leaf_witnesses": {"1": ["0", "0", "0", "1"],
                                                  "01": ["1", "1", "1", "1"]}}))
    capsys.readouterr()
    assert run_cli(*check, "--report", str(rep)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: leaf_witnesses.01: leaf 1 is already named") and "Traceback" not in err
    # a key repeated in one object of any input file is refused, wherever it is
    polytope, tree = p.read_text(), t.read_text()
    cfg = tmp_path / "cfg.json"
    cases = [
        (p, polytope.replace('"dim": 4', '"dim": 4, "dim": 3', 1), "dim", check),
        (p, polytope.replace('"rel": "<="', '"rel": "<=", "rel": ">="', 1), "rel", check),
        (t, tree.replace('"pi0": "0"', '"pi0": "0", "pi0": "1"', 1), "pi0", check),
        (rep, '{"leaf_witnesses": {"1": ["0", "0", "0", "1"], "1": ["1", "1", "1", "1"]}}',
         "1", check + ["--report", str(rep)]),
        (cfg, '{"family": "cross", "n": [2], "n": [3], "strategies": []}', "n",
         ["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")]),
    ]
    for path, text, key, argv in cases:
        assert text.count(f'"{key}"') >= 2
        original = path.read_text() if path.exists() else None
        path.write_text(text)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key}: key repeated in one JSON object\n"
        if original is not None:
            path.write_text(original)
    assert not (tmp_path / "out").exists()


def test_a_polytope_outside_the_box_exits_2_naming_box(tmp_path, capsys):
    # Outside the box, x >= 1/2 is unbounded, which no LP verdict covers.
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"dim": 1, "box": False, "rows": [
        {"coeffs": ["1"], "rel": ">=", "rhs": "1/2"}]}))
    t = tmp_path / "t.json"
    t.write_text(json.dumps({"leaf": True}))
    capsys.readouterr()
    for argv in (["run", "--polytope", str(p)],
                 ["check-tree", "--polytope", str(p), "--tree", str(t), "--mode", "solves"]):
        assert run_cli(*argv, "--objective", "ones", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: box: must be true or absent: False\n"
    assert not (tmp_path / "out").exists()


def _fields(obj, path):
    """(path, parent, key) for every field below a JSON value, depth first;
    the free-form ``provenance`` is not a checked field."""
    items = enumerate(obj) if isinstance(obj, list) else obj.items()
    for key, value in items:
        if key == "provenance":
            continue
        sub = f"{path}[{key}]" if isinstance(obj, list) else f"{path}.{key}".lstrip(".")
        yield sub, obj, key
        if isinstance(value, (dict, list)):
            yield from _fields(value, sub)


_wrong_typed = st.one_of(
    st.floats(),
    st.booleans(),
    st.text("abxyz ", max_size=3),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from("abc"), st.integers(0, 1), max_size=2),
)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(["polytope", "tree"]), data=st.data())
def test_a_wrong_typed_field_exits_2_naming_it(tmp_path, capsys, which, data):
    files = {
        "polytope": gen_cross_polytope(CrossSpec(2)).to_json(),
        "tree": full_variable_tree(2).to_json(),
    }
    root = "" if which == "polytope" else "tree"
    path, parent, key = data.draw(st.sampled_from(list(_fields(files[which], root))))
    parent[key] = data.draw(_wrong_typed.filter(lambda v: type(v) is not type(parent[key])))
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("check-tree", "--polytope", str(tmp_path / "polytope.json"),
                   "--tree", str(tmp_path / "tree.json"), "--mode", "infeasibility",
                   "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {re.escape(path)}[.\[:]", err), (path, err)
    assert not (tmp_path / "out").exists()
