"""Command-line surface: gen, check-tree, run, min-tree, experiment,
verify-paper.

Every verb reads and writes only the documented JSON/CSV formats; outputs
are deterministic given the arguments (seeded randomness, sorted CSV rows,
no timestamps), so files can be diffed and replayed byte-for-byte.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (a failed self-check: a bug, not bad input).
"""

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction

from . import acceptance
from .bbtree import BBTree, Disjunction, proves_infeasibility, separates, solves
from .errors import BBLabError, InternalError, MalformedInput, json_field
from .families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    TspSpec,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
    gen_set_cover,
    gen_tsp_subtour,
)
from .polytope import Polytope, point_to_json
from .rationals import integer, parse_list, rat_str
from .search import (
    COEFF_CAVEAT,
    FixedSequence,
    MostFractional,
    RandomGeneral,
    SearchBudget,
    min_tree_size,
    run_bb,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _write_json(path, obj):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _read_json(path):
    """A JSON input file; a key repeated within one object raises
    MalformedInput naming it, where ``json.load`` would keep the last."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInput(f"{key}: key repeated in one JSON object")
        obj[key] = value
    return obj


def _gen_polytope(family, n, k=None, seed=0, oracle=False, with_cover=False):
    mode = "oracle" if oracle else "explicit"
    if family in ("packing", "cover") and k is None:
        raise ValueError(f"family {family!r} needs k")
    if family == "cross":
        return gen_cross_polytope(CrossSpec(n, mode))
    if family == "packing":
        return gen_packing_family(PackingSpec(n, k, with_cover=with_cover, mode=mode))
    if family == "cover":
        return gen_set_cover(n, k)
    if family == "perturbed":
        return gen_perturbed_cross(PerturbedSpec(n, seed=seed))
    if family == "tsp":
        return gen_tsp_subtour(TspSpec(n))
    raise ValueError(f"unknown family {family!r}")


def cmd_gen(args):
    P = _gen_polytope(
        args.family, args.n, k=args.k, seed=args.seed, oracle=args.oracle,
        with_cover=args.with_cover,
    )
    _write_json(args.out, P.to_json())
    return 0


def _parse_objective(text, dim, seed):
    if text is None:
        return None
    if text == "ones":
        return (Fraction(1),) * dim
    if text == "random":
        rng = random.Random(seed * 7_777_777 + 11)
        return tuple(
            Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(dim)
        )
    if text.startswith("@"):
        return parse_list(_read_json(text[1:]), "objective")
    return parse_list(text.split(","), "objective")


def _farkas_json(cert):
    out = []
    for ref, mult in cert:
        if ref[0] == "oracle":
            out.append([["oracle", ref[1].to_json()], rat_str(mult)])
        else:
            out.append([list(ref), rat_str(mult)])
    return out


def cmd_check_tree(args):
    P = Polytope.from_json(_read_json(args.polytope))
    tree = BBTree.from_json(_read_json(args.tree))
    cert = {"mode": args.mode, "tree_size": tree.size, "leaf_count": tree.leaf_count}
    if args.mode == "infeasibility":
        rep = proves_infeasibility(tree, P)
        cert["verdict"] = rep.proved
        leaves = []
        for i, atom in enumerate(rep.atoms):
            entry = {"path": atom.path}
            if rep.proved:
                entry["status"] = "empty"
                entry["farkas"] = _farkas_json(rep.certificates[i])
            elif i == rep.witness_leaf:
                entry["status"] = "nonempty"
                entry["point"] = point_to_json(rep.witness_point)
            else:
                entry["status"] = "unchecked"
            leaves.append(entry)
        cert["leaves"] = leaves
    elif args.mode == "solves":
        objective = _parse_objective(args.objective, P.dim, args.seed)
        if objective is None:
            print("check-tree solves needs --objective", file=sys.stderr)
            return USAGE_ERROR
        witnesses = {}
        if args.report:
            witnesses = _leaf_witnesses(_read_json(args.report), tree.leaf_count)
        rep = solves(tree, P, objective, witnesses)
        cert["verdict"] = rep.solved
        cert["objective"] = [rat_str(v) for v in objective]
        cert["leaves"] = [
            {
                "status": st.status,
                "value": None if st.value is None else rat_str(st.value),
                "witness": None if st.witness is None else point_to_json(st.witness),
            }
            for st in rep.leaves
        ]
        if not rep.solved:
            cert["open_leaf"] = rep.open_leaf
    elif args.mode == "separates":
        if args.point is None:
            print("check-tree separates needs --point", file=sys.stderr)
            return USAGE_ERROR
        xstar = parse_list(args.point.split(","), "point")
        rep = separates(tree, P, xstar)
        cert["verdict"] = rep.separated
        cert["point"] = point_to_json(xstar)
        if not rep.separated and rep.hull.weights is not None:
            cert["hull_weights"] = [rat_str(w) for w in rep.hull.weights]
    else:
        return USAGE_ERROR
    _write_json(args.out, cert)
    return 0 if cert["verdict"] else 1


def _leaf_witnesses(report, leaf_count):
    """A run report's ``leaf_witnesses`` as {leaf index: point}.  A key that
    is not a leaf index, or that names a leaf an earlier key named ("1"
    and "01"), raises MalformedInput naming ``leaf_witnesses.<key>``."""
    if not isinstance(report, dict):
        raise MalformedInput("report: not a JSON object")
    with json_field("leaf_witnesses"):
        claims = report.get("leaf_witnesses", {}).items()
    witnesses = {}
    for key, p in claims:
        path = f"leaf_witnesses.{key}"
        with json_field(path):
            i = integer(key)
            if not 0 <= i < leaf_count:
                raise ValueError(f"no leaf {i} in a tree of {leaf_count} leaves")
            if i in witnesses:
                raise ValueError(f"leaf {i} is already named by an earlier key")
        witnesses[i] = parse_list(p, path)
    return witnesses


def _make_strategy(spec, path="strategy"):
    """A strategy from its JSON spec; a malformed spec raises MalformedInput
    naming ``path`` or a field below it."""
    with json_field(path):
        kind = spec.get("kind")
        if kind == "most-fractional":
            return MostFractional()
        if kind == "random-general":
            return RandomGeneral(integer(spec["M"]), integer(spec.get("seed", 0)))
        if kind == "fixed-sequence":
            return FixedSequence(
                Disjunction.from_json(d, f"{path}.disjunctions[{j}]")
                for j, d in enumerate(spec["disjunctions"])
            )
        raise ValueError(f"unknown strategy {kind!r}")


def _report_json(rep, strategy, budget):
    witnesses = {str(i): point_to_json(p) for i, p in rep.leaf_witnesses().items()}
    return {
        "status": rep.status,
        "nodes": rep.nodes,
        "leaves": rep.leaves,
        "value": None if rep.value is None else rat_str(rep.value),
        "point": None if rep.point is None else point_to_json(rep.point),
        "strategy": strategy.describe(),
        "budget": {"max_nodes": budget.max_nodes, "max_leaves": budget.max_leaves},
        "leaf_witnesses": witnesses,
    }


def cmd_run(args):
    P = Polytope.from_json(_read_json(args.polytope))
    strategy_spec = {"kind": args.strategy}
    if args.strategy == "random-general":
        strategy_spec.update({"M": args.M, "seed": args.seed})
    strategy = _make_strategy(strategy_spec)
    budget = SearchBudget(max_nodes=args.budget_nodes, max_leaves=args.budget_leaves)
    objective = _parse_objective(args.objective, P.dim, args.seed)
    rep = run_bb(P, strategy, objective=objective, budget=budget)
    _write_json(args.out, _report_json(rep, strategy, budget))
    if args.tree_out:
        _write_json(args.tree_out, rep.tree.to_json())
    return 0 if rep.status != "budget-exceeded" else 1


def cmd_min_tree(args):
    P = Polytope.from_json(_read_json(args.polytope))
    res = min_tree_size(P, args.M, args.max_leaves)
    out = {
        "result": "exact" if res.exact else "more-than",
        "leaves": res.leaves,
        "max_leaves": args.max_leaves,
        "coeff_bound": args.M,
        "caveat": COEFF_CAVEAT,
    }
    _write_json(args.out, out)
    return 0


def _int_value(value, path):
    with json_field(path):
        return integer(value)


def _int_list(config, key, default):
    """``config[key]`` as a list of ints; one int stands for a list of one."""
    values = config.get(key, default)
    if not isinstance(values, list):
        return [_int_value(values, key)]
    return list(parse_list(values, key, integer))


def _budget(config):
    """The config's ``budget`` object as a SearchBudget."""
    cfg = config.get("budget", {})
    if not isinstance(cfg, dict):
        raise MalformedInput(f"budget: not a JSON object: {cfg!r}")
    limits = {}
    for key in ("max_nodes", "max_leaves"):
        limits[key] = _int_value(cfg.get(key, 100_000), f"budget.{key}")
        if limits[key] < 1:
            raise MalformedInput(f"budget.{key}: must be positive: {limits[key]!r}")
    return SearchBudget(**limits)


def _experiment_rows(config):
    family = config["family"]
    ns = _int_list(config, "n", None)
    ks = None if config.get("k") is None else _int_list(config, "k", None)
    seeds = _int_list(config, "seeds", [0])
    if family == "perturbed" and not seeds:
        raise ValueError("perturbed family needs a nonempty seed list")
    if not isinstance(config.get("objective", ""), str):
        raise MalformedInput(f"objective: not a string: {config['objective']!r}")
    if not config.get("strategies"):
        raise ValueError("strategy list must not be empty")
    if not isinstance(config["strategies"], list):
        raise MalformedInput("strategies: not a list")
    for i, spec in enumerate(config["strategies"]):
        _make_strategy(spec, f"strategies[{i}]")
    for n in ns:
        for k in ks or [None]:
            for seed in seeds:
                for strat in config["strategies"]:
                    yield n, k, seed, strat


def cmd_experiment(args):
    config = _read_json(args.config)
    if not isinstance(config, dict):
        raise MalformedInput("experiment config: not a JSON object")
    out_path = args.out or config.get("out")
    if out_path is None:
        print("experiment needs an output path", file=sys.stderr)
        return USAGE_ERROR
    budget = _budget(config)
    trees_dir = config.get("trees_dir")
    rows = []
    for n, k, seed, strat_spec in _experiment_rows(config):
        P = _gen_polytope(
            config["family"], n, k=k, seed=seed,
            oracle=config.get("oracle", False),
            with_cover=config.get("with_cover", False),
        )
        strategy = _make_strategy(strat_spec)
        objective = _parse_objective(config.get("objective"), P.dim, seed)
        rep = run_bb(P, strategy, objective=objective, budget=budget)
        label = strat_spec["kind"]
        rows.append(
            (config["family"], n, "" if k is None else k, label, seed,
             rep.nodes, rep.leaves, rep.status)
        )
        if trees_dir:
            os.makedirs(trees_dir, exist_ok=True)
            stem = f"{config['family']}_n{n}_k{k or 0}_{label}_s{seed}"
            _write_json(os.path.join(trees_dir, stem + ".tree.json"),
                        rep.tree.to_json())
            _write_json(os.path.join(trees_dir, stem + ".report.json"),
                        _report_json(rep, strategy, budget))
    rows.sort(key=lambda r: tuple(str(v) for v in r))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["family", "n", "k", "strategy", "seed", "nodes", "leaves", "status"]
        )
        writer.writerows(rows)
    return 0


def cmd_verify_paper(args):
    return acceptance.run_all()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bblab",
        description="exact branch-and-bound laboratory over split disjunctions",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path ('-' for stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seeded, output], help="generate an instance")
    p.add_argument("--family", required=True,
                   choices=["cross", "packing", "cover", "perturbed", "tsp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--with-cover", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check-tree", parents=[seeded, output], help="verify a tree")
    p.add_argument("--polytope", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--mode", required=True,
                   choices=["infeasibility", "solves", "separates"])
    p.add_argument("--objective")
    p.add_argument("--point")
    p.add_argument("--report", help="run report JSON supplying leaf witnesses")
    p.set_defaults(fn=cmd_check_tree)

    p = sub.add_parser("run", parents=[seeded, output], help="run branch-and-bound")
    p.add_argument("--polytope", required=True)
    p.add_argument("--strategy", default="most-fractional",
                   choices=["most-fractional", "random-general"])
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--objective")
    p.add_argument("--budget-nodes", type=int, default=100_000)
    p.add_argument("--budget-leaves", type=int, default=100_000)
    p.add_argument("--tree-out")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("min-tree", parents=[output], help="exact minimal proof size")
    p.add_argument("--polytope", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--max-leaves", type=int, required=True)
    p.set_defaults(fn=cmd_min_tree)

    p = sub.add_parser("experiment", parents=[output], help="CSV growth tables")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (BBLabError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
