"""Command line driver: analyze, quotient, blowup and identities.

Exit codes: 0 success, 1 condition refusal, 2 input error, 3 bound
exhaustion (a search bound, or a computed exponent past the packing
bound).  Reports are printed as indented text and can additionally be
written as JSON; a scenario subcommand's report depends on its scenario
file and flags alone, and is byte-identical across runs.

`main(argv)` makes every exit decision: it checks the count flags before
dispatch, and it turns an exhausted search into its report, an input
error into exit 2 and a refusal raised before a report into exit 1.  The
JSON is written before anything is printed, so an unwritable `--json`
path is an input error on every path, with nothing on stdout.  `main`
returns the exit code and may be called repeatedly in one process: the
argument parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from uhat import blowup as bl
from uhat import infinitesimal as inf
from uhat import quotient as qt
from uhat.lie import (
    GradedLieAlgebra,
    comult_coefficients,
    verify_commutator_identity,
    verify_weighted_bracket_identity,
)
from uhat.scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2
EXIT_BOUND = 3

WEIGHT_SAMPLES = 5  # random weight tuples per letter count in `identities`


def _render(node, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(node, dict):
        for key, val in node.items():
            if isinstance(val, (dict, list, tuple)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_render(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(val)}")
    elif isinstance(node, (list, tuple)):
        for val in node:
            if isinstance(val, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines.extend(_render(val, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(val)}")
    return lines


def _scalar(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return "none"
    if isinstance(val, (list, tuple, dict)) and not val:
        return "{}" if isinstance(val, dict) else "[]"
    return str(val)


def _write_json(report, json_path):
    """Write the report as indented JSON: int keys become strings, tuples arrays."""
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")


def emit(report, json_path):
    # the JSON first, so an unwritable path leaves stdout empty
    if json_path:
        _write_json(report, json_path)
    print("\n".join(_render(report)))


def _load(args):
    return load_scenario(args.scenario).build()


def _report(args, **fields):
    """A scenario subcommand's report: its command and scenario, then `fields`."""
    return {"command": args.command, "scenario": args.scenario, **fields}


def _refuse(args, reason, **details):
    emit(_report(args, refused=reason, **details), args.json)
    return EXIT_REFUSED


def _chain_summary(chain):
    """The quotient a staged chain ends in."""
    return {
        "affine_dimension": chain.affine_dimension,
        "final_generators": list(chain.final_algebra.ring.names),
        "final_relations": [str(g) for g in chain.final_algebra.relations.generators],
    }


def cmd_analyze(args):
    action = _load(args)
    report = {"scenario": args.scenario, "levels": {}}
    for i, d in inf.level_data(action).items():
        report["levels"][f"level_{i}"] = {
            "weight": action.lie.weights[i - 1],
            "rank": d.chain.target_rank,
            "k": d.k,
            "fitting_ideals": {
                f"fit_{j}": [str(g) for g in d.chain.ideal(j).generators]
                for j in range(-1, d.chain.target_rank + 1)
            },
        }
    ss, cert = inf.check_ss_eq_s(action)
    cdrs = inf.check_cdrs(action)
    wuu, winfo = bl.check_wuu(action)
    if "weight_zero_generator" in winfo:
        point = bl.witness_point(action)
        winfo["witness"] = None if point is None else {n: str(v) for n, v in point.items()}
    report["k_vector"] = list(bl.k_vector(action))
    report["ss_eq_s"] = {"holds": ss, "certificate": cert}
    report["cdrs"] = cdrs
    report["wuu"] = {"holds": wuu, **winfo}
    report["command"] = "analyze"
    emit(report, args.json)
    return EXIT_OK


def cmd_quotient(args):
    action = _load(args)
    cdrs = inf.check_cdrs(action)
    if not cdrs["holds"]:
        return _refuse(
            args,
            "the constant-rank condition fails on this chart",
            hint="run `uhat blowup` to produce a chart where it holds",
            cdrs=cdrs,
        )
    chain = qt.staged_quotient(action, args.degree_bound)
    verification = qt.verify_quotient(chain)
    stages = [
        {
            "level": number,
            "weight": stage.slices.weight,
            "split": [stage.action_in.lie.basis_names[i] for i in stage.slices.split],
            "slices": [str(f) for f in stage.slices.functions],
            "invariant_generators": {k: str(v) for k, v in stage.inclusion.items()},
            "relations": [str(g) for g in stage.algebra_out.relations.generators],
        }
        for number, stage in enumerate(chain.stages, 1)
    ]
    report = _report(args, stages=stages, **_chain_summary(chain), verification=verification)
    emit(report, args.json)
    return EXIT_OK if verification["ok"] else EXIT_REFUSED


def cmd_blowup(args):
    action = _load(args)
    if inf.check_cdrs(action)["holds"]:
        return _refuse(
            args,
            "no blow-up needed: the constant-rank condition already holds",
            hint="run `uhat quotient` directly",
        )
    wuu, winfo = bl.check_wuu(action)
    if not wuu:
        return _refuse(args, "the weight-zero stratum misses the minimal-rank locus", wuu=winfo)
    cd = bl.centre(action, args.degree_bound)
    elements = bl.construct_b(action, cd)
    chart = bl.build_chart(action, cd, elements)
    chart_report = bl.verify_chart_cdrs(chart)
    report = _report(
        args,
        k_vector=list(cd.k_vector),
        witnesses=[
            {
                "level": w.level,
                "weight": w.weight,
                "split": [action.lie.basis_names[i] for i in w.split_rows],
                "functions": [str(f) for f in w.functions],
                "minor": str(w.a),
            }
            for w in cd.witnesses
        ],
        distinguished_element=str(cd.a),
        centre_ideal=[str(g) for g in cd.centre_ideal.generators],
        elements={
            f"level_{i}": [str(b) for b in bs] for i, bs in sorted(elements.per_level.items())
        },
        chart_generators=[{"name": n, "numerator": str(g)} for n, g in chart.generators],
        chart_relations=[str(g) for g in chart.algebra.relations.generators],
        chart_cdrs=chart_report,
    )
    ok = chart_report["holds"] and chart_report["certificate_ok"]
    if args.with_quotient and ok:
        chain = qt.staged_quotient(chart.action, args.degree_bound)
        ok = qt.verify_quotient(chain)["ok"]
        report["chart_quotient"] = {**_chain_summary(chain), "verification_ok": ok}
    emit(report, args.json)
    return EXIT_OK if ok else EXIT_REFUSED


def cmd_identities(args):
    rng = random.Random(args.seed)
    report = {"command": "identities", "weighted_bracket": {}, "commutator": {}, "comult": {}}
    ok_all = True
    brackets = {}  # complete-bracket memo, shared by both identities for this run only
    for n in range(1, args.letters + 1):
        tuples = [tuple(rng.randint(1, 9) for _ in range(n)) for _ in range(WEIGHT_SAMPLES)]
        checked = 0
        failed = []
        for k in _indices(n, args.max_total):
            for w in tuples:
                ok, info = verify_weighted_bracket_identity(n, w, k, args.max_total, brackets)
                checked += 1
                if not ok:
                    failed.append({"k": k, "weights": w})
            ok2, info2 = verify_commutator_identity(n, k, args.max_total, brackets)
            if not ok2:
                failed.append({"k": k, "identity": "commutator"})
        report["weighted_bracket"][f"letters_{n}"] = {"checked": checked, "failures": failed}
        ok_all = ok_all and not failed
    groups = {
        "additive": GradedLieAlgebra([1], [["e"]]),
        "additive_2": GradedLieAlgebra([1], [["e1", "e2"]]),
        "heisenberg": GradedLieAlgebra(
            [2, 1], [["c"], ["p", "q"]], {("p", "q"): {"c": 1}}
        ),
    }
    for gname, lie in groups.items():
        table = comult_coefficients(lie, args.comult_degree)
        failures = _comult_lemma_failures(table, lie.dim)
        report["comult"][gname] = {
            "degree": args.comult_degree,
            "entries": sum(len(v) for v in table.values()),
            "failures": failures,
        }
        ok_all = ok_all and not failures
    report["ok"] = ok_all
    emit(report, args.json)
    return EXIT_OK if ok_all else EXIT_REFUSED


def _indices(n, total):
    """Every k in N^n with 0 < |k| <= total, in lexicographic order, built
    prefix by prefix instead of filtered from the (total + 1)^n cube.
    """
    ks = [()]
    for _ in range(n):
        ks = [k + (v,) for k in ks for v in range(total - sum(k) + 1)]
    return ks[1:]  # ks[0] is k = 0


def _comult_lemma_failures(table, n):
    """The degree bound, both counits and the single-step coefficient trichotomy.

    One pass over each row finds its degree-bound failures, then its counit
    failures, left and right.  An absent counit entry c^alpha_{0,alpha} or
    c^alpha_{alpha,0}, or step entry c^alpha_{alpha-e_j,e_j}, reads as 0; an
    absent step beta is checked after the betas of the row.
    """
    failures = []
    zero = (0,) * n
    units = [tuple(1 if t == j else 0 for t in range(n)) for j in range(n)]
    for alpha, entry in table.items():
        top = sum(alpha)
        counit = []
        for (beta, gamma), c in entry.items():
            # the degree test first: a Fraction's truth value is a Python-level call
            if top > sum(beta) + sum(gamma) and c:
                failures.append({"kind": "degree-bound", "alpha": alpha, "beta": beta, "gamma": gamma})
            # counits: c^alpha_{0,gamma} = delta(gamma, alpha) and
            # c^alpha_{beta,0} = delta(beta, alpha), each failure naming its index
            if beta == zero:
                if c != (1 if gamma == alpha else 0):
                    counit.append(
                        {"kind": "counit", "alpha": alpha, "gamma": gamma, "value": str(c)}
                    )
            elif gamma == zero and c != (1 if beta == alpha else 0):
                counit.append({"kind": "counit", "alpha": alpha, "beta": beta, "value": str(c)})
        if (zero, alpha) not in entry:
            counit.append({"kind": "counit", "alpha": alpha, "gamma": alpha, "value": "0"})
        if alpha != zero and (alpha, zero) not in entry:
            counit.append({"kind": "counit", "alpha": alpha, "beta": alpha, "value": "0"})
        failures += counit
    for alpha, entry in table.items():
        # the betas one below alpha, in the order of the set of all of them,
        # then each step alpha - e_j (alpha_j > 0) the row lacks
        below = sum(alpha) - 1
        betas = [beta for beta in {bg[0] for bg in entry} if sum(beta) == below]
        steps = [alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :] for j in range(n)]
        betas += [step for a, step in zip(alpha, steps) if a and step not in betas]
        for j, ej in enumerate(units):
            step = steps[j]
            for beta in betas:
                c = entry.get((beta, ej), 0)
                if bool(c) != (beta == step):
                    failures.append(
                        {"kind": "e_j-trichotomy", "alpha": alpha, "beta": beta, "j": j}
                    )
                if c and c != 1 + beta[j]:
                    failures.append(
                        {
                            "kind": "e_j-value",
                            "alpha": alpha,
                            "beta": beta,
                            "j": j,
                            "value": str(c),
                            "expected": 1 + beta[j],
                        }
                    )
    return failures


@functools.cache
def _parser():
    """The `uhat` parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="uhat",
        description="Symbolic condition checks, quotients and blow-ups for "
        "graded unipotent actions on affine charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # quotient and blowup: analyze searches nothing, so takes no bound
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument(
            "--degree-bound",
            type=int,
            default=qt.DEGREE_BOUND,
            help="highest degree searched for slice functions and witness minors "
            "(default: %(default)s)",
        )
        p.add_argument("--json", default=None, help="also write the report as JSON")

    p = sub.add_parser("analyze", help="validate and run every condition check")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", help="staged invariant-ring quotient")
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("blowup", help="construct and verify the blow-up chart")
    common(p)
    p.add_argument(
        "--with-quotient",
        action="store_true",
        help="chain into the staged quotient on the verified chart",
    )
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("identities", help="exhaustive free-algebra identity checks")
    p.add_argument("--seed", type=int, default=1, help="seeds the random weight tuples")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.add_argument("--max-total", type=int, default=4, help="bound on |k|")
    p.add_argument(
        "--letters",
        type=int,
        default=3,
        help="check the bracket identities on 1 to this many letters (default: %(default)s)",
    )
    p.add_argument(
        "--comult-degree",
        type=int,
        default=4,
        help="degree bound of the comultiplication tables (default: %(default)s)",
    )
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        for flag in ("degree_bound", "letters", "max_total", "comult_degree"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ScenarioError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
        try:
            return args.func(args)
        except qt.BoundExhausted as exc:
            # a slice search also reports whether its condition holds
            found = {} if exc.condition_ok is None else {"condition_ok": exc.condition_ok}
            emit(_report(args, bound_exhausted=str(exc), bound=exc.bound, **found), args.json)
            return EXIT_BOUND
        except OverflowError as exc:
            # a computed exponent reached 2**EXP_BITS, the packing bound
            print(f"bound exhausted: {exc}", file=sys.stderr)
            return EXIT_BOUND
        except (qt.StageError, bl.NoBlowupNeeded, bl.VerificationFailed) as exc:
            # raised by a scenario subcommand before it emits a report: --json
            # still gets a refusal report, and stdout stays empty
            if args.json:
                _write_json(_report(args, refused=str(exc)), args.json)
            print(f"refused: {exc}", file=sys.stderr)
            return EXIT_REFUSED
    except (ScenarioError, OSError) as exc:
        # an unwritable --json path too, from any of the handlers above
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
