"""Command line interface.

Subcommands cover the pipeline stages plus a benchmark harness:

* oracle     - decide Hamiltonicity twice (path search + encoding SAT)
* encode     - emit the encoding formula for a graph
* prove      - build the normal tree refutation for a non-Hamiltonian graph
* translate  - map a tree proof into purely implicational form
* compress   - horizontally compress an implicational proof into a dag
* verify     - re-check a serialized tree or dag proof
* bench      - run graph families end to end and emit CSV + growth fit

Exit codes: 0 success, 2 malformed input, 3 the graph is Hamiltonian where
a refutation was requested, 4 a verification failure.

Reports cut formula text at REPORT_TEXT_LIMIT characters: an artifact's
formula table can name formulas whose text is exponentially longer than the
file. `verify` also reports the conclusion's weight, which is never cut.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .artifact import collector_paused, loads_document
from .bench import FAMILIES, fit_rows, run_bench, rows_to_csv
from .builder import MODES, build_refutation
from .dagproof import DagProof, compress_and_verify, dag_from_json, verify_dag
from .encoding import SAT_CAP, check_encode_cap, check_sat_cap, encode_graph, satisfiable
from .errors import (
    CapExceededError,
    GraphFormatError,
    GraphIsHamiltonianError,
    IllFormedDagError,
    IllFormedProofError,
    NoCoherentChoiceError,
    OpenAssumptionsError,
    ProofFormatError,
    UnsupportedRuleError,
    WrongOpenSetError,
)
from .formulas import is_implicational, to_text, weight
from .graphs import is_hamiltonian, parse_graph
from .implicational import translate_formula, translate_proof, translation_to_json, used_axioms
from .prooftree import (
    ProofTree,
    check_tree,
    dumps_proof,
    is_normal,
    loads_proof,
    proof_from_json,
    subformula_ok,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HAMILTONIAN = 3
EXIT_VERIFY = 4

REPORT_TEXT_LIMIT = 1 << 16

_INPUT_ERRORS = (
    GraphFormatError,
    ProofFormatError,
    CapExceededError,
    UnsupportedRuleError,
    OSError,
    ValueError,
)
_VERIFY_ERRORS = (
    IllFormedProofError,
    IllFormedDagError,
    OpenAssumptionsError,
    WrongOpenSetError,
    NoCoherentChoiceError,
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _report(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def cmd_oracle(args) -> int:
    g = parse_graph(_read(args.graph))
    check_sat_cap(g.n, args.sat_cap)
    witness = is_hamiltonian(g)
    sat = satisfiable(g, cap=args.sat_cap)
    if (witness is not None) != sat:
        print("error: path search and encoding satisfiability disagree", file=sys.stderr)
        return EXIT_VERIFY
    _report({
        "n": g.n,
        "graph_id": g.graph_id,
        "hamiltonian": witness is not None,
        "witness": list(witness) if witness else None,
        "encoding_satisfiable": sat,
    }, args.json)
    return EXIT_OK


def cmd_encode(args) -> int:
    g = parse_graph(_read(args.graph))
    check_encode_cap(g.n)
    enc = encode_graph(g)
    _emit(to_text(enc.formula) + "\n", args.out)
    _report({
        "n": g.n,
        "graph_id": g.graph_id,
        "weight": weight(enc.formula),
        "parts": {tag: len(enc.conjuncts[tag]) for tag in enc.present},
    }, args.json)
    return EXIT_OK


def cmd_prove(args) -> int:
    g = parse_graph(_read(args.graph))
    report = build_refutation(g, mode=args.mode, cap=args.cap)
    _emit(dumps_proof(report.proof), args.out)
    _report(report.summary(), args.json)
    return EXIT_OK


def cmd_translate(args) -> int:
    proof = loads_proof(_read(args.proof))
    check_tree(proof)
    translation = translate_formula(proof.conclusion)
    out_proof = translate_proof(proof, translation)
    metrics = check_tree(out_proof)
    _emit(dumps_proof(out_proof), args.out)
    payload = {
        "goal_weight": weight(out_proof.conclusion),
        "source_weight": weight(proof.conclusion),
        "axioms_used": len(used_axioms(proof, translation)),
        "height": metrics.height,
        "weight": metrics.weight,
    }
    if args.json:
        payload["translation"] = translation_to_json(translation, limit=REPORT_TEXT_LIMIT)
    _report(payload, args.json)
    return EXIT_OK


def cmd_compress(args) -> int:
    proof = loads_proof(_read(args.proof))
    metrics = check_tree(proof)
    if not is_implicational(proof.conclusion) or metrics.open_assumptions:
        raise UnsupportedRuleError(
            "compression expects a closed, purely implicational proof"
        )
    c = compress_and_verify(proof)
    _emit(c.text, args.out)
    _report({
        "weight": c.weight,
        "height": c.height,
        "node_count": len(c.cleansed.nodes),
        "conclusion_weight": c.cleansed.conclusion.weight,
        "compression_ratio": metrics.weight / c.weight,
        "verdict": c.verdict,
    }, args.json)
    return EXIT_OK


@collector_paused
def loads_artifact(text: str) -> ProofTree | DagProof:
    """Read a tree or dag document, told apart by its "kind", with the
    cyclic collector paused, as `loads_proof` and `loads_dag` do."""
    data = loads_document(text)
    return (proof_from_json if data["kind"] == "tree" else dag_from_json)(data)


def cmd_verify(args) -> int:
    artifact = loads_artifact(_read(args.artifact))
    if isinstance(artifact, ProofTree):
        proof = artifact
        metrics = check_tree(proof)
        closed = not metrics.open_assumptions
        payload = {
            "kind": "tree",
            "rules_ok": True,
            "closed": closed,
            "open_count": len(metrics.open_assumptions),
            "normal": is_normal(proof),
            "subformula_ok": subformula_ok(proof, metrics.open_assumptions),
            "height": metrics.height,
            "weight": metrics.weight,
            "conclusion": to_text(proof.conclusion, limit=REPORT_TEXT_LIMIT),
            "conclusion_weight": weight(proof.conclusion),
        }
        _report(payload, args.json)
        if not closed:
            print("error: proof has open assumptions", file=sys.stderr)
            return EXIT_VERIFY
        return EXIT_OK
    dag = artifact
    metrics = verify_dag(dag)
    _report({
        "kind": "dag",
        "closed": True,
        "height": metrics.height,
        "weight": metrics.weight,
        "node_count": len(dag.nodes),
        "conclusion": to_text(dag.conclusion, limit=REPORT_TEXT_LIMIT),
        "conclusion_weight": weight(dag.conclusion),
    }, args.json)
    return EXIT_OK


def cmd_bench(args) -> int:
    n_values = range(args.n_min, args.n_max + 1)
    rows = run_bench(args.family, n_values, seed=args.seed, count=args.count,
                     mode=args.mode, cap=args.cap)
    if not rows:
        print("error: no benchmark rows survived", file=sys.stderr)
        return EXIT_VERIFY
    _emit(rows_to_csv(rows, timing=not args.no_timing), args.out)
    fit = fit_rows(rows)
    payload = {
        "family": args.family,
        "rows": len(rows),
        "dag_verified": sum(1 for r in rows if r.dag_verified),
        "fit": None if fit is None else {
            "exponent": round(fit.slope, 6),
            "ci_low": round(fit.ci_low, 6),
            "ci_high": round(fit.ci_high, 6),
            "points": fit.points,
        },
    }
    if not args.json and fit is not None:
        print(fit.summary())
    _report(payload, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonham",
        description="Refutation proofs of non-Hamiltonicity: encode, prove, "
                    "translate, compress, verify, benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="decide Hamiltonicity two independent ways")
    p.add_argument("graph", help="graph file ('n m' header plus edge lines)")
    p.add_argument("--sat-cap", type=int, default=SAT_CAP,
                   help="refuse the SAT check, over n! rows, above this n "
                        "(default %(default)s)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("encode", help="emit the encoding formula for a graph")
    p.add_argument("graph")
    p.add_argument("--out", help="write the formula here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("prove", help="build the tree refutation for a non-Hamiltonian graph")
    p.add_argument("graph")
    p.add_argument("--mode", choices=MODES, default="auto",
                   help="faithful = all n^n branches, pruned = stop at violated prefixes")
    p.add_argument("--cap", type=int, default=None,
                   help="raise the per-mode size cap on n (deliberate blowup)")
    p.add_argument("--out", help="write the proof JSON here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("translate", help="translate a tree proof to implicational form")
    p.add_argument("proof", help="tree proof JSON file")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("compress", help="compress an implicational tree proof into a dag")
    p.add_argument("proof", help="implicational tree proof JSON file")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("verify", help="re-check a serialized tree or dag proof")
    p.add_argument("artifact", help="tree or dag proof JSON, told apart by its \"kind\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run graph families end to end, emit CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for the random family")
    p.add_argument("--count", type=int, default=1, help="graphs per n for the random family")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--cap", type=int, default=None,
                   help="raise the per-mode size cap on n (deliberate blowup)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timing", action="store_true",
                   help="write 0 for wall_time_ms so outputs are byte-reproducible")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphIsHamiltonianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HAMILTONIAN
    except _VERIFY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
