"""Command-line driver: generate example families, analyze sets and
distributions, find and verify subspace certificates, run the endgame.

Exit code is 0 iff every requested check passed, 1 when a check failed or
standard output closed before all of it was written, and 2 on a package error,
a missing option, or an input or output path that cannot be read or written
(one line on stderr).  find-subspace notes a trivial certificate, V = 0 or
V = F_2^n, in one stderr line.  When the pipeline's V was F_2^n but the
hyperplane descent left a proper subspace, it notes instead, in one stderr
line, that this V comes from the descent alone.  Neither note changes the
exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .certify import endgame_bundle, set_bundle, solve_bundle, verify_bundle
from .dist import Dist, uniform_on, xor_convolve
from .endgame import endgame
from .entropy import doubling_mass, ruzsa_distance, shannon_entropy
from .errors import EntropicDoublingError, ValidationError
from .families import (
    PRNG_ID,
    doubling_stats,
    hamming_ball,
    random_subset_of_subspace,
    set_from_json,
    union_of_cosets,
)
from .pipeline import analyze_set, solve_B
from . import verification

CSV_COLUMNS = [
    "family",
    "n",
    "params",
    "set_size",
    "sumset_size",
    "eta",
    "dim_v",
    "achieved_epsilon",
    "seed",
]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_output(payload: dict, out: str | None, fmt: str, row: dict | None = None):
    if fmt == "csv":
        if row is None:
            raise ValidationError("this output has no CSV row; use --format json")
        target = open(out, "w", newline="") if out else sys.stdout
        try:
            writer = csv.DictWriter(target, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerow({col: row.get(col, "") for col in CSV_COLUMNS})
        finally:
            if out:
                target.close()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if out:
            Path(out).write_text(text + "\n")
        else:
            print(text)


def _cmd_gen(args) -> int:
    if args.family == "hamming-ball":
        if args.radius is None:
            raise ValidationError("--radius is required for hamming-ball")
        elements = hamming_ball(args.n, args.radius)
        params = f"r={args.radius}"
    elif args.family == "random-subset":
        if args.dim_v is None or args.count is None:
            raise ValidationError("--dim-v and --count are required for random-subset")
        elements = random_subset_of_subspace(args.n, args.dim_v, args.count, args.seed)
        params = f"dim_v={args.dim_v},N={args.count}"
    else:  # union-cosets; argparse allows no other family
        if args.dim_v is None or args.count is None:
            raise ValidationError("--dim-v and --count are required for union-cosets")
        elements = union_of_cosets(args.n, args.dim_v, args.count, args.seed)
        params = f"dim_v={args.dim_v},cosets={args.count}"
    stats = doubling_stats(elements)
    payload = {
        "n": args.n,
        "elements": [format(x, "x") for x in elements],
        "family": args.family,
        "params": params,
        "seed": args.seed,
        "prng": PRNG_ID,
        "stats": stats.to_json(),
    }
    row = {
        "family": args.family,
        "n": args.n,
        "params": params,
        "set_size": stats.size,
        "sumset_size": stats.sumset_size,
        "eta": f"{stats.eta:.6f}",
        "seed": args.seed,
    }
    _write_output(payload, args.out, args.format, row)
    return 0


def _cmd_analyze(args) -> int:
    if args.set:
        elements, n = set_from_json(_load_json(args.set))
        stats = doubling_stats(elements)
        u_a = uniform_on(elements, n)
        payload = {
            "n": n,
            "stats": stats.to_json(),
            "entropy": shannon_entropy(u_a),
            "entropic_doubling": doubling_mass(u_a, u_a),
        }
        row = {
            "family": "set-file",
            "n": n,
            "params": args.set,
            "set_size": stats.size,
            "sumset_size": stats.sumset_size,
            "eta": f"{stats.eta:.6f}",
            "seed": "",
        }
        _write_output(payload, args.out, args.format, row)
        return 0
    if args.dist:
        p = Dist.from_json(_load_json(args.dist))
        payload = {"n": p.n, "entropy": shannon_entropy(p)}
        if args.dist2:
            q = Dist.from_json(_load_json(args.dist2))
            payload.update(
                {
                    "entropy_y": shannon_entropy(q),
                    "doubling_mass": doubling_mass(p, q),
                    "ruzsa_distance": ruzsa_distance(p, q),
                    "entropy_sum_var": shannon_entropy(xor_convolve(p, q)),
                }
            )
        _write_output(payload, args.out, args.format)
        return 0
    raise ValidationError("analyze requires --set or --dist")


def _cmd_find_subspace(args) -> int:
    if args.set:
        elements, n = set_from_json(_load_json(args.set))
        result = analyze_set(elements, n, args.epsilon, seed=args.seed)
        bundle = set_bundle(result, elements, n)
        ach = result.certificate.achieved
        if ach["set_size"] > 1:
            eps_achieved = max(
                0.0,
                ach["eta"] - ach["expected_log_intersection"] / math.log2(ach["set_size"]),
            )
        else:
            eps_achieved = 0.0
        row = {
            "family": "set-file",
            "n": n,
            "params": f"epsilon={args.epsilon}",
            "set_size": ach["set_size"],
            "sumset_size": ach["sumset_size"],
            "eta": f"{ach['eta']:.6f}",
            "dim_v": ach["dim"],
            "achieved_epsilon": f"{eps_achieved:.6f}",
            "seed": args.seed,
        }
    elif args.dist:
        p = Dist.from_json(_load_json(args.dist))
        q = Dist.from_json(_load_json(args.dist2)) if args.dist2 else p
        result = solve_B(p, q, args.eta, args.epsilon, seed=args.seed)
        bundle = solve_bundle(result, p, q)
        h_total = shannon_entropy(p) + shannon_entropy(q)
        values = result.certificate.achieved
        eps_achieved = (
            max(0.0, (values["rhs"] - values["lhs"]) / h_total + args.epsilon)
            if h_total > 0
            else 0.0
        )
        row = {
            "family": "dist-file",
            "n": p.n,
            "params": f"eta={args.eta},epsilon={args.epsilon}",
            "dim_v": result.subspace.dim,
            "achieved_epsilon": f"{eps_achieved:.6f}",
            "seed": args.seed,
        }
    else:
        raise ValidationError("find-subspace requires --set or --dist")
    v, last = result.subspace, result.steps[-1] if result.steps else None
    if result.trivial:
        whole = "0" if v.dim == 0 else f"F_2^{v.n}"
        print(f"note: trivial certificate: V = {whole}", file=sys.stderr)
    elif last and last.kind == "DESCENT" and last.note["pipeline_trivial"]:
        print(
            f"note: the pipeline's V was F_2^{v.n}; this dim-{v.dim} V comes from the "
            "hyperplane descent alone",
            file=sys.stderr,
        )
    report = verify_bundle(bundle)
    bundle["verified"] = report.ok
    _write_output(bundle, args.out, args.format, row)
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    if args.certificate:
        report = verify_bundle(_load_json(args.certificate))
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    results = verification.run_all(trials=args.trials, seed=args.seed, max_n=args.n)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] {res.name}: {res.checks} checks, "
            f"{res.violations} violations, max gap {res.max_gap:.3e}, "
            f"{res.elapsed:.2f}s"
        )
        failed += 0 if res.passed else 1
    if args.out:
        Path(args.out).write_text(
            json.dumps([r.to_json() for r in results], indent=2, sort_keys=True) + "\n"
        )
    return 0 if failed == 0 else 1


def _cmd_endgame(args) -> int:
    p = Dist.from_json(_load_json(args.dist))
    q = Dist.from_json(_load_json(args.dist2)) if args.dist2 else p
    transcript = endgame(p, q, args.eta, args.kappa)
    bundle = endgame_bundle(transcript, p, q)
    ok = all(transcript.verdicts.values())
    bundle["verified"] = ok
    _write_output(bundle, args.out, "json")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropic-doubling",
        description="Entropy calculus over F_2^n with verified subspace certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an example family")
    gen.add_argument("--family", required=True,
                     choices=["hamming-ball", "random-subset", "union-cosets"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--radius", type=int)
    gen.add_argument("--dim-v", type=int)
    gen.add_argument("--count", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.add_argument("--format", choices=["json", "csv"], default="json")
    gen.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze", help="doubling/entropy stats for a set or distribution")
    analyze.add_argument("--set")
    analyze.add_argument("--dist")
    analyze.add_argument("--dist2")
    analyze.add_argument("--out")
    analyze.add_argument("--format", choices=["json", "csv"], default="json")
    analyze.set_defaults(func=_cmd_analyze)

    find = sub.add_parser("find-subspace", help="solve for a certified subspace")
    find.add_argument("--set")
    find.add_argument("--dist")
    find.add_argument("--dist2")
    find.add_argument("--eta", type=float, default=0.3)
    find.add_argument("--epsilon", type=float, default=0.1)
    find.add_argument("--seed", type=int, default=0)
    find.add_argument("--out")
    find.add_argument("--format", choices=["json", "csv"], default="json")
    find.set_defaults(func=_cmd_find_subspace)

    verify = sub.add_parser("verify", help="re-verify a certificate or run the property suites")
    verify.add_argument("--certificate")
    verify.add_argument("--n", type=int, default=4)
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    end = sub.add_parser("endgame", help="run the endgame transcript on inputs")
    end.add_argument("--dist", required=True)
    end.add_argument("--dist2")
    end.add_argument("--eta", type=float, required=True)
    end.add_argument("--kappa", type=float)
    end.add_argument("--out")
    end.set_defaults(func=_cmd_endgame)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does): send the rest of
        # the output, including the flush at exit, to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (EntropicDoublingError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
