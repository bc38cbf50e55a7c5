"""Command-line interface.

One binary, subcommand tree: intersect, aux, sieve, expsum, circle, sets,
selftest.  The module-level COMMANDS table drives both the parser and the
dispatch: each row names a subcommand, its handler, its data-outcome rule
and its argument specs.  Handlers return a JSON payload (a dict) or CSV
text; main() adds "command", serializes stable JSON (sorted keys, fixed
indentation, no NaN/Infinity) in blocks of encoder chunks and writes the
blocks once the last one is built, so a payload that fails to encode leaves
no partial output.  Data outcomes (a violation found, a not-intersective
verdict, a rejected construction, no increment, a failed acceptance check)
exit 1, usage and I/O errors exit 2, resource guards exit 3, and any other
exception exits 4 with one "internal error:" line on stderr, never a
traceback.  All randomness flows from --seed (default 0), and computation is
sequential with fixed-block accumulation, so output bytes depend only on the
seed and the inputs.  --output names the output path ("-", the default, is
stdout).  A reader that closes stdout early ends nothing but the output:
the exit code is the payload's, and stderr stays empty.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_acceptance
from .arith import factorize
from .auxiliary import AuxiliaryFamily, content_bound_audit
from .circle import Progression, classify, dft_indicator, extract_progression
from .diffsets import (
    ConstructionRejected,
    DiffFreeInstance,
    density_table,
    greedy,
    modular_search,
    ruzsa_exponent,
    ruzsa_lift,
    trivial_multiples,
    verify,
)
from .expsum import (
    RationalPoint,
    ResourceLimit,
    complete_sum,
    major_arc_asymptotic,
    moment_sum,
    sqrt_cancel_audit,
)
from .padic import is_intersective
from .poly import parse_poly
from .setio import load_set, save_dfset
from .sieve import SieveProfile, brun_compare

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

JSON = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)
JSON_BLOCK = 2**16  # encoder chunks joined per output block


def _csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _members(args, size: str) -> tuple[list[int], int]:
    """Members of the --set file and the interval length: --N or --L (named by
    `size`), else the DFSET1 header."""
    members, from_file = load_set(args.set)
    n = from_file if getattr(args, size) is None else getattr(args, size)
    if n is None:
        raise ValueError(f"plain set files need an explicit --{size}")
    return members, n


def _saved(args, members) -> str | None:
    """Write `members` to --save as DFSET1 over [1, --N]; the path, or None."""
    if args.save:
        save_dfset(args.save, members, args.N)
    return args.save or None


def _parse_gens(text: str):
    return [parse_poly(part) for part in text.split(";") if part.strip()]


# -- subcommand handlers: each returns a JSON payload dict or CSV text ----------


def cmd_intersect_check(args) -> dict:
    h = parse_poly(args.poly)
    return {"poly": h.to_json(), **is_intersective(h, args.prime_bound, args.depth).to_json()}


def cmd_aux_build(args) -> dict:
    h = parse_poly(args.poly)
    fam = AuxiliaryFamily(h, args.depth)
    return {
        "poly": h.to_json(),
        "d": args.d,
        "r_d": fam.r_of(args.d),
        "lambda_d": fam.lam(args.d),
        "h_d": fam.aux_poly(args.d).to_json(),
    }


def cmd_aux_audit(args) -> dict:
    h = parse_poly(args.poly)
    rep = content_bound_audit(AuxiliaryFamily(h, args.depth), args.dmax)
    return {
        "poly": h.to_json(),
        "d_max": rep.d_max,
        "disc_abs": rep.disc_abs,
        "base_content": rep.base_content,
        "max_content": rep.max_content,
        "argmax_d": rep.argmax_d,
        "max_ratio": rep.max_ratio,
    }


def cmd_sieve_table(args) -> dict:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    return {
        "poly": g.to_json(),
        "Y": args.Y,
        "modulus": profile.modulus,
        "density": float(profile.density()),
        "table": {
            str(p): {"gamma": gam, "j": j, "roots": list(roots)}
            for p, (gam, j, roots) in sorted(profile.table.items())
        },
    }


def cmd_sieve_count(args) -> str:
    cmp = brun_compare(SieveProfile.build(parse_poly(args.poly), args.Y), args.X)
    row = {"X": args.X, "exact": cmp.exact, "main": cmp.main, "rel_err": cmp.relative_error}
    fields = ["X", "exact", "main", "rel_err"]
    if args.compare and not cmp.in_regime:
        row["warning"] = "X below Y^2 regime"
        fields.append("warning")
    return _csv([row], fields)


def _point(args) -> RationalPoint:
    """The reduced point a/q of -a and -q, a taken mod q once q is valid."""
    if args.q < 1:
        raise ValueError(f"q must be >= 1, got {args.q}")
    return RationalPoint(args.a % args.q, args.q)


def cmd_expsum_complete(args) -> dict:
    g = parse_poly(args.poly)
    pt = _point(args)
    sieve = None if args.sieve is None else SieveProfile.build(g, args.sieve)
    res = complete_sum(g, pt, sieve=sieve)
    return {
        "poly": g.to_json(),
        "a": pt.a,
        "q": pt.q,
        "sieve_Y": args.sieve,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "abs": abs(res.value),
        "n_terms": res.n_terms,
        "est_abs_error": res.est_abs_error,
    }


def cmd_expsum_audit_sqrt(args) -> dict | str:
    rows, summary = sqrt_cancel_audit(parse_poly(args.poly), args.qmax, args.Y, seed=args.seed)
    text = _csv(rows, ["q", "a", "abs_sum", "ratio_sqrt", "omega_q", "class_tags"])
    if not args.csv:
        return text
    Path(args.csv).write_text(text)
    return {**summary, "csv": args.csv}


def cmd_expsum_major(args) -> dict:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    pt = _point(args)
    res = major_arc_asymptotic(g, pt, args.beta, args.X, profile)
    return {
        "poly": g.to_json(),
        "a": pt.a,
        "q": pt.q,
        "beta": args.beta,
        "X": args.X,
        "Y": args.Y,
        "main_re": res.main.real,
        "main_im": res.main.imag,
        "actual_re": res.actual.real,
        "actual_im": res.actual.imag,
        "abs_err": res.abs_err,
        "rel_err": res.rel_err if math.isfinite(res.rel_err) else None,  # null: main term is 0
        "in_regime": res.in_regime,
        "vdc_ok": res.vdc_ok,
    }


def cmd_expsum_moment(args) -> dict:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    return {
        "poly": g.to_json(),
        "L": args.L,
        "m": args.m,
        "Y": args.Y,
        "moment": moment_sum(g, args.L, args.m, profile),
    }


def _top_frequencies(mags: np.ndarray, k: int) -> np.ndarray:
    """The k frequencies t in [1, N) of largest mags[t], ties in ascending t:
    np.argsort(-mags[1:], kind="stable")[:k] + 1 without sorting all N - 1.
    Every t that ties the k-th largest magnitude is a candidate, so a stable
    sort of the candidates breaks the ties as the full sort would."""
    rest = mags[1:]
    cand = np.arange(len(rest))
    if len(rest) > k:
        kth = np.partition(rest, len(rest) - k)[len(rest) - k]
        cand = np.flatnonzero(rest >= kth)
    return cand[np.argsort(-rest[cand], kind="stable")[:k]] + 1


def cmd_circle_dft(args) -> dict:
    members, N = _members(args, "N")
    fd = dft_indicator(members, N)
    mags = np.abs(fd.values)
    top = _top_frequencies(mags, 8)
    lhs, rhs = fd.plancherel()
    return {
        "N": N,
        "size": len(members),
        "f0": fd.values[0].real,
        "plancherel_lhs": lhs,
        "plancherel_rhs": rhs,
        "top_frequencies": [{"t": int(t), "abs": float(mags[t])} for t in top],
    }


def cmd_circle_arcs(args) -> dict:
    label = classify(args.t, args.N, args.K, args.Q)
    return {
        "N": args.N,
        "K": args.K,
        "Q": args.Q,
        "t": args.t,
        "kind": label.kind,
        "a": label.a,
        "q": label.q,
        "disjointness_ok": label.disjointness_ok,
    }


def cmd_circle_increment(args) -> dict:
    members, L = _members(args, "L")
    res = extract_progression(set(members), L, args.q, args.K, args.theta)
    if not isinstance(res, Progression):
        return {
            "found": False,
            "reason": res.reason,
            "mass": res.mass,
            "required_mass": res.required_mass,
        }
    return {
        "found": True,
        "start": res.start,
        "step": res.step,
        "length": res.length,
        "count": res.count,
        "density": float(res.density),
        "threshold": float(res.threshold),
        "case": res.case,
        "floor_length": res.floor_length,
    }


def cmd_sets_verify(args) -> dict:
    members, N = _members(args, "N")
    inst = DiffFreeInstance(N, _parse_gens(args.gens), members)
    violation = verify(inst)
    payload = {"N": N, "size": len(inst), "ok": violation is None}
    if violation is not None:
        payload["violation"] = violation.to_json()
    return payload


def cmd_sets_greedy(args) -> dict:
    inst = greedy(args.N, _parse_gens(args.gens))
    k = max(g.degree for g in inst.generators)
    return {
        "N": args.N,
        "size": len(inst),
        "density": inst.density,
        "reference_N_1m1k": args.N ** (1 - 1 / k),
        "saved": _saved(args, inst.members),
    }


def cmd_sets_trivial(args) -> dict:
    inst = trivial_multiples(args.N, args.k)
    return {
        "N": args.N,
        "k": args.k,
        "size": len(inst),
        "density": inst.density,
        "saved": _saved(args, inst.members),
    }


def cmd_sets_search(args) -> dict:
    res = modular_search(
        args.q, args.k, mode=args.mode, budget=args.budget, seed=args.seed, target=args.target
    )
    payload = {
        "q": args.q,
        "k": args.k,
        "mode": args.mode,
        "size": res.size,
        "best": list(res.best),
        "optimal": res.optimal,
        "nodes": res.nodes,
        "upper_bound": res.upper_bound,
        "exponent": None,
    }
    # the exponent is the Ruzsa lift's, and the digit lift needs square-free q
    if any(e > 1 for _, e in factorize(args.q)):
        payload["exponent_reason"] = f"q = {args.q} is not square-free, so no Ruzsa lift exists"
    else:
        payload["exponent"] = ruzsa_exponent(args.q, res.size, args.k)
    return payload


def cmd_sets_ruzsa(args) -> dict:
    B = [int(x) for x in args.B.split(",") if x.strip()]
    out = ruzsa_lift(B, args.q, args.k, args.N)
    if isinstance(out, ConstructionRejected):
        return out.to_json()
    return {
        "rejected": False,
        "q": args.q,
        "k": args.k,
        "N": args.N,
        "size": len(out),
        "density": out.density,
        "exponent": ruzsa_exponent(args.q, len(B), args.k),
        "saved": _saved(args, out.members),
    }


def cmd_sets_table(args) -> str:
    Ns = [int(x) for x in args.Ns.split(",") if x.strip()]
    rows = density_table(Ns, _parse_gens(args.gens))
    return _csv(rows, ["N", "method", "size", "density", "fs_bound_shape", "exp_bound_shape"])


def cmd_selftest(args) -> dict:
    return run_acceptance(quick=args.quick)


# -- the command table ---------------------------------------------------------


def _arg(flag: str, type=str, default=..., **kw) -> tuple[str, dict]:
    """One option spec: (flag, add_argument keywords).  Without a default the
    option is required; type=bool makes a store_true flag."""
    if type is bool:
        return flag, {"action": "store_true", **kw}
    if default is ...:
        return flag, {"type": type, "required": True, **kw}
    return flag, {"type": type, "default": default, **kw}


POLY = _arg("--poly")
DEPTH = _arg("--depth", int, 8, help="largest p-adic certificate precision (default %(default)s)")
GENS = _arg("--gens", help='generator list, e.g. "x^2;x^3"')
SET = _arg("--set")
SAVE = _arg("--save", default=None, help="write the set as DFSET1")
Y = _arg("--Y", float)

GROUP_HELP = {
    "intersect": "intersectivity verdicts",
    "aux": "auxiliary polynomial families",
    "sieve": "derivative-root sieve",
    "expsum": "sieved exponential sums",
    "circle": "discrete circle method",
    "sets": "difference-free set workbench",
    "selftest": "run the acceptance suite",
}

# (group, command or None for a top-level command, handler,
#  data-outcome rule on the payload (exit 1 when it holds) or None, option specs)
COMMANDS = [
    ("intersect", "check", cmd_intersect_check, lambda p: p["status"] == "not_intersective",
     [POLY, _arg("--prime-bound", int, 1000), DEPTH]),
    ("aux", "build", cmd_aux_build, None, [POLY, _arg("--d", int), DEPTH]),
    ("aux", "audit", cmd_aux_audit, None, [POLY, _arg("--dmax", int), DEPTH]),
    ("sieve", "table", cmd_sieve_table, None, [POLY, Y]),
    ("sieve", "count", cmd_sieve_count, None, [POLY, Y, _arg("--X", int), _arg("--compare", bool)]),
    ("expsum", "complete", cmd_expsum_complete, None,
     [POLY, _arg("-a", int), _arg("-q", int), _arg("--sieve", float, None, help="sieve cutoff Y")]),
    ("expsum", "audit-sqrt", cmd_expsum_audit_sqrt, None,
     [POLY, _arg("--qmax", int), Y, _arg("--csv", default=None)]),
    ("expsum", "major", cmd_expsum_major, None,
     [POLY, _arg("-a", int), _arg("-q", int), _arg("--beta", float, 0.0), _arg("--X", int), Y]),
    ("expsum", "moment", cmd_expsum_moment, None, [POLY, _arg("--L", int), _arg("--m", int), Y]),
    ("circle", "dft", cmd_circle_dft, None, [SET, _arg("--N", int, None)]),
    ("circle", "arcs", cmd_circle_arcs, None,
     [_arg("--N", int), _arg("--K", float), _arg("--Q", int), _arg("--t", int)]),
    ("circle", "increment", cmd_circle_increment, lambda p: not p["found"],
     [SET, _arg("--L", int, None), _arg("--q", int), _arg("--K", float), _arg("--theta", float)]),
    ("sets", "verify", cmd_sets_verify, lambda p: not p["ok"], [GENS, SET, _arg("--N", int, None)]),
    ("sets", "greedy", cmd_sets_greedy, None, [GENS, _arg("--N", int), SAVE]),
    ("sets", "trivial", cmd_sets_trivial, None, [_arg("--N", int), _arg("--k", int), SAVE]),
    ("sets", "search", cmd_sets_search, None,
     [_arg("--q", int), _arg("--k", int),
      _arg("--mode", default="branch_bound", choices=("exhaustive", "branch_bound")),
      _arg("--budget", int, 10**9), _arg("--target", int, None)]),
    ("sets", "ruzsa", cmd_sets_ruzsa, lambda p: p["rejected"],
     [_arg("--B", help='modular set, e.g. "0,2"'), _arg("--q", int), _arg("--k", int),
      _arg("--N", int), SAVE]),
    ("sets", "table", cmd_sets_table, None,
     [GENS, _arg("--Ns", help='comma list, e.g. "1000,10000"')]),
    ("selftest", None, cmd_selftest, lambda p: not p["all_passed"], [_arg("--quick", bool)]),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ilab",
        description="intersective-polynomial laboratory: sieves, exponential sums, "
        "circle-method arcs, and difference-free set search",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized audits/searches")
    ap.add_argument("--output", default="-", help="output path, '-' for stdout")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for row in COMMANDS:
        group, command, _, _, specs = row
        if command is None:
            p = sub.add_parser(group, help=GROUP_HELP[group])
        else:
            if group not in groups:
                parent = sub.add_parser(group, help=GROUP_HELP[group])
                groups[group] = parent.add_subparsers(dest="subcommand", required=True)
            p = groups[group].add_parser(command)
        for flag, kw in specs:
            p.add_argument(flag, **kw)
        p.set_defaults(row=row)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    group, command, handler, fails, _ = args.row
    try:
        out = handler(args)
        if isinstance(out, dict):
            out = {"command": group if command is None else f"{group}.{command}", **out}
            chunks = JSON.iterencode(out)
            # iterencode never yields "", so the first empty join is the end
            blocks = [*iter(lambda: "".join(itertools.islice(chunks, JSON_BLOCK)), ""), "\n"]
        else:
            blocks = [out]
        if args.output == "-":
            try:
                sys.stdout.writelines(blocks)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader has gone; what it did not read is dropped, and
                # stdout becomes devnull so the final flush at exit cannot
                # raise again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        else:
            with open(args.output, "w") as fh:
                fh.writelines(blocks)
        return EXIT_DATA if fails is not None and fails(out) else EXIT_OK
    except (ResourceLimit, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
