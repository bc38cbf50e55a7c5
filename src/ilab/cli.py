"""Command-line interface.

One binary, subcommand tree: intersect, aux, sieve, expsum, circle, sets,
selftest.  Stable JSON (sorted keys, fixed indentation) and CSV with fixed
column order; data outcomes (a violation found, a not-intersective verdict,
a rejected construction, no increment) exit 1, usage errors exit 2, resource
guards exit 3.  All randomness flows from the single configured seed, and
computation is sequential with fixed-block accumulation, so output bytes
depend only on the seed and the inputs.  Global options are --seed,
--output and --config (a key=value file); ILAB_SEED overrides the file and
the command line overrides both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .acceptance import run_acceptance
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


@dataclass
class RunConfig:
    seed: int = 0
    output: str = "-"


def _load_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(_load_config_file(args.config))
    if "ILAB_SEED" in os.environ:
        values["seed"] = os.environ["ILAB_SEED"]
    for key in ("seed", "output"):
        arg = getattr(args, key, None)
        if arg is not None:
            values[key] = arg
    return RunConfig(
        seed=int(values.get("seed", 0)),
        output=str(values.get("output", "-")),
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        Path(cfg.output).write_text(text)


def emit_json(payload: dict, cfg: RunConfig) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", cfg)


def emit_csv(rows: list[dict], fields: list[str], cfg: RunConfig) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fields})
    _emit(buf.getvalue(), cfg)


# -- subcommand handlers -------------------------------------------------------


def cmd_intersect_check(args, cfg) -> int:
    h = parse_poly(args.poly)
    verdict = is_intersective(h, args.prime_bound, args.depth)
    payload = {"command": "intersect.check", "poly": h.to_json(), **verdict.to_json()}
    emit_json(payload, cfg)
    return EXIT_DATA if verdict.status == "not_intersective" else EXIT_OK


def cmd_aux_build(args, cfg) -> int:
    h = parse_poly(args.poly)
    fam = AuxiliaryFamily(h)
    d = args.d
    hd = fam.aux_poly(d)
    emit_json(
        {
            "command": "aux.build",
            "poly": h.to_json(),
            "d": d,
            "r_d": fam.r_of(d),
            "lambda_d": fam.lam(d),
            "h_d": hd.to_json(),
        },
        cfg,
    )
    return EXIT_OK


def cmd_aux_audit(args, cfg) -> int:
    h = parse_poly(args.poly)
    rep = content_bound_audit(AuxiliaryFamily(h), args.dmax)
    emit_json(
        {
            "command": "aux.audit",
            "poly": h.to_json(),
            "d_max": rep.d_max,
            "disc_abs": rep.disc_abs,
            "base_content": rep.base_content,
            "max_content": rep.max_content,
            "argmax_d": rep.argmax_d,
            "max_ratio": rep.max_ratio,
            "passed": rep.passed,
        },
        cfg,
    )
    return EXIT_OK


def cmd_sieve_table(args, cfg) -> int:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    emit_json(
        {
            "command": "sieve.table",
            "poly": g.to_json(),
            "Y": args.Y,
            "modulus": profile.modulus,
            "density": float(profile.density()),
            "table": {
                str(p): {"gamma": gam, "j": j, "roots": list(roots)}
                for p, (gam, j, roots) in sorted(profile.table.items())
            },
        },
        cfg,
    )
    return EXIT_OK


def cmd_sieve_count(args, cfg) -> int:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    cmp = brun_compare(profile, args.X)
    rows = [
        {
            "X": args.X,
            "exact": cmp.exact,
            "main": repr(cmp.main),
            "rel_err": repr(cmp.relative_error),
        }
    ]
    if args.compare and not cmp.in_regime:
        rows[0]["warning"] = "X below Y^2 regime"
        emit_csv(rows, ["X", "exact", "main", "rel_err", "warning"], cfg)
    else:
        emit_csv(rows, ["X", "exact", "main", "rel_err"], cfg)
    return EXIT_OK


def cmd_expsum_complete(args, cfg) -> int:
    g = parse_poly(args.poly)
    pt = RationalPoint(args.a % args.q, args.q)
    sieve = None
    if args.sieve is not None:
        sieve = (SieveProfile.build(g, args.sieve), True)
    res = complete_sum(g, pt, sieve=sieve)
    emit_json(
        {
            "command": "expsum.complete",
            "poly": g.to_json(),
            "a": pt.a,
            "q": pt.q,
            "sieve_Y": args.sieve,
            "value_re": res.value.real,
            "value_im": res.value.imag,
            "abs": abs(res.value),
            "n_terms": res.n_terms,
            "est_abs_error": res.est_abs_error,
        },
        cfg,
    )
    return EXIT_OK


def cmd_expsum_audit_sqrt(args, cfg) -> int:
    g = parse_poly(args.poly)
    rows, summary = sqrt_cancel_audit(g, args.qmax, args.Y, seed=cfg.seed)
    out_rows = [
        {
            "q": r["q"],
            "a": r["a"],
            "abs_sum": repr(r["abs_sum"]),
            "ratio_sqrt": repr(r["ratio_sqrt"]),
            "omega_q": r["omega_q"],
            "class_tags": r["class_tags"],
        }
        for r in rows
    ]
    if args.csv:
        csv_cfg = RunConfig(seed=cfg.seed, output=args.csv)
        emit_csv(out_rows, ["q", "a", "abs_sum", "ratio_sqrt", "omega_q", "class_tags"], csv_cfg)
        emit_json({"command": "expsum.audit-sqrt", **summary, "csv": args.csv}, cfg)
    else:
        emit_csv(out_rows, ["q", "a", "abs_sum", "ratio_sqrt", "omega_q", "class_tags"], cfg)
    return EXIT_OK


def cmd_expsum_major(args, cfg) -> int:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    res = major_arc_asymptotic(g, RationalPoint(args.a % args.q, args.q), args.beta, args.X, profile)
    emit_json(
        {
            "command": "expsum.major",
            "poly": g.to_json(),
            "a": args.a,
            "q": args.q,
            "beta": args.beta,
            "X": args.X,
            "Y": args.Y,
            "main_re": res.main.real,
            "main_im": res.main.imag,
            "actual_re": res.actual.real,
            "actual_im": res.actual.imag,
            "abs_err": res.abs_err,
            "rel_err": res.rel_err,
            "in_regime": res.in_regime,
            "vdc_ok": res.vdc_ok,
        },
        cfg,
    )
    return EXIT_OK


def cmd_expsum_moment(args, cfg) -> int:
    g = parse_poly(args.poly)
    profile = SieveProfile.build(g, args.Y)
    value = moment_sum(g, args.L, args.m, profile)
    emit_json(
        {
            "command": "expsum.moment",
            "poly": g.to_json(),
            "L": args.L,
            "m": args.m,
            "Y": args.Y,
            "moment": value,
        },
        cfg,
    )
    return EXIT_OK


def cmd_circle_dft(args, cfg) -> int:
    members, n_from_file = load_set(args.set)
    N = args.N or n_from_file
    if N is None:
        raise ValueError("plain set files need an explicit --N")
    fd = dft_indicator(members, N)
    import numpy as np

    mags = np.abs(fd.values)
    top = sorted(range(1, N), key=lambda t: -mags[t])[:8]
    lhs, rhs = fd.plancherel()
    emit_json(
        {
            "command": "circle.dft",
            "N": N,
            "size": len(members),
            "f0": fd.values[0].real,
            "plancherel_lhs": lhs,
            "plancherel_rhs": rhs,
            "top_frequencies": [{"t": int(t), "abs": float(mags[t])} for t in top],
        },
        cfg,
    )
    return EXIT_OK


def cmd_circle_arcs(args, cfg) -> int:
    label = classify(args.t, args.N, args.K, args.Q)
    emit_json(
        {
            "command": "circle.arcs",
            "N": args.N,
            "K": args.K,
            "Q": args.Q,
            "t": args.t,
            "kind": label.kind,
            "a": label.a,
            "q": label.q,
            "disjointness_ok": label.disjointness_ok,
        },
        cfg,
    )
    return EXIT_OK


def cmd_circle_increment(args, cfg) -> int:
    members, n_from_file = load_set(args.set)
    L = args.L or n_from_file
    if L is None:
        raise ValueError("plain set files need an explicit --L")
    res = extract_progression(set(members), L, args.q, args.K, args.theta)
    if isinstance(res, Progression):
        emit_json(
            {
                "command": "circle.increment",
                "found": True,
                "start": res.start,
                "step": res.step,
                "length": res.length,
                "count": res.count,
                "density": float(res.density),
                "threshold": float(res.threshold),
                "case": res.case,
                "floor_length": res.floor_length,
            },
            cfg,
        )
        return EXIT_OK
    emit_json(
        {
            "command": "circle.increment",
            "found": False,
            "reason": res.reason,
            "mass": res.mass,
            "required_mass": res.required_mass,
        },
        cfg,
    )
    return EXIT_DATA


def _parse_gens(text: str):
    return [parse_poly(part) for part in text.split(";") if part.strip()]


def cmd_sets_verify(args, cfg) -> int:
    members, n_from_file = load_set(args.set)
    N = args.N or n_from_file
    if N is None:
        raise ValueError("plain set files need an explicit --N")
    inst = DiffFreeInstance(N, _parse_gens(args.gens), members)
    violation = verify(inst)
    payload = {
        "command": "sets.verify",
        "N": N,
        "size": len(inst),
        "ok": violation is None,
    }
    if violation is not None:
        payload["violation"] = violation.to_json()
    emit_json(payload, cfg)
    return EXIT_OK if violation is None else EXIT_DATA


def cmd_sets_greedy(args, cfg) -> int:
    inst = greedy(args.N, _parse_gens(args.gens))
    if args.save:
        save_dfset(args.save, inst.members, args.N)
    k = max(g.degree for g in inst.generators)
    emit_json(
        {
            "command": "sets.greedy",
            "N": args.N,
            "size": len(inst),
            "density": inst.density,
            "reference_N_1m1k": args.N ** (1 - 1 / k),
            "saved": args.save or None,
        },
        cfg,
    )
    return EXIT_OK


def cmd_sets_trivial(args, cfg) -> int:
    inst = trivial_multiples(args.N, args.k)
    if args.save:
        save_dfset(args.save, inst.members, args.N)
    emit_json(
        {
            "command": "sets.trivial",
            "N": args.N,
            "k": args.k,
            "size": len(inst),
            "density": inst.density,
            "saved": args.save or None,
        },
        cfg,
    )
    return EXIT_OK


def cmd_sets_search(args, cfg) -> int:
    res = modular_search(
        args.q,
        args.k,
        mode=args.mode,
        budget=args.budget,
        seed=cfg.seed,
        target=args.target,
    )
    emit_json(
        {
            "command": "sets.search",
            "q": args.q,
            "k": args.k,
            "mode": args.mode,
            "size": res.size,
            "best": list(res.best),
            "optimal": res.optimal,
            "nodes": res.nodes,
            "upper_bound": res.upper_bound,
            "exponent": ruzsa_exponent(args.q, res.size, args.k) if res.size else None,
        },
        cfg,
    )
    return EXIT_OK


def cmd_sets_ruzsa(args, cfg) -> int:
    B = [int(x) for x in args.B.split(",") if x.strip()]
    out = ruzsa_lift(B, args.q, args.k, args.N)
    if isinstance(out, ConstructionRejected):
        emit_json({"command": "sets.ruzsa", **out.to_json()}, cfg)
        return EXIT_DATA
    if args.save:
        save_dfset(args.save, out.members, args.N)
    emit_json(
        {
            "command": "sets.ruzsa",
            "rejected": False,
            "q": args.q,
            "k": args.k,
            "N": args.N,
            "size": len(out),
            "density": out.density,
            "exponent": ruzsa_exponent(args.q, len(B), args.k),
            "saved": args.save or None,
        },
        cfg,
    )
    return EXIT_OK


def cmd_sets_table(args, cfg) -> int:
    Ns = [int(x) for x in args.Ns.split(",") if x.strip()]
    rows = density_table(Ns, _parse_gens(args.gens), methods=tuple(args.methods.split(",")))
    out_rows = [
        {
            "N": r["N"],
            "method": r["method"],
            "size": r["size"],
            "density": repr(r["density"]),
            "fs_bound_shape": repr(r["fs_bound_shape"]),
            "exp_bound_shape": repr(r["exp_bound_shape"]),
        }
        for r in rows
    ]
    emit_csv(out_rows, ["N", "method", "size", "density", "fs_bound_shape", "exp_bound_shape"], cfg)
    return EXIT_OK


def cmd_selftest(args, cfg) -> int:
    report = run_acceptance(quick=args.quick)
    emit_json({"command": "selftest", **report}, cfg)
    return EXIT_OK if report["all_passed"] else EXIT_DATA


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ilab",
        description="intersective-polynomial laboratory: sieves, exponential sums, "
        "circle-method arcs, and difference-free set search",
    )
    ap.add_argument("--seed", type=int, default=None, help="seed for all randomized audits/searches")
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--output", default=None, help="output path, '-' for stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intersect", help="intersectivity verdicts")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("check")
    c.add_argument("--poly", required=True)
    c.add_argument("--prime-bound", dest="prime_bound", type=int, default=1000)
    c.add_argument("--depth", type=int, default=8)
    c.set_defaults(fn=cmd_intersect_check)

    p = sub.add_parser("aux", help="auxiliary polynomial families")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("build")
    c.add_argument("--poly", required=True)
    c.add_argument("--d", type=int, required=True)
    c.set_defaults(fn=cmd_aux_build)
    c = psub.add_parser("audit")
    c.add_argument("--poly", required=True)
    c.add_argument("--dmax", type=int, required=True)
    c.set_defaults(fn=cmd_aux_audit)

    p = sub.add_parser("sieve", help="derivative-root sieve")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("table")
    c.add_argument("--poly", required=True)
    c.add_argument("--Y", type=float, required=True)
    c.set_defaults(fn=cmd_sieve_table)
    c = psub.add_parser("count")
    c.add_argument("--poly", required=True)
    c.add_argument("--Y", type=float, required=True)
    c.add_argument("--X", type=int, required=True)
    c.add_argument("--compare", action="store_true")
    c.set_defaults(fn=cmd_sieve_count)

    p = sub.add_parser("expsum", help="sieved exponential sums")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("complete")
    c.add_argument("--poly", required=True)
    c.add_argument("-a", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.add_argument("--sieve", type=float, default=None, help="sieve cutoff Y")
    c.set_defaults(fn=cmd_expsum_complete)
    c = psub.add_parser("audit-sqrt")
    c.add_argument("--poly", required=True)
    c.add_argument("--qmax", type=int, required=True)
    c.add_argument("--Y", type=float, required=True)
    c.add_argument("--csv", default=None)
    c.set_defaults(fn=cmd_expsum_audit_sqrt)
    c = psub.add_parser("major")
    c.add_argument("--poly", required=True)
    c.add_argument("-a", type=int, required=True)
    c.add_argument("-q", type=int, required=True)
    c.add_argument("--beta", type=float, default=0.0)
    c.add_argument("--X", type=int, required=True)
    c.add_argument("--Y", type=float, required=True)
    c.set_defaults(fn=cmd_expsum_major)
    c = psub.add_parser("moment")
    c.add_argument("--poly", required=True)
    c.add_argument("--L", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--Y", type=float, required=True)
    c.set_defaults(fn=cmd_expsum_moment)

    p = sub.add_parser("circle", help="discrete circle method")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("dft")
    c.add_argument("--set", required=True)
    c.add_argument("--N", type=int, default=None)
    c.set_defaults(fn=cmd_circle_dft)
    c = psub.add_parser("arcs")
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--K", type=float, required=True)
    c.add_argument("--Q", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.set_defaults(fn=cmd_circle_arcs)
    c = psub.add_parser("increment")
    c.add_argument("--set", required=True)
    c.add_argument("--L", type=int, default=None)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--K", type=float, required=True)
    c.add_argument("--theta", type=float, required=True)
    c.set_defaults(fn=cmd_circle_increment)

    p = sub.add_parser("sets", help="difference-free set workbench")
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("verify")
    c.add_argument("--gens", required=True, help='generator list, e.g. "x^2;x^3"')
    c.add_argument("--set", required=True)
    c.add_argument("--N", type=int, default=None)
    c.set_defaults(fn=cmd_sets_verify)
    c = psub.add_parser("greedy")
    c.add_argument("--gens", required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--save", default=None, help="write the set as DFSET1")
    c.set_defaults(fn=cmd_sets_greedy)
    c = psub.add_parser("trivial")
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--save", default=None)
    c.set_defaults(fn=cmd_sets_trivial)
    c = psub.add_parser("search")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--mode", choices=("exhaustive", "branch_bound"), default="branch_bound")
    c.add_argument("--budget", type=int, default=10**9)
    c.add_argument("--target", type=int, default=None)
    c.set_defaults(fn=cmd_sets_search)
    c = psub.add_parser("ruzsa")
    c.add_argument("--B", required=True, help='modular set, e.g. "0,2"')
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--save", default=None)
    c.set_defaults(fn=cmd_sets_ruzsa)
    c = psub.add_parser("table")
    c.add_argument("--gens", required=True)
    c.add_argument("--Ns", required=True, help='comma list, e.g. "1000,10000"')
    c.add_argument("--methods", default="greedy,trivial")
    c.set_defaults(fn=cmd_sets_table)

    c = sub.add_parser("selftest", help="run the acceptance suite")
    c.add_argument("--quick", action="store_true")
    c.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return args.fn(args, cfg)
    except (ResourceLimit, MemoryError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
