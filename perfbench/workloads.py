"""The four benchmark workloads: inputs from a seed, one round of calls into
``ilab``'s public functions, and the checks each output must pass.

A round is every operation of a workload once.  Each call goes through
``Round.op``, which wraps it in a span named ``<layer>.<function>`` and keeps
its outcome; checks and counters run in ``Round.finish``, after the timed
region.  A failure is an exception, an unexpected exit code, or an output
that fails its check.  Failures that match a known, named defect of the
program are counted like any other but attributed to that defect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import ilab.cli
from ilab.auxiliary import AuxiliaryFamily, content_bound_audit
from ilab.circle import Progression, arc_mass, dft_indicator, extract_progression
from ilab.diffsets import (
    DiffFreeInstance,
    greedy,
    modular_search,
    ruzsa_lift,
    trivial_multiples,
    verify,
    verify_modular,
)
from ilab.expsum import RationalPoint, major_arc_asymptotic, moment_sum, sqrt_cancel_audit
from ilab.padic import is_intersective
from ilab.poly import parse_poly
from ilab.setio import load_set, save_dfset
from ilab.sieve import SieveProfile, brun_compare

# Defects of the program that a workload's inputs are known to hit.  They
# are counted as failures and never filtered out of the inputs.  An op that
# expects one names it; a failure is attributed to the defect only when the
# op named it and the failure text matches.  Any other failure makes the
# run incorrect.
KNOWN_DEFECTS = {
    "expsum-major-numpy-bool": {
        "what": "expsum major with beta != 0 raises TypeError: vdc_ok is a "
        "numpy.bool_, which json cannot serialize",
        "reproduce": "ilab expsum major --poly x^2 -a 1 -q 3 --beta 0.0001 --X 1000 --Y 10",
        "match": "TypeError: Object of type bool is not JSON serializable",
    },
}


# -- rounds ------------------------------------------------------------------


@dataclass
class Outcome:
    name: str
    result: Any
    error: Optional[BaseException]
    check: Optional[Callable[[Any], Optional[str]]]
    counters: Optional[Callable[[Any], dict]]
    span: Optional[dict]
    defect: Optional[str]
    timer: Optional[str]


@dataclass
class Round:
    """One round's calls under a tracer (or a null tracer when tracing is off)."""

    tracer: Any
    outcomes: list[Outcome] = field(default_factory=list)

    def op(self, name, fn, *args, check=None, counters=None, timer=None, defect=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span; None when it raised.

        ``counters`` maps the result to counter increments, ``timer`` names the
        per-layer time metric the call's duration adds to, and ``defect``
        names the entry of KNOWN_DEFECTS this input is known to hit.
        """
        with self.tracer.span(name) as rec:
            try:
                result, error = fn(*args, **kwargs), None
            except Exception as exc:  # every failure is counted, none is fatal
                result, error = None, exc
        self.outcomes.append(Outcome(name, result, error, check, counters, rec, defect, timer))
        return result

    def finish(self) -> list[dict]:
        """Run checks and counters (outside the timed region); return failures."""
        failures = []
        for o in self.outcomes:
            layer = o.name.split(".", 1)[0]
            detail = None
            if o.error is not None:
                detail = f"{type(o.error).__name__}: {o.error}"
            elif o.check is not None:
                try:
                    detail = o.check(o.result)
                except Exception as exc:  # a check that cannot run is a failed check
                    detail = f"check raised {type(exc).__name__}: {exc}"
            counters = {}
            if detail is None:
                if o.counters is not None:
                    counters = o.counters(o.result)
            else:
                counters = {f"{layer}.errors": 1}
                known = o.defect if o.defect and KNOWN_DEFECTS[o.defect]["match"] in detail else None
                failures.append({"op": o.name, "detail": detail[:300], "defect": known})
            if o.span is not None:
                if o.timer is not None:
                    counters[o.timer] = o.span["dur_ns"] / 1e9
                o.span["counters"].update(counters)
        return failures


def _fail_unless(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def primes_upto(n: int) -> list[int]:
    """Trial-division prime list, independent of ilab.arith."""
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


# -- certify -----------------------------------------------------------------

QUINTIC = "(x^3-19)*(x^2+x+1)"
SEXTIC = "(x^2-13)*(x^2-17)*(x^2-221)"


class Certify:
    """A few large exact computations: certify one polynomial deeply."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        # The inputs are the paper's fixed objects; the seed selects nothing.
        self.quintic = parse_poly(QUINTIC)
        self.sextic = parse_poly(SEXTIC)
        self.x2 = parse_poly("x^2")
        if tiny:
            self.B, self.d_q, self.d_s, self.Y, self.X = 200, 100, 50, 20, 10**5
        else:
            self.B, self.d_q, self.d_s, self.Y, self.X = 2 * 10**4, 10**4, 5 * 10**3, 66, 10**7
        self.tiny = tiny
        self.n_primes = len(primes_upto(self.B))

    def _verdict_check(self, h):
        def check(v):
            if v.status != "intersective":
                return f"status {v.status}, expected intersective"
            if len(v.certs) != self.n_primes:
                return f"{len(v.certs)} certificates, expected pi(B) = {self.n_primes}"
            bad = [p for p, c in v.certs.items() if not c.verify(h)]
            return _fail_unless(not bad, f"certificates fail RootCert.verify at p in {bad[:5]}")

        return check

    def _content_check(self, expected):
        def check(rep):
            if self.tiny:
                return _fail_unless(rep.max_content >= 1, "max_content < 1")
            return _fail_unless(
                rep.max_content == expected, f"max_content {rep.max_content}, expected {expected}"
            )

        return check

    def round(self, r: Round) -> None:
        verdict_counters = lambda v: {"padic.calls": 1, "padic.primes_certified": len(v.certs)}
        r.op("padic.is_intersective", is_intersective, self.quintic, self.B, 6,
             check=self._verdict_check(self.quintic), counters=verdict_counters)
        # at depth 8 the sextic is unknown at p = 2: v_2(f'(z)) = 5 needs j >= 11
        r.op("padic.is_intersective", is_intersective, self.sextic, self.B, 12,
             check=self._verdict_check(self.sextic), counters=verdict_counters)
        r.op("auxiliary.content_bound_audit",
             lambda: content_bound_audit(AuxiliaryFamily(self.quintic), self.d_q),
             check=self._content_check(9),
             counters=lambda rep: {"auxiliary.d_audited": rep.d_max})
        r.op("auxiliary.content_bound_audit",
             lambda: content_bound_audit(AuxiliaryFamily(self.sextic, depth=12), self.d_s),
             check=self._content_check(32),
             counters=lambda rep: {"auxiliary.d_audited": rep.d_max})
        profile = r.op("sieve.build", SieveProfile.build, self.x2, self.Y,
                       timer="sieve.build_s")
        if profile is None:
            return
        leaves = math.prod(1 + j for _, j, _ in profile.table.values())

        def brun_check(cmp):
            if self.tiny:
                return _fail_unless(0 < cmp.exact <= self.X, f"exact count {cmp.exact} out of range")
            return _fail_unless(cmp.exact == 1315593, f"exact count {cmp.exact}, expected 1315593")

        r.op("sieve.brun_compare", brun_compare, profile, self.X, check=brun_check,
             timer="sieve.count_s", counters=lambda _: {"sieve.ie_leaves": leaves})


# -- harmonic ----------------------------------------------------------------


class Harmonic:
    """Float-at-the-edge analysis on large arrays."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.x2, self.x3 = parse_poly("x^2"), parse_poly("x^3")
        if tiny:
            self.qmax, self.X0, self.X1, self.L, self.N = 30, 3 * 10**5, 10**4, 10**4, 2**12
        else:
            self.qmax, self.X0, self.X1, self.L, self.N = 1000, 3 * 10**7, 10**6, 10**6, 2**21
        self.members = list(range(7, self.N + 1, 7))
        self.member_set = set(self.members)
        self.path = os.path.join(workdir, "multiples7.dfset")

    def round(self, r: Round) -> None:
        def audit_check(out):
            rows, _ = out
            seen = {row["q"] for row in rows}
            if seen != set(range(1, self.qmax + 1)):
                return "audit is missing some q in [1, q_max]"
            over = [row for row in rows if not row["abs_sum"] <= row["q"] * (1 + 1e-12)]
            return _fail_unless(not over, f"{len(over)} rows exceed the trivial bound |S| <= q")

        r.op("expsum.sqrt_cancel_audit", sqrt_cancel_audit, self.x3, self.qmax, 100,
             seed=self.seed, check=audit_check,
             timer="expsum.audit_s", counters=lambda out: {"expsum.audit_rows": len(out[0])})

        p10 = r.op("sieve.build", SieveProfile.build, self.x2, 10, timer="sieve.build_s")
        if p10 is not None:
            third = RationalPoint(1, 3)
            r.op("expsum.major_arc_asymptotic", major_arc_asymptotic,
                 self.x2, third, 0.0, self.X0, p10,
                 check=lambda m: _fail_unless(m.rel_err <= 0.05, f"beta=0 rel_err {m.rel_err} > 5%"),
                 timer="expsum.major_s")
            # |sum g'(n) e(...)| <= sum_{n <= X} 2n = X (X + 1) for g = x^2
            trivial = self.X1 * (self.X1 + 1)
            r.op("expsum.major_arc_asymptotic", major_arc_asymptotic,
                 self.x2, third, 1e-9, self.X1, p10,
                 check=lambda m: _fail_unless(
                     math.isfinite(abs(m.actual)) and abs(m.actual) <= trivial * (1 + 1e-9),
                     f"real-beta Weyl sum {abs(m.actual)} beyond the trivial bound"),
                 timer="expsum.major_beta_s")
            r.op("expsum.moment_sum", moment_sum, self.x2, self.L, 6, p10,
                 check=lambda v: _fail_unless(math.isfinite(v) and v > 0, f"moment {v}"),
                 timer="expsum.moment_s")

        size = lambda _res: {"setio.bytes": os.path.getsize(self.path)}
        r.op("setio.save_dfset", save_dfset, self.path, self.members, self.N, counters=size)
        r.op("setio.load_set", load_set, self.path,
             check=lambda out: _fail_unless(out == (self.members, self.N),
                                            "set-file round trip differs"),
             counters=size)

        r.op("circle.extract_progression", extract_progression, self.member_set, self.N, 7, 1, 0.5,
             check=lambda pr: _fail_unless(
                 isinstance(pr, Progression) and pr.verify(self.member_set, self.N),
                 f"no verified progression: {pr!r}"[:200]),
             timer="circle.increment_s", counters=lambda _: {"circle.fft_points": self.N})

        def plancherel_check(fd):
            lhs, rhs = fd.plancherel()
            return _fail_unless(abs(lhs - rhs) <= 1e-8, f"Plancherel {lhs} != {rhs}")

        fd = r.op("circle.dft_indicator", dft_indicator, self.members, self.N,
                  check=plancherel_check,
                  timer="circle.dft_s", counters=lambda _: {"circle.fft_points": self.N})
        if fd is None:
            return
        sigma = len(self.members) / self.N
        for q in range(1, 21):
            r.op("circle.arc_mass", arc_mass, fd, q, 1,
                 check=lambda m: _fail_unless(0 <= m <= sigma * (1 + 1e-9),
                                              f"arc mass {m} outside [0, sigma]"))


# -- search ------------------------------------------------------------------


def _kth_power_free(B, q: int, k: int) -> bool:
    """No two elements of B differ mod q by a nonzero k-th power residue."""
    powers = {pow(x, k, q) for x in range(q)} - {0}
    return all((a - b) % q not in powers for a in B for b in B if a != b)


class Search:
    """Pure-Python int-bitset search on modular Cayley graphs."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.x2 = parse_poly("x^2")
        # (q, node budget, target, size the result must reach, must exhaust)
        if tiny:
            self.searches = [(13, 10**9, None, 3, True), (17, 10**9, None, 3, True),
                             (29, 2000, None, 1, False), (37, 2000, None, 1, False),
                             (41, 3000, 13, 1, False)]
            self.N, self.N_triv, self.greedy_size = 10**4, 10**4, None
        else:
            # known optima 7 (q = 65) and 5 (q = 101); the budgeted sizes are
            # the seed commit's, and q = 205 is the Lewko instance (12)
            self.searches = [(65, 10**9, None, 7, True), (101, 10**9, None, 5, True),
                             (85, 2 * 10**5, None, 7, False), (145, 2 * 10**5, None, 10, False),
                             (205, 3 * 10**5, 13, 12, False)]
            self.N, self.N_triv, self.greedy_size = 2 * 10**6, 10**6, 22547

    def round(self, r: Round) -> None:
        def search_counters(res):
            gap = 0 if res.optimal else res.upper_bound - res.size
            return {"diffsets.nodes": res.nodes, "diffsets.bound_gap": gap}

        def search_check(q, at_least, exhaust):
            squares = frozenset(pow(x, 2, q) for x in range(q)) - {0}

            def check(res):
                if not (_kth_power_free(res.best, q, 2) and verify_modular(res.best, q, squares)):
                    return f"q={q}: returned set is not square-difference-free"
                if len(res.best) != res.size or res.size < at_least:
                    return f"q={q}: size {res.size} (|best| {len(res.best)}), expected >= {at_least}"
                if exhaust and not (res.optimal and res.size == at_least):
                    return f"q={q}: exhaustive search ended at {res.size}, optimal={res.optimal}"
                return None

            return check

        best = None
        for q, budget, target, at_least, exhaust in self.searches:
            best = r.op("diffsets.modular_search", modular_search, q, 2, budget=budget,
                        target=target, seed=self.seed,
                        check=search_check(q, at_least, exhaust), counters=search_counters,
                        timer="diffsets.search_s")
        lift_q = self.searches[-1][0]

        inst = r.op("diffsets.greedy", greedy, self.N, [self.x2],
                    check=lambda g: _fail_unless(
                        self.greedy_size is None or len(g) == self.greedy_size,
                        f"greedy size {len(g)}, expected {self.greedy_size}"),
                    timer="diffsets.construct_s")
        if inst is not None:
            r.op("diffsets.verify", verify, inst,
                 check=lambda v: _fail_unless(v is None, f"greedy set has a violation: {v}"),
                 timer="diffsets.verify_s")
        if best is not None:
            r.op("diffsets.ruzsa_lift", ruzsa_lift, best.best, lift_q, 2, self.N,
                 check=lambda out: _fail_unless(
                     isinstance(out, DiffFreeInstance) and len(out) > 0
                     and 1 <= min(out.members) and max(out.members) <= self.N,
                     f"lift rejected or out of range: {type(out).__name__}"),
                 timer="diffsets.construct_s")

        def trivial_check(inst):
            members = sorted(inst.members)
            p = members[0]
            ok = (members == [x * p for x in range(1, p + 1)]
                  and p * p <= self.N_triv < (2 * p) ** 2 and p in primes_upto(p))
            return _fail_unless(ok, f"trivial set is not {{x p : x <= p}} for a prime p={p}")

        r.op("diffsets.trivial_multiples", trivial_multiples, self.N_triv, 2,
             check=trivial_check, timer="diffsets.construct_s")


# -- scan --------------------------------------------------------------------


def _strict_json(text: str):
    def reject(const):
        raise ValueError(f"non-finite constant {const} in JSON output")

    return json.loads(text, parse_constant=reject)


def _poly_text(coeffs: list[int]) -> str:
    """Descending-power text such as 3*x^3-x+7 (coeffs[i] is the x^i coefficient)."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        mag = str(abs(c)) if (abs(c) != 1 or i == 0) else ""
        body = f"{mag}*{mono}" if mag and mono else (mag or mono)
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _poly_value_bound(coeffs: list[int], X: int) -> int:
    """sum_{n <= X} |g'(n)| <= X * sum_i i |c_i| X^(i-1)."""
    return X * sum(i * abs(c) * X ** (i - 1) for i, c in enumerate(coeffs) if i)


# the subcommands of the scan mix, as they appear in span names (cli.<sub>)
CLI_SUBS = ["intersect_check", "sieve_table", "sieve_count", "expsum_complete",
            "circle_arcs", "aux_audit", "expsum_major", "sets_search", "sets_greedy"]


@dataclass
class ScanCall:
    sub: str
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    defect: Optional[str] = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """ilab.cli.main(argv) in-process; (exit code, captured stdout, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ilab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Scan:
    """Many small calls through the CLI entry point for a seeded polynomial family."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = random.Random(seed)
        self.calls: list[ScanCall] = []
        n_polys = 6 if tiny else 150
        self.primes300 = len(primes_upto(300))
        self.primes40 = set(primes_upto(40))
        self.n_major = 0

        def deal(kinds: list[str], n: int) -> list[str]:
            """n extra calls, the kinds in equal shares (so every seed does the
            same mix of work), in seeded order."""
            deck = (kinds * (n // len(kinds) + 1))[:n]
            rng.shuffle(deck)
            return deck

        shared = ["circle_arcs", "expsum_major", "sets_search", "sets_greedy"]
        # aux audit needs a root at every prime: intersective polynomials only
        extras = {True: deal(shared + ["aux_audit"], (n_polys + 1) // 2),
                  False: deal(shared, n_polys // 2)}
        for i in range(n_polys):
            rational = i % 2 == 0
            if rational:
                # (x - r) * g: a rational root makes it intersective
                r = rng.randint(-9, 9)
                g = [rng.randint(-9, 9) for _ in range(rng.choice([1, 2]))] + [rng.randint(1, 3)]
                coeffs = [0] * (len(g) + 1)
                for k, c in enumerate(g):
                    coeffs[k] -= r * c
                    coeffs[k + 1] += c
                text = f"({_poly_text([-r, 1])})*({_poly_text(g)})"
            else:
                coeffs = [rng.randint(-20, 20) for _ in range(rng.choice([2, 3]))] + [rng.randint(1, 5)]
                text = _poly_text(coeffs)
            self._add_fixed(text, coeffs, rational, rng)
            getattr(self, "_add_" + extras[rational].pop())(text, coeffs, rng)

    def _add(self, sub: str, argv: list[str], check, defect=None) -> None:
        self.calls.append(ScanCall(sub, argv, check, defect))

    def _json_call(self, command: str, semantic, expected_exit=lambda payload: 0):
        def check(code: int, out: str) -> Optional[str]:
            if not out:
                return f"exit code {code} with no output"
            payload = _strict_json(out)
            if payload.get("command") != command:
                return f"command field {payload.get('command')!r}, expected {command}"
            if code != expected_exit(payload):
                return f"exit code {code}, expected {expected_exit(payload)}"
            return semantic(payload)

        return check

    def _add_fixed(self, text, coeffs, rational, rng) -> None:
        def intersect(payload):
            status = payload.get("status")
            if rational and status != "intersective":
                return f"rational-root polynomial reported {status}"
            if status == "intersective" and len(payload["certs"]) != self.primes300:
                return f"{len(payload['certs'])} certificates, expected pi(300) = {self.primes300}"
            return _fail_unless(status in ("intersective", "not_intersective", "unknown"), f"status {status}")

        self._add("intersect_check",
                  ["intersect", "check", f"--poly={text}", "--prime-bound", "300", "--depth", "6"],
                  self._json_call("intersect.check", intersect,
                                  lambda p: 1 if p.get("status") == "not_intersective" else 0))

        def table(payload):
            if {int(p) for p in payload["table"]} != self.primes40:
                return "sieve table does not cover exactly the primes <= 40"
            return _fail_unless(0 < payload["density"] <= 1, f"density {payload['density']}")

        self._add("sieve_table", ["sieve", "table", f"--poly={text}", "--Y", "40"],
                  self._json_call("sieve.table", table))

        X = 10**6

        def count(code, out):
            rows = list(csv.DictReader(io.StringIO(out)))
            if code != 0 or len(rows) != 1:
                return f"exit code {code}, {len(rows)} CSV rows"
            row = rows[0]
            values = [float(row[k]) for k in ("X", "exact", "main", "rel_err")]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite CSV field in {row}"
            return _fail_unless(0 <= int(row["exact"]) <= X, f"exact count {row['exact']} outside [0, X]")

        self._add("sieve_count", ["sieve", "count", f"--poly={text}", "--Y", "30", "--X", str(X)], count)

        q = rng.randint(2, 400)
        a = rng.choice([x for x in range(1, q) if math.gcd(x, q) == 1])

        def complete(payload):
            n = payload["n_terms"]
            if not 0 <= n <= q:
                return f"n_terms {n} outside [0, q]"
            return _fail_unless(payload["abs"] <= n * (1 + 1e-9) + 1e-9, f"|S| {payload['abs']} > n_terms {n}")

        self._add("expsum_complete",
                  ["expsum", "complete", f"--poly={text}", "-a", str(a), "-q", str(q), "--sieve", "20"],
                  self._json_call("expsum.complete", complete))

    def _add_circle_arcs(self, text, coeffs, rng) -> None:
        N = rng.randint(10**3, 10**6)
        K = rng.choice([0.5, 1.0, 2.0])
        Q = rng.randint(2, 30)
        t = rng.randrange(N)

        def arcs(payload):
            kind = payload["kind"]
            if kind == "zero":
                return _fail_unless(t == 0, f"t={t} labelled zero")
            if kind == "major":
                a, qq = payload["a"], payload["q"]
                ok = 1 <= a <= qq <= Q and math.gcd(a, qq) == 1 and abs(t * qq - a * N) < Fraction(K) * qq
                return _fail_unless(ok, f"t={t} is not on the major arc {a}/{qq}")
            return _fail_unless(kind == "minor", f"kind {kind}")

        self._add("circle_arcs",
                  ["circle", "arcs", "--N", str(N), "--K", str(K), "--Q", str(Q), "--t", str(t)],
                  self._json_call("circle.arcs", arcs))

    def _add_aux_audit(self, text, coeffs, rng) -> None:
        self._add("aux_audit", ["aux", "audit", f"--poly={text}", "--dmax", "200"],
                  self._json_call("aux.audit", lambda p: _fail_unless(
                      p["max_content"] >= 1 and p["max_ratio"] <= 1 + 1e-12,
                      f"content {p['max_content']} ratio {p['max_ratio']}")))

    def _add_expsum_major(self, text, coeffs, rng) -> None:
        q = rng.randint(1, 6)
        a = next(x for x in range(1, q + 1) if math.gcd(x, q) == 1)
        # every other call takes the real-beta path
        beta = (0.0, 1e-9)[self.n_major % 2]
        self.n_major += 1
        X = 5 * 10**4
        bound = _poly_value_bound(coeffs, X)

        def major(payload):
            actual = math.hypot(payload["actual_re"], payload["actual_im"])
            return _fail_unless(actual <= bound * (1 + 1e-9), f"|actual| {actual} > trivial bound {bound}")

        self._add("expsum_major",
                  ["expsum", "major", f"--poly={text}", "-a", str(a), "-q", str(q),
                   "--beta", repr(beta), "--X", str(X), "--Y", "10"],
                  self._json_call("expsum.major", major),
                  defect="expsum-major-numpy-bool" if beta else None)

    def _add_sets_search(self, text, coeffs, rng) -> None:
        q = rng.randint(8, 32)
        k = rng.choice([2, 3])

        def search(payload):
            best = payload["best"]
            if not payload["optimal"] or len(best) != payload["size"]:
                return f"exhaustive search at q={q} not optimal or size mismatch"
            return _fail_unless(_kth_power_free(best, q, k), f"q={q}: set has a forbidden difference")

        self._add("sets_search",
                  ["sets", "search", "--q", str(q), "--k", str(k), "--mode", "exhaustive"],
                  self._json_call("sets.search", search))

    def _add_sets_greedy(self, text, coeffs, rng) -> None:
        N = rng.randint(2000, 20000)
        self._add("sets_greedy", ["sets", "greedy", f"--gens={text}", "--N", str(N)],
                  self._json_call("sets.greedy", lambda p: _fail_unless(
                      1 <= p["size"] <= N and 0 < p["density"] <= 1, f"size {p['size']}")))

    def round(self, r: Round) -> None:
        def check(res, call):
            code, out, err = res
            detail = call.check(code, out)
            return f"{detail}; stderr: {err.strip()[:120]}" if detail and err.strip() else detail

        for call in self.calls:
            r.op(f"cli.{call.sub}", run_cli, call.argv,
                 check=lambda res, call=call: check(res, call), defect=call.defect)


WORKLOADS = {"certify": Certify, "harmonic": Harmonic, "search": Search, "scan": Scan}
