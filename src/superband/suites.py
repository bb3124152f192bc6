"""Deterministic verification suites behind ``superband verify``.

Each suite draws all of its random instances from one seeded generator
(``random.Random(f"{seed}:{name}")``), evaluates a fixed battery of labeled
identity checks, and reports one pass/fail line per label.  A label passes
only if it held on every instance.  Its first counterexample is kept as the
raw value and serialized only when the report is assembled, in the same JSON
form the command line accepts, so failures can be replayed through
``parse_input``.  Each value a sample's checks share is computed once.  The
random draws mirror ``random.Random`` (see ``randgen``).  Reports carry no
timing, which keeps the JSON output byte-identical for identical
configurations.

``run_suite`` with ``suite="all"`` spreads the six suites over the CPUs this
process may run on (``os.sched_getaffinity``): it forks one helper per
further CPU, and each process claims the next suite until none is left.
Since every suite has its own generator, the report is byte-identical to a
run on one CPU; the CPU time of a run can exceed its wall time.  With one
CPU, without ``os.fork``, or for a single suite, everything runs in the
calling process.
"""

import os
import pickle
import random
import signal
from collections import namedtuple
from fractions import Fraction

from .algebra import annihilator_odd, create_algebra
from .analysis import (
    band_component_system_check,
    derivative_tail,
    equivalence_report,
    n_differential_defect,
    n_functional_residual,
    random_band_components,
)
from .config import SUITES, SuiteConfig
from .evolution import (
    LaurentMatrix,
    cauchy_defect,
    commutativity_obstruction,
    laplace,
    moving_time_check,
    orbit,
    resolvent_defect,
    resolvent_tail,
)
from .families import (
    ParamSuperMatrix,
    cayley_table_verify,
    commutator,
    differential_sequence,
    generator_of,
    in_var,
    intertwiner_check,
    inverse_relations_check,
    make_family,
    matrix_exp_nilpotent,
    nilpotent_time_commute_check,
    smoothing,
)
from .gamma import (
    antitriangle_product_blocks,
    chain_product_verify,
    idempotent_strong_check,
    random_strong_family,
    strong_gamma_check,
)
from .poly import GrassmannPoly, LaurentScalar
from .randgen import (
    random_element,
    random_nonzero_odd,
    random_supermatrix,
    random_supervector,
)
from .serialize import to_obj
from .supermatrix import (
    SuperMatrix,
    SuperVector,
    ber_parts,
    berezinian,
    classify_reduction,
)

_SHAPES = ((1, 1), (1, 2), (2, 2))


class _Battery:
    """Accumulates per-label verdicts across random instances.

    A label maps to None while it holds and to ``(witness,)`` from its first
    failure on; the witness is kept as the raw value and serialized only
    when the report is assembled.
    """

    def __init__(self):
        self._results = {}

    def record(self, label, ok, witness=None):
        if ok:
            self._results.setdefault(label, None)
        elif self._results.get(label) is None:
            self._results[label] = (witness,)

    def checks(self):
        out = []
        for label in sorted(self._results):
            failed = self._results[label]
            entry = {"label": label, "passed": failed is None}
            if failed is not None and failed[0] is not None:
                entry["counterexample"] = to_obj(failed[0])
            out.append(entry)
        return out


# ---------------------------------------------------------------------------
# the block-coupling check
# ---------------------------------------------------------------------------


def _random_antitriangle(rng, ctx, p, q):
    zero_a = [[ctx.zero()] * p for _ in range(p)]
    g = [[random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(q)]
         for _ in range(p)]
    d = [[random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(p)]
         for _ in range(q)]
    bb = [[random_element(rng, ctx, parity="even", max_terms=2) for _ in range(q)]
          for _ in range(q)]
    return SuperMatrix.from_blocks(zero_a, g, d, bb)


# ---------------------------------------------------------------------------
# the six suites
# ---------------------------------------------------------------------------


def _algebra_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    ann_every = max(1, cfg.samples // 10)
    for i in range(cfg.samples):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        z = random_element(rng, ctx)
        b.record("assoc", (x * y) * z == x * (y * z), x)
        b.record("distrib", x * (y + z) == x * y + x * z, x)
        xo = random_element(rng, ctx, parity="odd")
        yo = random_element(rng, ctx, parity="odd")
        e = random_element(rng, ctx, parity="even")
        b.record("anticomm", xo * yo == -(yo * xo), xo)
        b.record("oddsq", (xo * xo).is_zero(), xo)
        b.record("central", e * x == x * e, e)
        b.record(
            "grading",
            (xo * yo).is_even() and (e * xo).is_odd() and (e * e).is_even(),
            xo,
        )
        b.record("body", (x * y).body() == x.body() * y.body(), x)
        u = random_element(rng, ctx, body=rng.choice([-3, -2, -1, 1, 2, 3]))
        inv = u.inverse()
        b.record("inv", u * inv == ctx.one() and inv * u == ctx.one(), u)
        soul = x.soul()
        power = ctx.one()
        for _ in range(ctx.n + 1):
            power = power * soul
        b.record("nilp", power.is_zero(), x)
        if i % ann_every == 0:
            alpha = random_nonzero_odd(rng, ctx)
            ann = annihilator_odd([alpha])
            sound = all(
                (alpha * v).is_zero() and (v * alpha).is_zero() for v in ann.basis
            )
            b.record("ann_sound", sound, alpha)
            complete = True
            for idx in ctx.odd_monomials():
                mono = ctx.monomial(idx)
                if (alpha * mono).is_zero() and not ann.contains(mono):
                    complete = False
            combo = ctx.zero()
            for v in ann.basis:
                combo = combo + v * ctx.scalar(rng.randint(-3, 3))
            complete = complete and ann.contains(combo)
            b.record("ann_complete", complete, alpha)
    return b.checks()


def _supermatrix_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    for _ in range(cfg.samples):
        m = random_supermatrix(rng, ctx, 1, 1, invertible_b=True)
        ber = berezinian(m)
        even_ber, odd_ber = ber_parts(m)
        b.record("7a", ber == even_ber + odd_ber, m)
        b.record("b0", (odd_ber * odd_ber).is_zero(), m)
        a, al, be, bb = m.rows[0][0], m.rows[0][1], m.rows[1][0], m.rows[1][1]
        direct = a * bb.inverse() + be * al * (bb * bb).inverse()
        b.record("ber11", ber == direct, m)
        zero = ctx.zero()
        modd = SuperMatrix(1, 1, [[zero, al], [be, bb]])
        meven = SuperMatrix(1, 1, [[a, zero], [zero, bb]])
        expect_even = "odd_reduced" if a.is_zero() else "even_reduced"
        b.record(
            "classify",
            classify_reduction(modd) == "odd_reduced"
            and classify_reduction(meven) == expect_even,
            m,
        )
    return b.checks()


def _gamma_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    for _ in range(max(1, cfg.samples // 4)):
        p, q = _SHAPES[rng.randrange(len(_SHAPES))]
        m = _random_antitriangle(rng, ctx, p, q)
        n = _random_antitriangle(rng, ctx, p, q)
        blocks = antitriangle_product_blocks(m, n)
        b.record("mm", m @ n == SuperMatrix.from_blocks(*blocks), m)
    for i in range(max(1, cfg.samples // 8)):
        p, q = _SHAPES[i % len(_SHAPES)]
        fam = random_strong_family(rng, ctx, p, q, length=rng.randint(2, 5))
        b.record("strong", strong_gamma_check(fam).is_strong)
        report = chain_product_verify(fam)
        b.record("mmn", report.matches_closed_form)
        b.record("bmn", report.ber_matches is not False)
        head = fam[0]
        b.record("idem", idempotent_strong_check(head) == (head @ head == head),
                 head)
    return b.checks()


def _families_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    runs = max(1, cfg.samples // 8)
    table_every = max(1, runs // 4)
    tvar = GrassmannPoly.variable(ctx, "t")
    svar = GrassmannPoly.variable(ctx, "s")
    half_t = tvar * Fraction(1, 2)
    ident = ParamSuperMatrix.identity(ctx, 1, 1)
    for i in range(runs):
        alpha = random_nonzero_odd(rng, ctx)
        p = make_family("P", alpha)
        q = make_family("Q", alpha)
        t_fam = make_family("T", alpha)
        e = make_family("E", alpha)
        a = make_family("A", alpha)
        z = make_family("Z", alpha)
        ps = in_var(p, "s")
        qs = in_var(q, "s")
        ts = in_var(t_fam, "s")
        pp, sp = p @ ps, ps @ p  # P(t)P(s) and P(s)P(t)
        a_t, a_ts = a.scale(tvar), a.scale(tvar - svar)

        b.record("m111", pp == p, alpha)
        b.record("m1q1", q @ qs == qs, alpha)
        b.record("ppp1", pp @ p == p, alpha)
        b.record("pp2", sp @ ps == ps, alpha)
        b.record("qqq1", qs @ q @ qs == qs, alpha)
        b.record("qqq2", q @ qs @ q == q, alpha)
        b.record("qp", q @ ps == e, alpha)
        b.record("ep", p @ e == p and e @ p == e, alpha)
        b.record("eq", q @ e == e and e @ q == q, alpha)
        b.record(
            "pq1",
            p.eval_at({"t": 1}) == q.eval_at({"t": 1}) == e.eval_at({}),
            alpha,
        )
        b.record("paz1", p @ a == z, alpha)
        b.record("paz2", a @ p == a, alpha)
        b.record("ptu", p - ps == a_ts, alpha)
        p0 = ParamSuperMatrix.from_supermatrix(p.eval_at({"t": 0}))
        b.record("pt", p == p0 + a_t, alpha)
        b.record("tpp", commutator(t_fam, ps) == a_t, alpha)
        b.record("pppa", pp - sp == a_ts, alpha)
        gen_p = generator_of(p)
        b.record("exp", matrix_exp_nilpotent(gen_p) == t_fam, alpha)
        gen = ParamSuperMatrix.from_supermatrix(gen_p)
        b.record("pap0", p.derivative("t") == gen @ p, alpha)
        b.record("tat", t_fam.derivative("t") == gen @ t_fam, alpha)
        b.record("pta", gen_p == generator_of(t_fam) == a.eval_at({}), alpha)
        tau = alpha * random_element(rng, ctx, parity="odd", max_terms=2)
        b.record(
            "ta",
            nilpotent_time_commute_check(p, ts, tau, alpha)
            and not nilpotent_time_commute_check(p, ts, 1, alpha),
            alpha,
        )
        smooth_p = smoothing(p)
        b.record("v1", smooth_p == (p + p0).scale(half_t), alpha)
        b.record("v2", smoothing(t_fam) == (t_fam + ident).scale(half_t), alpha)
        seq = differential_sequence(alpha, 3)
        chain = all(seq[k].derivative("t") == seq[k - 1] for k in range(1, 4))
        b.record("ss2", chain and seq[0].derivative("t") == a, alpha)
        b.record("p2", seq[0] == p, alpha)
        b.record("pv", seq[1] == smooth_p, alpha)

        inv = inverse_relations_check(alpha)
        for label in ("ptp", "tpt", "ty", "yp1", "yp2", "yy", "tp1", "tp2"):
            b.record(label, inv[label], alpha)
        sigma = random_nonzero_odd(rng, ctx)
        rho = random_nonzero_odd(rng, ctx)
        uu = random_element(rng, ctx, parity="even", max_terms=2)
        vv = random_element(rng, ctx, parity="even", max_terms=2)
        conn = intertwiner_check(sigma, rho, uu, vv, alpha)
        b.record("tu", conn["tu"], alpha)
        b.record("ut", conn["ut"], alpha)
        b.record("usq", conn["u_squared"], alpha)

        if i % table_every == 0:
            b.record("table", cayley_table_verify(alpha).matches_known, alpha)
    return b.checks()


def _analysis_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    for i in range(max(1, cfg.samples // 8)):
        p, q = _SHAPES[i % len(_SHAPES)]
        comps = random_band_components(rng, ctx, p, q, degree=rng.randint(1, 4))
        fam = comps.family("t")  # the witness, in the form analyze reads
        b.record("kn", band_component_system_check(comps).holds, fam)
        b.record("nsum", n_functional_residual(comps).matches, fam)
        b.record("utail", n_differential_defect(comps) == derivative_tail(comps), fam)
        k0 = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        k1 = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        linear = (
            ParamSuperMatrix.from_supermatrix(k0)
            + ParamSuperMatrix.from_supermatrix(k1).scale(
                GrassmannPoly.variable(ctx, "t")
            )
        )
        b.record("equiv", equivalence_report(linear).agree, linear)
        band_linear = random_band_components(rng, ctx, p, q, degree=1).family("t")
        b.record("equiv", equivalence_report(band_linear).agree, band_linear)
    alpha = ctx.gen(1)
    pos = equivalence_report(make_family("P", alpha))
    neg = equivalence_report(make_family("T", alpha))
    b.record(
        "posneg",
        pos.band and pos.functional and pos.differential
        and not (neg.band or neg.functional or neg.differential),
        alpha,
    )
    return b.checks()


def _expected_resolvents(ctx, alpha):
    one = ctx.one()
    rp = LaurentMatrix(
        1,
        1,
        [
            [LaurentScalar.zero(ctx), LaurentScalar.term(alpha, iz=2)],
            [LaurentScalar.term(alpha, iz=1), LaurentScalar.term(one, iz=1)],
        ],
    )
    rt = LaurentMatrix(
        1,
        1,
        [
            [LaurentScalar.term(one, iz=1), LaurentScalar.term(alpha, iz=2)],
            [LaurentScalar.zero(ctx), LaurentScalar.term(one, iz=1)],
        ],
    )
    return rp, rt


def _resolvent_checks(cfg, rng):
    ctx = create_algebra(cfg.generators)
    b = _Battery()
    for _ in range(max(1, cfg.samples // 4)):
        alpha = random_nonzero_odd(rng, ctx)
        p_fam = make_family("P", alpha)
        t_fam = make_family("T", alpha)
        rp, rt = laplace(p_fam), laplace(t_fam)
        want_rp, want_rt = _expected_resolvents(ctx, alpha)
        b.record("rz", rp == want_rp, alpha)
        b.record("rz1", rt == want_rt, alpha)
        b.record("rrt", resolvent_defect(rt).is_zero(), alpha)
        # A is built from alpha here, not read off P by generator_of
        gen = SuperMatrix(1, 1, [[ctx.zero(), alpha], [ctx.zero(), ctx.zero()]])
        b.record("rra", resolvent_defect(rp) == resolvent_tail(gen), alpha)

        x0 = random_supervector(rng, ctx, 1, 1)
        even0, odd0 = x0.even[0], x0.odd[0]
        xp = orbit(p_fam, x0)
        xt = orbit(t_fam, x0)
        b.record(
            "xx",
            xp.even[0] == GrassmannPoly.term(alpha * odd0, t=1)
            and xp.odd[0] == GrassmannPoly.constant(alpha * even0 + odd0),
            alpha,
        )
        b.record(
            "xxt",
            xt.even[0]
            == GrassmannPoly.constant(even0) + GrassmannPoly.term(alpha * odd0, t=1)
            and xt.odd[0] == GrassmannPoly.constant(odd0),
            alpha,
        )
        pinned = SuperVector([ctx.zero()], [odd0])
        b.record(
            "x0",
            xp.odd[0].degree("t") == 0
            and xt.odd[0].degree("t") == 0
            and orbit(p_fam, pinned) == orbit(t_fam, pinned),
            alpha,
        )
        b.record(
            "xax",
            cauchy_defect(p_fam, x0).is_zero() and cauchy_defect(t_fam, x0).is_zero(),
            alpha,
        )
        b.record(
            "xxp",
            moving_time_check(p_fam) == "moving_time"
            and moving_time_check(t_fam) == "translational",
            alpha,
        )
        sweep = True
        for idx in ctx.odd_monomials():
            mono = ctx.monomial(idx)
            vec = SuperVector([ctx.one()], [mono])
            obstruction = commutativity_obstruction(vec, alpha)
            sweep = sweep and obstruction.is_zero() == (alpha * mono).is_zero()
        b.record("apx", sweep, alpha)
    return b.checks()


_SUITE_FUNCS = {
    "algebra": _algebra_checks,
    "supermatrix": _supermatrix_checks,
    "gamma": _gamma_checks,
    "families": _families_checks,
    "analysis": _analysis_checks,
    "resolvent": _resolvent_checks,
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


class ExitReport(namedtuple("ExitReport", "report")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.report["passed"]

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _checks(cfg, name):
    return _SUITE_FUNCS[name](cfg, random.Random(f"{cfg.seed}:{name}"))


def _claim(cfg, names, claims):
    """Run the suites whose indices this process reads from ``claims``.

    Each byte of the pipe is one index, and a read of one byte hands it to
    exactly one reader.  Claiming stops when the pipe is empty or a suite
    raises; a suite that raised is left out of ``{index: checks}``.
    """
    done = {}
    while True:
        byte = os.read(claims, 1)
        if not byte:
            return done
        try:
            done[byte[0]] = _checks(cfg, names[byte[0]])
        except Exception:
            return done


def _helper_count(suites):
    """Helpers to fork besides this process: one per further CPU, if any."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 0
    return min(len(os.sched_getaffinity(0)), suites) - 1


def _helper(cfg, names, claims, out):
    """Body of a forked helper: claim suites, pickle ``{index: checks}`` to
    ``out``, and leave with ``os._exit`` whatever happens."""
    code = 1
    try:
        done = _claim(cfg, names, claims)
        with os.fdopen(out, "wb") as f:
            pickle.dump(done, f, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _all_checks(cfg, names):
    """The checks of every named suite, in order, computed on up to one
    process per available CPU.

    Each suite draws only from its own seeded generator, so which process
    runs it changes no byte.  Helpers are forked after every import, from a
    process that starts no thread.  A suite that a helper does not report
    (it raised, or the helper died) runs again here, in order, so the first
    failing suite raises exactly as in a sequential run.
    """
    claims, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))
    os.close(feed)
    helpers = {}  # pid -> read end of the helper's result pipe
    sent, status = {}, {}
    try:
        for _ in range(_helper_count(len(names))):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: claim the rest here
                os.close(out_r)
                os.close(out_w)
                break
            if not pid:
                _helper(cfg, names, claims, out_w)
            os.close(out_w)
            helpers[pid] = out_r
        done = _claim(cfg, names, claims)
        for pid, out_r in helpers.items():
            with open(out_r, "rb", closefd=False) as f:
                sent[pid] = f.read()
    finally:
        os.close(claims)
        for pid, out_r in helpers.items():
            os.close(out_r)
            if pid not in sent:
                os.kill(pid, signal.SIGKILL)
            status[pid] = os.waitpid(pid, 0)[1]
    for pid, data in sent.items():
        if status[pid] == 0:
            done.update(pickle.loads(data))
    return [done[i] if i in done else _checks(cfg, name) for i, name in enumerate(names)]


def run_suite(cfg: SuiteConfig) -> ExitReport:
    """Run the configured suite(s) and assemble the deterministic report."""
    cfg.validate()
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    suites_out = [
        {"checks": checks, "name": name, "passed": all(c["passed"] for c in checks)}
        for name, checks in zip(names, _all_checks(cfg, names))
    ]
    report = {
        "config": {
            "generators": cfg.generators,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "suite": cfg.suite,
        },
        "passed": all(s["passed"] for s in suites_out),
        "suites": suites_out,
    }
    return ExitReport(report)


def render_text(report: dict) -> str:
    """Human-readable listing: one line per identity label."""
    lines = []
    cfg = report["config"]
    lines.append(
        f"superband verify: suite={cfg['suite']} generators={cfg['generators']}"
        f" seed={cfg['seed']} samples={cfg['samples']}"
    )
    for suite in report["suites"]:
        lines.append(f"[{suite['name']}]")
        for check in suite["checks"]:
            verdict = "pass" if check["passed"] else "FAIL"
            lines.append(f"  {check['label']}: {verdict}")
    total = sum(len(s["checks"]) for s in report["suites"])
    lines.append(
        f"result: {'pass' if report['passed'] else 'FAIL'} ({total} checks)"
    )
    return "\n".join(lines)
