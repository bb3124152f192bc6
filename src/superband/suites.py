"""Deterministic verification suites behind ``superband verify``.

Each suite is a generator that draws all of its random instances from one
seeded generator (``random.Random(f"{seed}:{name}")``) and yields groups
``(witness, {label: verdict, ...})``: one group holds every label checked
on the same witness, the value a failure is reported with (``None`` for
none).  ``run_suite`` returns the report, a dict with one pass/fail line
per label and a ``"passed"`` that holds when every label did.  A label passes only if
it held in every group; a failing label keeps the raw witness of its first
failing group, serialized only when the report is assembled, in the same
JSON form the command line accepts, so failures can be replayed through
``parse_input``.  Each value a sample's checks share is computed once; the
sweeps over every odd monomial take them from ``algebra._odd_elements``, and
the ``ann_complete`` combination is one ``algebra._combination``.  The
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
from fractions import Fraction
from itertools import repeat

from .algebra import _combination, _odd_elements, annihilator_odd, create_algebra
from .analysis import (
    ComponentList,
    band_component_system_check,
    derivative_tail,
    equivalence_report,
    n_differential_defect,
    n_functional_residual,
    random_band_components,
)
from .config import SUITES, SuiteConfig
from .errors import ConfigError
from .evolution import (
    LaurentMatrix,
    cauchy_defect,
    commutativity_obstruction,
    laplace,
    moving_time_check,
    orbit,
    resolvent_defect,
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
_BODIES = (-3, -2, -1, 1, 2, 3)  # the bodies of drawn invertible elements

_SUITE_FUNCS = {}  # suite name -> f(cfg, rng) returning the checks list


def _fold(groups):
    """The sorted checks list of ``(witness, {label: verdict})`` groups.

    A label passes only if it held in every group; a failing label keeps the
    raw witness of its first failing group, serialized here.
    """
    failed = {}  # label -> None while it holds, (witness,) from its first failure
    for witness, verdicts in groups:
        for label, ok in verdicts.items():
            if ok:
                failed.setdefault(label, None)
            elif failed.get(label) is None:
                failed[label] = (witness,)
    out = []
    for label in sorted(failed):
        entry = {"label": label, "passed": failed[label] is None}
        if not entry["passed"] and failed[label][0] is not None:
            entry["counterexample"] = to_obj(failed[label][0])
        out.append(entry)
    return out


def _suite(groups):
    """Register the group generator ``_<name>(ctx, cfg, rng)`` as suite
    ``name``, run on a fresh algebra of ``cfg.generators`` generators."""

    def checks(cfg, rng):
        return _fold(groups(create_algebra(cfg.generators), cfg, rng))

    _SUITE_FUNCS[groups.__name__[1:]] = checks
    return groups


# ---------------------------------------------------------------------------
# the block-coupling check
# ---------------------------------------------------------------------------


def _random_antitriangle(rng, ctx, p, q):
    g = [[random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(q)]
         for _ in range(p)]
    d = [[random_element(rng, ctx, parity="odd", max_terms=2) for _ in range(p)]
         for _ in range(q)]
    bb = [[random_element(rng, ctx, parity="even", max_terms=2) for _ in range(q)]
          for _ in range(q)]
    return SuperMatrix._antitriangle(g, d, bb)


# ---------------------------------------------------------------------------
# the six suites
# ---------------------------------------------------------------------------


@_suite
def _algebra(ctx, cfg, rng):
    ann_every = max(1, cfg.samples // 10)
    assoc_rng = random.Random(f"{cfg.seed}:algebra:assoc")  # leaves rng's draws as they were
    for i in range(cfg.samples):
        x = random_element(rng, ctx)
        y = random_element(rng, ctx)
        z = random_element(rng, ctx)
        xo = random_element(rng, ctx, parity="odd")
        yo = random_element(rng, ctx, parity="odd")
        e = random_element(rng, ctx, parity="even")
        u = random_element(rng, ctx, body=rng.choice(_BODIES))
        yield x, {
            "assoc": (x * y) * z == x * (y * z),
            "distrib": x * (y + z) == x * y + x * z,
            "body": (x * y).body() == x.body() * y.body(),
            "nilp": (x.soul() ** (ctx.n + 1)).is_zero(),
        }
        yield xo, {
            "anticomm": xo * yo == -(yo * xo),
            "oddsq": (xo * xo).is_zero(),
            "grading": (xo * yo).is_even() and (e * xo).is_odd() and (e * e).is_even(),
        }
        yield e, {"central": e * x == x * e}
        inv = u.inverse()
        yield u, {"inv": u * inv == ctx.one() and inv * u == ctx.one()}
        if i % ann_every == 0:
            # with nonzero bodies (a*b)*c is never 0, where a wrong product could hide
            a, b, c = (random_element(assoc_rng, ctx, body=assoc_rng.choice(_BODIES))
                       for _ in range(3))
            yield a, {"assoc": (a * b) * c == a * (b * c)}
            alpha = random_nonzero_odd(rng, ctx)
            ann = annihilator_odd([alpha])
            combo = _combination(ctx, ann.basis, map(rng.randint, repeat(-3), repeat(3)))
            yield alpha, {
                "ann_sound": all(
                    (alpha * v).is_zero() and (v * alpha).is_zero() for v in ann.basis
                ),
                "ann_complete": all(
                    ann.contains(m)
                    for m in _odd_elements(ctx)
                    if (alpha * m).is_zero()
                ) and ann.contains(combo),
            }


@_suite
def _supermatrix(ctx, cfg, rng):
    zero = ctx.zero()
    for _ in range(cfg.samples):
        m = random_supermatrix(rng, ctx, 1, 1, invertible_b=True)
        ber = berezinian(m)
        even_ber, odd_ber = ber_parts(m)
        (a, al), (be, bb) = m.rows
        modd = SuperMatrix._graded(1, 1, [[zero, al], [be, bb]])
        meven = SuperMatrix._graded(1, 1, [[a, zero], [zero, bb]])
        expect_even = "odd_reduced" if a.is_zero() else "even_reduced"
        yield m, {
            "7a": ber == even_ber + odd_ber,
            "b0": (odd_ber * odd_ber).is_zero(),
            "ber11": ber == a * bb.inverse() + be * al * (bb * bb).inverse(),
            "classify": classify_reduction(modd) == "odd_reduced"
            and classify_reduction(meven) == expect_even,
        }


@_suite
def _gamma(ctx, cfg, rng):
    for _ in range(max(1, cfg.samples // 4)):
        p, q = _SHAPES[rng.randrange(len(_SHAPES))]
        m = _random_antitriangle(rng, ctx, p, q)
        n = _random_antitriangle(rng, ctx, p, q)
        blocks = antitriangle_product_blocks(m, n)
        yield m, {"mm": m @ n == SuperMatrix.from_blocks(*blocks)}
    for i in range(max(1, cfg.samples // 8)):
        p, q = _SHAPES[i % len(_SHAPES)]
        fam = random_strong_family(rng, ctx, p, q, length=rng.randint(2, 5))
        strong = strong_gamma_check(fam).is_strong
        report = chain_product_verify(fam)
        yield None, {
            "strong": strong,
            "mmn": report.matches_closed_form,
            "bmn": report.ber_matches is not False,
        }
        # G D = 0 and D G = 0 on a strong head, so [[0, G], [D, I]] is idempotent
        head = fam[0]
        eye = SuperMatrix.identity(ctx, p, q).block_b()
        for m in (head, SuperMatrix._antitriangle(head.block_gamma(), head.block_delta(), eye)):
            yield m, {"idem": idempotent_strong_check(m) == (m @ m == m)}


@_suite
def _families(ctx, cfg, rng):
    runs = max(1, cfg.samples // 8)
    table_every = max(1, runs // 4)
    tvar = GrassmannPoly.variable(ctx, "t")
    svar = GrassmannPoly.variable(ctx, "s")
    half_t = tvar * Fraction(1, 2)
    ident = ParamSuperMatrix.identity(ctx, 1, 1)
    for i in range(runs):
        alpha = random_nonzero_odd(rng, ctx)
        tau = alpha * random_element(rng, ctx, parity="odd", max_terms=2)
        sigma = random_nonzero_odd(rng, ctx)
        rho = random_nonzero_odd(rng, ctx)
        uu = random_element(rng, ctx, parity="even", max_terms=2)
        vv = random_element(rng, ctx, parity="even", max_terms=2)
        p = make_family("P", alpha)
        q = make_family("Q", alpha)
        t_fam = make_family("T", alpha)
        e = make_family("E", alpha)
        a = make_family("A", alpha)
        ps = in_var(p, "s")
        qs = in_var(q, "s")
        ts = in_var(t_fam, "s")
        pp, sp = p @ ps, ps @ p  # P(t)P(s) and P(s)P(t)
        a_t, a_ts = a.scale(tvar), a.scale(tvar - svar)
        p0 = ParamSuperMatrix.from_supermatrix(p.eval_at({"t": 0}))
        gen_p = generator_of(p)
        gen = ParamSuperMatrix.from_supermatrix(gen_p)
        smooth_p = smoothing(p)
        seq = differential_sequence(alpha, 3)
        conn = intertwiner_check(sigma, rho, uu, vv, alpha)
        yield alpha, {
            "m111": pp == p,
            "m1q1": q @ qs == qs,
            "ppp1": pp @ p == p,
            "pp2": sp @ ps == ps,
            "qqq1": qs @ q @ qs == qs,
            "qqq2": q @ qs @ q == q,
            "qp": q @ ps == e,
            "ep": p @ e == p and e @ p == e,
            "eq": q @ e == e and e @ q == q,
            "pq1": p.eval_at({"t": 1}) == q.eval_at({"t": 1}) == e.eval_at({}),
            "paz1": p @ a == make_family("Z", alpha),
            "paz2": a @ p == a,
            "ptu": p - ps == a_ts,
            "pt": p == p0 + a_t,
            "tpp": commutator(t_fam, ps) == a_t,
            "pppa": pp - sp == a_ts,
            "exp": matrix_exp_nilpotent(gen_p) == t_fam,
            "pap0": p.derivative("t") == gen @ p,
            "tat": t_fam.derivative("t") == gen @ t_fam,
            "pta": gen_p == generator_of(t_fam) == a.eval_at({}),
            "ta": nilpotent_time_commute_check(p, ts, tau, alpha)
            and not nilpotent_time_commute_check(p, ts, 1, alpha),
            "v1": smooth_p == (p + p0).scale(half_t),
            "v2": smoothing(t_fam) == (t_fam + ident).scale(half_t),
            "ss2": all(seq[k].derivative("t") == seq[k - 1] for k in range(1, 4))
            and seq[0].derivative("t") == a,
            "p2": seq[0] == p,
            "pv": seq[1] == smooth_p,
            **inverse_relations_check(alpha),
            "tu": conn["tu"],
            "ut": conn["ut"],
            "usq": conn["u_squared"],
        }
        if i % table_every == 0:
            yield alpha, {"table": cayley_table_verify(alpha).matches_known}


@_suite
def _analysis(ctx, cfg, rng):
    for i in range(max(1, cfg.samples // 8)):
        p, q = _SHAPES[i % len(_SHAPES)]
        comps = random_band_components(rng, ctx, p, q, degree=rng.randint(1, 4))
        yield comps.family("t"), {  # the witness, in the form analyze reads
            "kn": band_component_system_check(comps).holds,
            "nsum": n_functional_residual(comps).matches,
            "utail": n_differential_defect(comps) == derivative_tail(comps),
        }
        k0 = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        k1 = random_supermatrix(rng, ctx, p, q, invertible_b=False)
        linear = ComponentList([k0, k1]).family("t")
        yield linear, {"equiv": equivalence_report(linear).agree}
        band_linear = random_band_components(rng, ctx, p, q, degree=1).family("t")
        yield band_linear, {"equiv": equivalence_report(band_linear).agree}
    alpha = ctx.gen(1)
    pos = equivalence_report(make_family("P", alpha))
    neg = equivalence_report(make_family("T", alpha))
    yield alpha, {
        "posneg": pos.band and pos.functional and pos.differential
        and not (neg.band or neg.functional or neg.differential),
    }


def _expected_resolvents(ctx, alpha):
    """The resolvents of P and T and the defect of P's, written from alpha."""
    one = ctx.one()
    zero = LaurentScalar.zero(ctx)
    rp = LaurentMatrix._graded(
        1,
        1,
        [
            [zero, LaurentScalar.term(alpha, iz=2)],
            [LaurentScalar.term(alpha, iz=1), LaurentScalar.term(one, iz=1)],
        ],
    )
    rt = LaurentMatrix._graded(
        1,
        1,
        [
            [LaurentScalar.term(one, iz=1), LaurentScalar.term(alpha, iz=2)],
            [zero, LaurentScalar.term(one, iz=1)],
        ],
    )
    # (1/(zw) - 1/w^2) alpha in the corner where P holds alpha t
    tail = LaurentMatrix._graded(
        1, 1, [[zero, LaurentScalar(ctx, {(1, 1): alpha, (0, 2): -alpha})], [zero, zero]]
    )
    return rp, rt, tail


@_suite
def _resolvent(ctx, cfg, rng):
    zero, one = ctx.zero(), ctx.one()
    for _ in range(max(1, cfg.samples // 4)):
        alpha = random_nonzero_odd(rng, ctx)
        x0 = random_supervector(rng, ctx, 1, 1)
        p_fam = make_family("P", alpha)
        t_fam = make_family("T", alpha)
        rp, rt = laplace(p_fam), laplace(t_fam)
        want_rp, want_rt, want_tail = _expected_resolvents(ctx, alpha)
        even0, odd0 = x0.even[0], x0.odd[0]
        xp = orbit(p_fam, x0)
        xt = orbit(t_fam, x0)
        pinned = SuperVector._graded(1, 1, [[zero], [odd0]])
        yield alpha, {
            "rz": rp == want_rp,
            "rz1": rt == want_rt,
            "rrt": resolvent_defect(rt).is_zero(),
            "rra": resolvent_defect(rp) == want_tail,
            "xx": xp.even[0] == GrassmannPoly.term(alpha * odd0, t=1)
            and xp.odd[0] == GrassmannPoly.constant(alpha * even0 + odd0),
            "xxt": xt.even[0]
            == GrassmannPoly.constant(even0) + GrassmannPoly.term(alpha * odd0, t=1)
            and xt.odd[0] == GrassmannPoly.constant(odd0),
            "x0": xp.odd[0].degree("t") == 0
            and xt.odd[0].degree("t") == 0
            and orbit(p_fam, pinned) == orbit(t_fam, pinned),
            "xax": cauchy_defect(p_fam, x0).is_zero()
            and cauchy_defect(t_fam, x0).is_zero(),
            "xxp": moving_time_check(p_fam) == "moving_time"
            and moving_time_check(t_fam) == "translational",
            "apx": all(
                commutativity_obstruction(SuperVector._graded(1, 1, [[one], [m]]), alpha).is_zero()
                == (alpha * m).is_zero()
                for m in _odd_elements(ctx)
            ),
        }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


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


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the configured suite(s) and return the deterministic report, whose
    ``"passed"`` is True when every label held."""
    if not isinstance(cfg, SuiteConfig):
        raise ConfigError(f"cfg must be a SuiteConfig, got {type(cfg).__name__}")
    cfg.validate()
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    suites_out = [
        {"checks": checks, "name": name, "passed": all(c["passed"] for c in checks)}
        for name, checks in zip(names, _all_checks(cfg, names))
    ]
    return {
        "config": {
            "generators": cfg.generators,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "suite": cfg.suite,
        },
        "passed": all(s["passed"] for s in suites_out),
        "suites": suites_out,
    }


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
