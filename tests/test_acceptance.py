"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7 and 8 check the p-MACG against what the construction provably
does, not against the paper's closed form: that form, 2e^c·(e·c²/(K·2^p))^{2^p}
with slope −2^p, charges each failed measurement η² although a run of
adjacent failed measurements leaks at η² whatever its length.  Criterion 7
asserts the run-aware bound ``macg_run_bound`` at the measured η_max and
reports how many cases break the closed form; criterion 8 asserts the 1/K
decay that single runs of failed measurements force.  The refutation itself
is asserted in tests/test_mcm.py.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np

import bechain as bc
from bechain.cli import RunConfig, run as cli_run
from bechain.encoding import hermitian_test_encoding
from bechain.linalg import PAULI_X, PAULI_Z, opnorm, random_hermitian
from bechain.qsp import ChebPoly


def test_criterion_01_dilation_identities(report):
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = seed % 3 + 1
        dim = 2**n
        h = random_hermitian(dim, rng.uniform(0.1, 1.0), rng)
        u = bc.dilate_hermitian(h).u
        worst = max(
            worst,
            opnorm(u - u.conj().T),
            opnorm(u @ u - np.eye(2 * dim)),
            opnorm(u[:dim, :dim] - h),
        )
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = rng.uniform(0.1, 1.0) * a / opnorm(a)
        ua = bc.dilate_general(a).u
        s_r, s_l = ua[:dim, :dim], -ua[dim:, dim:]
        worst = max(
            worst,
            opnorm(ua - ua.conj().T),
            opnorm(ua @ ua - np.eye(2 * dim)),
            opnorm(ua[dim:, :dim] - a),
            opnorm(s_r @ a.conj().T - a.conj().T @ s_l),
            opnorm(a @ s_r - s_l @ a),
            opnorm(s_r @ s_r + a.conj().T @ a - np.eye(dim)),
            opnorm(s_l @ s_l + a @ a.conj().T - np.eye(dim)),
        )
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"dilation identities, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_algorithm1_end_to_end(report):
    t0 = time.monotonic()
    eps_grid = (1e-1, 1e-2, 1e-3)
    queries = {eps: [] for eps in eps_grid}
    ok = True
    for inst in range(20):
        rng = np.random.default_rng(1000 + inst)
        n = 1 if inst < 10 else 2
        a = 2 if inst % 2 == 0 else 3
        h = random_hermitian(2**n, 0.75 * rng.uniform(0.5, 1.0), rng)
        vh = hermitian_test_encoding(h, a, 5000 + inst)
        for eps in eps_grid:
            result, rep = bc.uncompute_hermitian(vh, 0.25, eps)
            ok &= bc.verify_encoding(result, h) <= eps
            queries[eps].append(rep.queries_vh)
    ratio = np.median(queries[1e-3]) / np.median(queries[1e-1])
    slope = np.polyfit(
        [math.log(1 / e) for e in eps_grid],
        [float(np.median(queries[e])) for e in eps_grid],
        1,
    )[0]
    elapsed = time.monotonic() - t0
    ok = ok and ratio <= 4.0 and slope > 0 and elapsed < 120.0
    report(2, ok,
           f"Algorithm 1 end-to-end: 60 runs within eps, query ratio {ratio:.2f} <= 4, "
           f"slope {slope:.1f} > 0, {elapsed:.1f}s")


def test_criterion_03_lcu_constants(report):
    c1 = math.sqrt(8.0) * bc.SIN_PI_14 / 9.0 <= 1.0 / 14.0
    t7 = bc.qsp_eval(bc.chebyshev_phases(7), math.sin(math.pi / 14.0))[0, 0]
    c2 = abs(t7 - (-1.0)) <= 1e-12
    report(3, c1 and c2,
           f"sqrt(8)·sin(pi/14)/9 = {math.sqrt(8)*bc.SIN_PI_14/9:.6f} <= 1/14, "
           f"T7(sin(pi/14)) = {t7.real:.15f}")


def test_criterion_04_qsvt_consistency(report):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 3))
        h = random_hermitian(2**n, 0.9, rng)
        be = hermitian_test_encoding(h, int(rng.integers(1, 3)), 6000 + seed)
        d = int(rng.integers(2, 32))
        coeffs = np.zeros(d + 1)
        coeffs[d % 2 :: 2] = rng.standard_normal(coeffs[d % 2 :: 2].size)
        p = ChebPoly(coeffs)
        p = p.rescaled(0.9 / p.sup_norm())
        out = bc.qsvt_apply(bc.solve_phases(p), be)
        oracle = bc.herm_funcmat(h, lambda x: p(x))
        worst = max(worst, opnorm(out.block() - oracle))
    phi = bc.solve_phases(bc.approx_half_sqrt(0.25, 1e-3))
    report(4, worst <= 1e-8 and phi.residual <= 1e-8,
           f"QSVT vs spectral oracle worst {worst:.2e} <= 1e-8, "
           f"half-sqrt solver residual {phi.residual:.2e} <= 1e-8")


def test_criterion_05_ecg_exactness(report):
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for k in range(2, 9):
        for seed in range(10):
            encs = [bc.random_block_encoding(1, 1, 7000 + 100 * k + 10 * seed + i)
                    for i in range(k)]
            circ = bc.gadget_lw19(encs)
            ok &= circ.m == math.ceil(math.log2(k))
            worst = max(worst, bc.gadget_error_exact(circ, bc.block_product(encs)))
    elapsed = time.monotonic() - t0
    report(5, ok and worst <= 1e-11 and elapsed < 30.0,
           f"exact compression gadget: worst error {worst:.2e} <= 1e-11, "
           f"m = ceil(log2 K) everywhere, {elapsed:.1f}s")


def test_criterion_06_simplification_lemma(report):
    from bechain.linalg import haar_unitary

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        encs = [bc.random_block_encoding(1, 1, 8000 + 50 * seed + i) for i in range(k)]
        dm = 2**m
        raw = bc.MCMRaw(
            tuple(encs), m,
            tuple(haar_unitary(dm, rng) for _ in range(k)),
            tuple(haar_unitary(dm, rng) for _ in range(k - 1)),
            tuple(haar_unitary(dm, rng) for _ in range(k - 1)),
        )
        worst = max(worst, opnorm(bc.raw_unitary(raw) - bc.mcm_unitary(bc.mcm_from_raw(raw))))
    report(6, worst <= 1e-10, f"raw vs simplified MCM unitaries, worst {worst:.2e} <= 1e-10")


def test_criterion_07_pmacg_bound(report):
    # The gadget error must stay under the run-aware bound B_run at the
    # measured η_max (proof in mcm.macg_run_bound).  The paper's closed form
    # is refuted on this grid; the count of cases that break it is reported.
    t0 = time.monotonic()
    agree_worst = 0.0
    ratio_worst = 0.0
    violations = []
    closed_form_breaks = []
    for k in (8, 16, 32):
        for p in (1, 2):
            closed_form = bc.macg_bound(k, p, 0.5)
            for seed in range(5):
                base = 10000 + 1000 * k + 100 * p + 10 * seed
                encs = [bc.random_near_identity(1, 1, 0.5 / k, base + i) for i in range(k)]
                circ = bc.gadget_pmacg(encs, p)
                e_embe = bc.gadget_error_exact(circ, bc.block_product(encs))
                method = "enumerate" if k <= 10 else "recursion"
                e_oracle = opnorm(bc.sum_bad_sequences(encs, p, method))
                agree_worst = max(agree_worst, abs(e_embe - e_oracle))
                bound = bc.macg_run_bound(k, p, bc.deviation_profile(encs).eta_max)
                ratio_worst = max(ratio_worst, e_embe / bound)
                if e_embe > bound:
                    violations.append((k, p, seed, e_embe, bound))
                if e_embe > closed_form:
                    closed_form_breaks.append((k, p, seed, e_embe, closed_form))
    elapsed = time.monotonic() - t0
    ok = agree_worst <= 1e-10 and not violations and elapsed < 180.0
    first = closed_form_breaks[0] if closed_form_breaks else None
    report(7, ok,
           f"p-MACG bound: routes agree to {agree_worst:.1e}, "
           f"{len(violations)}/30 cases violate the run-aware bound "
           f"(worst e/B_run {ratio_worst:.2f}); "
           f"{len(closed_form_breaks)}/30 break the claimed closed form"
           f"{' (e.g. %s e=%.2e > %.2e)' % (first[:2], first[3], first[4]) if first else ''}, "
           f"{elapsed:.0f}s")


def _single_run_leakage(encs, p):
    """‖Σ S_x‖ over the x whose failed measurements form one run of length ≡ 0 mod 2^p."""
    k = len(encs)
    total = 0.0
    for r in range(2**p, k, 2**p):
        for start in range(k - r):
            x = "0" * start + "1" * r + "0" * (k - 1 - start - r)
            total = total + bc.bad_sequence_oracle(encs, x)
    return opnorm(total)


def test_criterion_08_scaling_exponent(report):
    # Every run of 2^p adjacent failed measurements leaks at η² and there are
    # ~K²/2^{p+1} of them; with independent zero-mean generators they add
    # incoherently, so the error scales as K·η² ∝ 1/K for every p.  The fitted
    # slope must sit within 0.3 of −1 and track the single-run leakage.
    slopes, run_slopes = {}, {}
    for p, ks in ((1, (8, 16, 32, 64)), (2, (8, 16, 32))):
        medians, run_medians = [], []
        for k in ks:
            errs, runs = [], []
            for seed in range(5):
                base = 20000 + 1000 * k + 10 * seed
                encs = [bc.random_near_identity(1, 1, 0.5 / k, base + i) for i in range(k)]
                errs.append(
                    bc.gadget_error_exact(bc.gadget_pmacg(encs, p), bc.block_product(encs))
                )
                runs.append(_single_run_leakage(encs, p))
            medians.append(float(np.median(errs)))
            run_medians.append(float(np.median(runs)))
        slopes[p] = float(np.polyfit(np.log(ks), np.log(medians), 1)[0])
        run_slopes[p] = float(np.polyfit(np.log(ks), np.log(run_medians), 1)[0])
    ok = all(abs(slopes[p] + 1.0) <= 0.3 and abs(slopes[p] - run_slopes[p]) <= 0.05
             for p in (1, 2))
    report(8, ok,
           f"scaling exponents: p=1 slope {slopes[1]:.2f}, p=2 slope {slopes[2]:.2f} "
           f"(need -1 ± 0.3; the claimed -2^p is refuted); single-run leakage slopes "
           f"{run_slopes[1]:.2f}, {run_slopes[2]:.2f} (need within 0.05)")


def test_criterion_09_lower_bound_probe(report):
    t0 = time.monotonic()
    ok = True
    details = []
    for k in (3, 4):
        for s in range(3):
            encs = [bc.random_block_encoding(2, 1, 32452843 * k + 1000 * s + i)
                    for i in range(k)]
            r = bc.lower_bound_probe(encs, 1, restarts=20, seed=1000 * s + 271)
            details.append(f"K={k}/set{s}: {r:.3f}")
            ok &= r >= 1e-3
    encs2 = [bc.random_block_encoding(2, 1, 64905686 + i) for i in range(2)]
    feas = bc.lower_bound_probe(encs2, 1, restarts=20, seed=11)
    ok &= feas <= 1e-8
    elapsed = time.monotonic() - t0
    report(9, ok,
           f"probe residuals ({'; '.join(details)}) all >= 1e-3 at n=2; "
           f"K=2 feasible point {feas:.1e} <= 1e-8, {elapsed:.0f}s")


def test_criterion_10_oaa(report):
    law_worst = 0.0
    for theta in (0.2, np.pi / 6, 0.8):
        for k in (0, 1, 2):
            psi0 = np.array([math.sin(theta), math.sqrt(1 - math.sin(theta) ** 2)])
            _, prob = bc.grover_boost(psi0, 1, k)
            law_worst = max(law_worst, abs(prob - math.sin((2 * k + 1) * theta) ** 2))
    ok = law_worst <= 1e-10
    fid_min, prob_min = 1.0, 1.0
    for seed in range(10):
        k = 8
        encs = [bc.random_near_identity(1, 1, 0.5 / k, 30000 + 100 * seed + i)
                for i in range(k)]
        circ = bc.gadget_pmacg(encs, 1)
        target = bc.block_product(encs)
        eps = bc.gadget_error_exact(circ, target)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rep = bc.oaa_boost_report(circ, target, psi)
        fid_min = min(fid_min, rep.fidelity)
        prob_min = min(prob_min, rep.alpha_after**2)
        ok &= rep.fidelity >= 1.0 - eps**2 and rep.alpha_after**2 >= 0.8
    report(10, ok,
           f"sin((2k+1)θ) law to {law_worst:.1e}; post-boost fidelity >= 1-eps² "
           f"(min {fid_min:.8f}) and signal prob (min {prob_min:.3f}) >= 0.8 on 10 instances")


def test_criterion_11_applications(report):
    t0 = time.monotonic()
    trot = bc.trotter_sequence(bc.TrotterSpec((0.5 * PAULI_X, 0.5 * PAULI_Z), 1.0, 16))
    prof_t = bc.deviation_profile(trot)
    kg_t = len(trot)
    c_t = prof_t.eta_max * kg_t
    e_t = bc.gadget_error_exact(bc.gadget_pmacg(trot, 1), bc.block_product(trot))
    ok = prof_t.eta_max <= c_t / kg_t + 1e-15 and e_t <= bc.macg_bound(kg_t, 1, c_t)

    spec = bc.DysonSpec(lambda t: -1j * np.cos(t) * 0.5 * PAULI_X, 0.5, 1.0, 16)
    dyson = bc.dyson_sequence(spec)
    prof_d = bc.deviation_profile(dyson)
    kg_d = len(dyson)
    c_d = prof_d.eta_max * kg_d
    e_d = bc.gadget_error_exact(bc.gadget_pmacg(dyson, 1), bc.block_product(dyson))
    ok &= prof_d.eta_max <= c_d / kg_d + 1e-15 and e_d <= bc.macg_bound(kg_d, 1, c_d)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(11, ok,
           f"Trotter (K={kg_t}, c={c_t:.3f}, e={e_t:.1e}) and Dyson "
           f"(K={kg_d}, c={c_d:.3f}, e={e_d:.1e}) both within the bound, {elapsed:.0f}s")


def test_criterion_12_determinism(report, tmp_path):
    outputs = []
    for name in ("x.csv", "y.csv"):
        cfg = RunConfig(
            "macg-sweep", seed=42, out_path=str(tmp_path / name), fmt="csv",
            k_list=(8,), p_list=(1,), trials=2,
        )
        cli_run(cfg)
        outputs.append((tmp_path / name).read_bytes())
    same = outputs[0] == outputs[1]

    outputs_j = []
    for name in ("x.json", "y.json"):
        cfg = RunConfig(
            "ecg-verify", seed=7, out_path=str(tmp_path / name), fmt="json",
            k_list=(2, 3), trials=2,
        )
        cli_run(cfg)
        outputs_j.append((tmp_path / name).read_bytes())
    same &= outputs_j[0] == outputs_j[1]
    report(12, same, "identical (config, seed) reruns are byte-identical (csv and json)")
