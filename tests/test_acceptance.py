"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Criteria cover noise cancellation, the combinatorial overlap bound, gradient
correctness, bandit convergence, metric oracles, the directional defense
effect on a deliberately overfit synthetic federation, the degenerate
defense identity, the coordination byte estimate, and the adaptive-attacker
bypass of the perturbation module.
"""

import numpy as np

from fedpriv import attacks as atk
from fedpriv import compensation as cmp
from fedpriv import experiment as ex
from fedpriv import models
from fedpriv.assignment import assign_classes, theoretical_overlap_bound
from fedpriv.metrics import auc_score, tpr_at_fpr
from fedpriv.models import ModelSpec
from fedpriv.perturbation import project_neutral
from harness import library_configs, make_config, run_from_config
from oracles import (
    brute_min_max_overlap,
    cr_loss_and_grad,
    finite_difference_grad,
    max_rel_error,
    pair_counting_auc,
    sweep_tpr_at_fpr,
)


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: criterion {number} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_noise_cancellation():
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        weights = rng.uniform(0.1, 10.0, size=d)
        base = rng.normal(0.0, 0.1, size=d)
        delta = project_neutral(base, weights)
        resid = abs(float(weights @ delta))
        scale = float(np.max(np.abs(weights * delta)))
        worst_rel = max(worst_rel, resid / max(scale, 1e-300))
    projection_ok = worst_rel <= 1e-10

    extra = "defense.kind = coalition\ndefense.coalition = 0,1,2\ndefense.sigma = {s}\n"
    cfg_on = make_config(clients=6, rounds=20, snapshot_every=1, extra=extra.format(s=0.1))
    cfg_off = make_config(clients=6, rounds=20, snapshot_every=1, extra=extra.format(s=0.0))
    _, on = run_from_config(cfg_on)
    _, off = run_from_config(cfg_off)
    gap = max(
        float(np.max(np.abs(g_on - g_off)))
        for g_on, g_off in zip(on.store.globals, off.store.globals)
    )
    trajectory_ok = gap <= 1e-8
    _criterion(
        1,
        "weighted noise sums cancel and the global trajectory is unchanged",
        projection_ok and trajectory_ok,
        f"max relative residual {worst_rel:.2e}, max trajectory gap {gap:.2e}",
    )


def test_criterion_2_overlap_bound_and_greedy():
    total = within_one = 0
    bound_ok = True
    for n in range(2, 7):
        for d in range(2, 5):
            for m in range(1, n + 1):
                if d * m < n:
                    continue
                lower = theoretical_overlap_bound(n, d, m)
                optimum = brute_min_max_overlap(n, d, m, lower_bound=lower)
                bound_ok &= optimum >= lower
                _, cfg = library_configs(
                    num_clients=d, rounds=2, num_classes=n, defense="coalition",
                    coalition=tuple(range(d)), m_max=m, m_min=m, t0=1,
                )
                _, achieved = assign_classes(cfg, n, 1)
                total += 1
                within_one += achieved <= optimum + 1
    rate = within_one / total
    _criterion(
        2,
        "exhaustive search respects the overlap bound; greedy within +1 of optimum",
        bound_ok and rate >= 0.9,
        f"{total} instances, bound held everywhere, within +1 on {rate:.0%}",
    )


def test_criterion_3_gradient_correctness():
    worst = 0.0
    spec = ModelSpec(input_dim=5, hidden_dim=6, num_classes=3)
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        params = models.init_params(spec, rng)
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        _, grad = models.loss_and_grad(spec, params, x, y)
        fd = finite_difference_grad(lambda p: models.loss_and_grad(spec, p, x, y)[0], params)
        worst = max(worst, max_rel_error(grad, fd))
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        params = models.init_params(spec, rng)
        x = rng.normal(size=5)
        y = int(rng.integers(0, 3))
        mu = float(rng.uniform(0.0, 0.5))
        _, grad = cr_loss_and_grad(spec, params, x, y, mu)
        fd = finite_difference_grad(lambda p: cr_loss_and_grad(spec, p, x, y, mu)[0], params)
        worst = max(worst, max_rel_error(grad, fd))
    _criterion(
        3,
        "cross-entropy and regularized-loss gradients match finite differences",
        worst <= 1e-4,
        f"worst relative error {worst:.2e} over 40 instances",
    )


def test_criterion_4_bandit_finds_planted_arm():
    best_arm = 3
    probs = []
    for seed in range(10):
        state = cmp.BanditState.fresh(10, eta=0.1)
        rng = np.random.default_rng(700 + seed)
        for _ in range(500):
            arm = cmp.exp3_select(state, rng)
            cmp.exp3_update(state, arm, 1.0 if arm == best_arm else -1.0)
        probs.append(float(state.probabilities()[best_arm]))
    mean_prob = float(np.mean(probs))
    _criterion(
        4,
        "planted best arm dominates selection within 500 pulls",
        mean_prob > 1.0 / 10 + 0.2,
        f"mean selection probability {mean_prob:.3f} over 10 seeds",
    )


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    tpr_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 41))
        scores = np.round(rng.normal(size=n), 1)
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        worst_gap = max(
            worst_gap, abs(auc_score(scores, labels) - pair_counting_auc(scores, labels))
        )
        table = tpr_at_fpr(scores, labels, levels=(0.001, 0.01, 0.1))
        for level, got in table.items():
            tpr_ok &= got == sweep_tpr_at_fpr(scores, labels, level)
    _criterion(
        5,
        "rank-statistic AUC equals pair counting; TPR table equals threshold sweep",
        worst_gap <= 1e-12 and tpr_ok,
        f"max AUC gap {worst_gap:.1e} over 50 score sets",
    )


def _overfit_cfg(seed, defended):
    extra = "defense.kind = coalition\ndefense.coalition = 0,1\n" if defended else ""
    return make_config(
        clients=10,
        rounds=60,
        num_classes=10,
        samples_per_class=120,
        input_dim=12,
        spread=5.5,
        hidden=64,
        lr=0.3,
        epochs=3,
        snapshot_every=10,
        seed=seed,
        members=60,
        ifl=90,
        ofl=60,
        extra=extra,
    )


def test_criterion_6_directional_defense_effect():
    attack_names = ("loss_series", "fta_l", "fedmia_i")
    undef_auc, def_auc, undef_acc, def_acc = [], [], [], []
    for seed in (0, 1, 2):
        for defended in (False, True):
            cfg = _overfit_cfg(seed, defended)
            prep, state = run_from_config(cfg)
            pools = ex.build_pools(cfg, prep)
            aucs = [
                atk.run_attack(state.store, pools, 0, name).auc
                for name in attack_names
            ]
            if defended:
                def_auc.append(np.mean(aucs))
                def_acc.append(state.reports[-1].test_acc)
            else:
                undef_auc.append(np.mean(aucs))
                undef_acc.append(state.reports[-1].test_acc)
    mean_undef = float(np.mean(undef_auc))
    drop = mean_undef - float(np.mean(def_auc))
    acc_drop = float(np.mean(undef_acc)) - float(np.mean(def_acc))
    _criterion(
        6,
        "attacks succeed undefended; the coalition defense blunts them cheaply",
        mean_undef >= 0.60 and drop >= 0.05 and acc_drop <= 0.05,
        f"undefended mean AUC {mean_undef:.3f}, AUC drop {drop:.3f}, "
        f"accuracy drop {acc_drop:+.3f} over 3 seeds",
    )


def test_criterion_7_degenerate_defense_identity():
    plain = make_config(clients=4, rounds=12, snapshot_every=4)
    degenerate = make_config(
        clients=4,
        rounds=12,
        snapshot_every=4,
        extra=(
            "defense.kind = coalition\n"
            "defense.coalition = 2\n"
            "defense.m_max = 5\n"
            "defense.m_min = 5\n"
            "defense.r_l = 0.0\n"
            "defense.sigma = 0.0\n"
            "defense.mu = 0.0\n"
        ),
    )
    _, a = run_from_config(plain)
    _, b = run_from_config(degenerate)
    identical = np.array_equal(a.global_params, b.global_params)
    identical &= a.store.rounds == b.store.rounds
    for row in range(len(a.store.rounds)):
        identical &= np.array_equal(a.store.globals[row], b.store.globals[row])
        for k in range(4):
            identical &= np.array_equal(a.store.locals[row][k], b.store.locals[row][k])
    _criterion(
        7,
        "single-client defense with all classes, no recycling, no noise is a no-op",
        bool(identical),
        "snapshots bit-identical to the undefended run",
    )


def test_criterion_8_coordination_overhead_formula():
    ok = (
        ex.comm_overhead_estimate(200, 100) == 20_200
        and ex.comm_overhead_estimate(10, 100) == 1_200
        and ex.comm_overhead_estimate(50, 0) == 0
    )
    _criterion(
        8,
        "coordination traffic estimate matches (classes + 2) * rounds bytes",
        ok,
        "20,200 bytes at 200 classes x 100 rounds",
    )


def test_criterion_9_adaptive_attack_bypasses_perturbation():
    extra = "defense.kind = coalition\ndefense.coalition = 0,1,2\ndefense.sigma = {s}\n"
    cfg_on = make_config(clients=6, rounds=20, snapshot_every=5, extra=extra.format(s=0.1))
    cfg_off = make_config(clients=6, rounds=20, snapshot_every=5, extra=extra.format(s=0.0))
    prep, on = run_from_config(cfg_on)
    _, off = run_from_config(cfg_off)
    pools = ex.build_pools(cfg_on, prep)
    worst = 0.0
    for name in ("loss_series", "fta_l", "fedmia_i"):
        selector = ("coalition", (0, 1, 2))
        r_on = atk.run_attack(on.store, pools, 0, name, selector=selector)
        r_off = atk.run_attack(off.store, pools, 0, name, selector=selector)
        worst = max(worst, float(np.max(np.abs(r_on.scores - r_off.scores))))
    # negative control: the locals the adaptive attacker bypasses DO differ
    locals_differ = float(np.max(np.abs(on.store.locals[-1][0] - off.store.locals[-1][0])))
    _criterion(
        9,
        "coalition-aggregate attack scores are identical with perturbation on/off",
        worst <= 1e-6 and locals_differ > 1e-4,
        f"max score gap {worst:.2e}; perturbed local gap {locals_differ:.2e}",
    )


def test_criteria_are_exhaustive():
    # guard: every numbered criterion above stays present and runnable
    names = [n for n in globals() if n.startswith("test_criterion_")]
    assert len(names) == 9
