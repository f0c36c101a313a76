"""Acceptance suite: one test per release criterion.

Each test asserts at its stated tolerance and records a single pass/fail
line which pytest prints in the terminal summary section.
"""

import numpy as np
import pytest

from flatmin.harness import run, run_config
from flatmin.hessian import hutchinson_trace, top_eigenvalue
from flatmin.landscapes import _descend, _Wells, grid_flatness_study, grid_starts
from flatmin.mlp import (
    Mlp,
    MlpSpec,
    forward_loss,
    inject_label_noise,
    loss_and_grad,
    make_blobs,
    steps_per_epoch,
    train_classifier,
)
from flatmin.optim import (
    AdamHyperParams,
    LrSchedule,
    MIAdamHyperParams,
    OptimizerState,
    adam_step,
    miadam_step,
)
from flatmin.presets import (
    SIMULATION_KAPPA,
    SIMULATION_SWITCH_STEP,
    SIMULATION_TOTAL_STEPS,
    get_landscape,
)
from flatmin.theory import (
    DriftingQuadraticProblem,
    EscapeScenario,
    escape_time_adam,
    escape_time_miadam1,
    run_regret_experiment,
)


def test_criterion_01_momentum_identity(acceptance_log):
    """First-moment recurrence equals the explicit geometric sum."""
    beta1 = 0.9
    hp = AdamHyperParams(beta1=beta1, weight_decay=0.0)
    rng = np.random.Generator(np.random.PCG64(100))
    worst = 0.0
    for _ in range(100):
        grads = rng.standard_normal((200, 16))
        # explicit sum at every t via a lower-triangular weight matrix
        powers = beta1 ** (np.arange(200)[:, None] - np.arange(200)[None, :])
        weights = (1.0 - beta1) * np.tril(powers)
        explicit = weights @ grads
        theta = np.zeros(16)
        state = OptimizerState.zeros(16)
        for t in range(200):
            theta, state = adam_step(theta, grads[t], state, hp)
            worst = max(worst, float(np.max(np.abs(state.m - explicit[t]))))
    ok = worst < 1e-12
    acceptance_log(f"criterion 1 {'PASS' if ok else 'FAIL'}: momentum recurrence vs explicit sum, max abs err {worst:.3e} (< 1e-12)")
    assert ok


def test_criterion_02_nested_summation(acceptance_log):
    """Multiple-integral stack equals the explicit nested summation."""
    base = AdamHyperParams(weight_decay=0.0)
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    for order_n in (1, 2, 3):
        for kappa in (0.5, 0.98, 1.0):
            grads = [rng.standard_normal(3) for _ in range(50)]
            # level 0: explicit geometric-sum first moment
            level = [np.zeros(3)]
            for t in range(1, 51):
                m = sum(base.beta1 ** (t - j) * grads[j - 1] for j in range(1, t + 1))
                level.append((1.0 - base.beta1) * m)
            # each higher level: explicit kappa-weighted sum of the one below
            for _ in range(order_n):
                level = [np.zeros(3)] + [
                    sum(kappa ** (t - s) * level[s] for s in range(t + 1)) for t in range(1, 51)
                ]
            hp = MIAdamHyperParams(
                adam=base, order_n=order_n, kappa=kappa, switch_step=10 ** 9
            )
            theta = np.zeros(3)
            state = OptimizerState.zeros(3, order_n=order_n)
            for t in range(1, 51):
                theta, state = miadam_step(theta, grads[t - 1], state, hp)
                worst = max(worst, float(np.max(np.abs(state.mbar_stack[-1] - level[t]))))
    ok = worst < 1e-10
    acceptance_log(f"criterion 2 {'PASS' if ok else 'FAIL'}: nested-summation oracle n in 1..3, max abs err {worst:.3e} (< 1e-10)")
    assert ok


def test_criterion_03_post_switch_bitwise(acceptance_log):
    """Past the switch step the update is bitwise identical to Adam's."""
    base = AdamHyperParams(weight_decay=5e-5)
    rng = np.random.Generator(np.random.PCG64(102))
    all_equal = True
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        order_n = int(rng.integers(1, 4))
        switch = int(rng.integers(1, 50))
        step_t = switch + int(rng.integers(0, 100))  # t = step_t + 1 > switch
        hp = MIAdamHyperParams(
            adam=base, order_n=order_n, kappa=float(rng.uniform(0.5, 1.0)), switch_step=switch
        )
        theta = rng.standard_normal(dim)
        g = rng.standard_normal(dim)
        m = rng.standard_normal(dim)
        v = np.abs(rng.standard_normal(dim))
        st_mi = OptimizerState(
            step_t=step_t, m=m.copy(), v=v.copy(),
            mbar_stack=[rng.standard_normal(dim) for _ in range(order_n)],
        )
        st_ad = OptimizerState(step_t=step_t, m=m.copy(), v=v.copy(), mbar_stack=[])
        out_mi, _ = miadam_step(theta, g, st_mi, hp)
        out_ad, _ = adam_step(theta, g, st_ad, base)
        all_equal = all_equal and np.array_equal(out_mi, out_ad)
    acceptance_log(f"criterion 3 {'PASS' if all_equal else 'FAIL'}: post-switch bitwise equality on 1000 randomized states")
    assert all_equal


def test_criterion_04_mlp_gradient(acceptance_log):
    """Manual backprop vs central finite differences."""
    rng = np.random.Generator(np.random.PCG64(103))
    worst = 0.0
    h = 1e-6
    for case in range(100):
        activation = "tanh" if case % 2 == 0 else "relu"
        spec = MlpSpec(layer_sizes=(4, 5, 3), activation=activation, init_seed=case)
        model = Mlp(spec)
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 3, size=4)
        _, grad, _ = loss_and_grad(model, x, y)
        flat = model.get_flat()
        for i in rng.choice(model.num_params, size=3, replace=False):
            bumped = flat.copy()
            bumped[i] += h
            model.set_flat(bumped)
            lp, _ = forward_loss(model, x, y)
            bumped[i] -= 2 * h
            model.set_flat(bumped)
            lm, _ = forward_loss(model, x, y)
            model.set_flat(flat)
            fd = (lp - lm) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    ok = worst < 1e-5
    acceptance_log(f"criterion 4 {'PASS' if ok else 'FAIL'}: backprop vs finite differences, max rel err {worst:.3e} (< 1e-5)")
    assert ok


def _random_scenario(rng, t_tilde):
    dim = int(rng.integers(2, 6))
    h_a = tuple(float(x) for x in rng.uniform(0.5, 10.0, size=dim))
    h_u = list(rng.uniform(0.5, 10.0, size=dim))
    idx = int(rng.integers(0, dim))
    h_u[idx] = -float(rng.uniform(0.5, 10.0))
    return EscapeScenario(
        alpha=float(rng.uniform(0.02, 0.1)),
        beta1=float(rng.uniform(0.5, 0.99)),
        batch_size_b=int(rng.integers(1, 129)),
        delta_L=float(rng.uniform(0.01, 0.1)),
        h_a_eigs=h_a,
        h_u_eigs=tuple(h_u),
        escape_index=idx,
        rho=float(rng.uniform(0.0, 1.0)),
        t_tilde=t_tilde,
    )


def test_criterion_05_escape_times(acceptance_log):
    """Escape-time closed forms: equality at unit continuous time, strict
    ordering beyond it, and the pinned high-precision reference values."""
    rng = np.random.Generator(np.random.PCG64(104))
    worst_eq = 0.0
    for _ in range(1000):
        s = _random_scenario(rng, t_tilde=1.0)
        mi, ad = escape_time_miadam1(s), escape_time_adam(s)
        worst_eq = max(worst_eq, abs(mi - ad) / ad)
    ordered = all(
        escape_time_miadam1(s) < escape_time_adam(s)
        for s in (_random_scenario(rng, t_tilde=float(rng.uniform(1.1, 10.0))) for _ in range(1000))
    )
    # Pinned references: 60-digit arbitrary-precision evaluations of the
    # closed forms at beta1=0.9, b=128, dL=0.1, H_a=(10,2,3), H_u=(-5,2,3),
    # escape along index 0, rho=0.5, t_tilde=4.
    pinned = EscapeScenario(
        alpha=1e-3, beta1=0.9, batch_size_b=128, delta_L=0.1,
        h_a_eigs=(10.0, 2.0, 3.0), h_u_eigs=(-5.0, 2.0, 3.0),
        escape_index=0, rho=0.5, t_tilde=4.0,
    )
    rel_mi = abs(escape_time_miadam1(pinned) - 6.729726065193706293407109e93) / 6.729726065193706293407109e93
    # the matching Adam value (~1.667e375) exceeds float64 range: reported inf
    adam_inf_ok = escape_time_adam(pinned) == float("inf")
    in_range = EscapeScenario(
        alpha=1e-2, beta1=0.9, batch_size_b=128, delta_L=0.1,
        h_a_eigs=(10.0, 2.0, 3.0), h_u_eigs=(-5.0, 2.0, 3.0),
        escape_index=0, rho=0.5, t_tilde=4.0,
    )
    rel_mi2 = abs(escape_time_miadam1(in_range) - 3630931438.670424476336) / 3630931438.670424476336
    rel_ad2 = abs(escape_time_adam(in_range) - 7.437293314011251178165e37) / 7.437293314011251178165e37
    ok = (
        worst_eq < 1e-12
        and ordered
        and rel_mi < 1e-10
        and adam_inf_ok
        and rel_mi2 < 1e-10
        and rel_ad2 < 1e-10
    )
    acceptance_log(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: escape times — t~=1 equality rel {worst_eq:.2e} (< 1e-12), "
        f"ordering on 1000 scenarios {ordered}, pinned values rel {max(rel_mi, rel_mi2, rel_ad2):.2e} (< 1e-10)"
    )
    assert ok


def test_criterion_06_flat_minimum_trajectories(acceptance_log):
    """Simulation settings on the three-well landscape: the switched
    multiple-integral run lands in flatter minima than Adam at every alpha."""
    spec = get_landscape("landscape-A")
    sched = LrSchedule(kind="cosine_annealing", total_steps=SIMULATION_TOTAL_STEPS)
    offsets = [(0.25, 0.0), (0.0, 0.25), (-0.25, 0.0), (0.0, -0.25), (0.18, 0.18)]
    starts = np.array([
        (cx + dx, cy + dy)
        for (cx, cy) in ((-1.0, -1.0), (2.0, 2.0))
        for (dx, dy) in offsets
    ])
    # each optimizer runs from all 10 starts as the lanes of one descent, on one shared kernel
    wells = _Wells(spec, len(starts))
    ok = True
    means = []
    for alpha in (0.05, 0.1, 0.15):
        adam = AdamHyperParams(alpha=alpha, weight_decay=0.0)
        mi = MIAdamHyperParams(
            adam=adam, order_n=1, kappa=SIMULATION_KAPPA, switch_step=SIMULATION_SWITCH_STEP
        )
        fa, fm = (
            np.mean(_descend(wells, starts, p, sched, SIMULATION_TOTAL_STEPS)[1]) for p in (adam, mi)
        )
        means.append((alpha, float(fa), float(fm)))
        ok = ok and fm < fa
    detail = ", ".join(f"alpha={a}: {m:.3f} < {f:.3f}" for a, f, m in means)
    acceptance_log(f"criterion 6 {'PASS' if ok else 'FAIL'}: mean final flatness MIAdam1 < Adam ({detail})")
    assert ok


def test_criterion_07_grid_flatness(acceptance_log):
    """50x50 grid on the checkerboard landscape at alpha=0.005: orders 2
    and 3 end in flatter minima than Adam on average."""
    spec = get_landscape("landscape-B")
    sched = LrSchedule(kind="cosine_annealing", total_steps=SIMULATION_TOTAL_STEPS)
    adam = AdamHyperParams(alpha=0.005, weight_decay=0.0)
    opts = [adam] + [
        MIAdamHyperParams(
            adam=adam, order_n=n, kappa=SIMULATION_KAPPA, switch_step=SIMULATION_SWITCH_STEP
        )
        for n in (2, 3)
    ]
    starts = grid_starts(((-2.0, 3.0), (-2.0, 3.0)), (50, 50))
    flats = grid_flatness_study(spec, starts, opts, sched, SIMULATION_TOTAL_STEPS)
    ma, m2, m3 = (float(np.mean(f)) for f in flats)
    ok = m2 < ma and m3 < ma
    acceptance_log(
        f"criterion 7 {'PASS' if ok else 'FAIL'}: mean flatness adam={ma:.4f}, order2={m2:.4f}, order3={m3:.4f}"
    )
    assert ok


def test_criterion_08_regret_divergence(acceptance_log):
    """Adam's average regret vanishes on the drifting quadratic; the
    unswitched multiple-integral variant keeps a constant-order average."""
    prob = DriftingQuadraticProblem()
    adam = AdamHyperParams(alpha=0.1, weight_decay=0.0)
    mi = MIAdamHyperParams(adam=adam, order_n=1, kappa=0.98, switch_step=None)
    _, (avg_ad, avg_mi) = run_regret_experiment(prob, [adam, mi], 100000, 0.5)
    at_100 = avg_ad[99]
    at_end = avg_ad[-1]
    mi_end = avg_mi[-1]
    ok = at_end < 0.01 * at_100 and mi_end > 10.0 * at_end
    acceptance_log(
        f"criterion 8 {'PASS' if ok else 'FAIL'}: adam avg regret decays to {at_end / at_100:.4f} of t=100 value "
        f"(< 0.01), unswitched/adam ratio {mi_end / at_end:.1f} (> 10)"
    )
    assert ok


def test_criterion_09_label_noise_robustness(acceptance_log):
    """Median clean-test accuracy under train-label noise, 5 seeds per rate."""
    ds0 = make_blobs(classes=4, per_class=150, spread=1.0, seed=7)
    batch = 128
    epochs = 150
    spe = steps_per_epoch(len(ds0.y_train), batch)
    sched = LrSchedule(kind="cosine_annealing", total_steps=epochs * spe)
    adam = AdamHyperParams(alpha=3e-5)
    mi = MIAdamHyperParams(adam=adam, order_n=1, kappa=0.98, switch_step=40 * spe)
    spec = MlpSpec(layer_sizes=(20, 64, 4), activation="relu", init_seed=11)
    ok = True
    detail = []
    for rate in (0.2, 0.4, 0.6):
        accs_adam, accs_mi = [], []
        for seed in range(5):
            ds = inject_label_noise(ds0, rate, seed=1000 + seed)
            _, m_adam = train_classifier(spec, ds, adam, sched, epochs, batch, seed=seed)
            _, m_mi = train_classifier(spec, ds, mi, sched, epochs, batch, seed=seed)
            accs_adam.append(m_adam["test_acc"][-1])
            accs_mi.append(m_mi["test_acc"][-1])
        med_a = float(np.median(accs_adam))
        med_m = float(np.median(accs_mi))
        detail.append(f"rate {rate}: {med_m:.3f} vs {med_a:.3f}")
        ok = ok and med_m >= med_a
    acceptance_log(
        f"criterion 9 {'PASS' if ok else 'FAIL'}: median test acc MIAdam1 >= Adam ({'; '.join(detail)})"
    )
    assert ok


def test_criterion_10_hessian_toolkit(acceptance_log):
    """Power iteration vs dense eigendecomposition; Hutchinson vs true trace."""
    worst_eig = 0.0
    for seed in range(5):
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        m = rng.standard_normal((30, 30))
        mat = 0.5 * (m + m.T)
        true_top = max(np.linalg.eigvalsh(mat), key=abs)
        est, _, _ = top_eigenvalue(lambda x: mat @ x, np.zeros(30), 5000, 1e-12, seed=seed)
        worst_eig = max(worst_eig, abs(est - true_top) / abs(true_top))
    worst_tr = 0.0
    for seed in range(3):
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        diag = rng.uniform(0.5, 5.0, size=30)
        mat = np.diag(diag)
        est, _ = hutchinson_trace(lambda x: mat @ x, np.zeros(30), probes=1000, seed=seed)
        worst_tr = max(worst_tr, abs(est - diag.sum()) / diag.sum())
    ok = worst_eig < 1e-4 and worst_tr < 0.02
    acceptance_log(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: top eigenvalue rel err {worst_eig:.2e} (< 1e-4), "
        f"trace rel err {worst_tr:.4f} (< 0.02)"
    )
    assert ok


def test_criterion_11_determinism(acceptance_log, tmp_path):
    """Re-running a report's embedded config reproduces identical CSV bytes."""
    configs = [
        {
            "kind": "trajectory",
            "seed": 1,
            "output_dir": str(tmp_path / "traj_a"),
            "landscape": "landscape-A",
            "start": [1.75, 2.25],
            "total_steps": 200,
            "optimizers": [
                {"name": "adam", "kind": "adam", "alpha": 0.05},
                {"name": "miadam", "kind": "miadam", "alpha": 0.05, "kappa": 0.885,
                 "switch_step": 150},
            ],
        },
        {
            "kind": "train",
            "seed": 2,
            "output_dir": str(tmp_path / "train_a"),
            "model": {"layer_sizes": [20, 8, 3], "activation": "tanh"},
            "dataset": {"classes": 3, "per_class": 30, "spread": 1.0, "seed": 5,
                        "noise_rate": 0.2},
            "epochs": 4,
            "batch_size": 16,
            "optimizers": [{"name": "adam", "kind": "adam"}],
        },
    ]
    ok = True
    for i, cfg in enumerate(configs):
        report = run(cfg)
        second = tmp_path / f"rerun_{i}"
        run_config(report["config"], output_dir=second)
        first = tmp_path / ("traj_a" if i == 0 else "train_a")
        for csv in sorted(first.glob("*.csv")):
            ok = ok and csv.read_bytes() == (second / csv.name).read_bytes()
    acceptance_log(f"criterion 11 {'PASS' if ok else 'FAIL'}: rerun from embedded config reproduces identical CSV bytes")
    assert ok
