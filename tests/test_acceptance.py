"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Population sizes and tolerances are fixed here, not calibrated.
"""

import json
from pathlib import Path

import numpy as np

from fusionframes.cli import main as cli_main
from fusionframes.duality import (
    canonical_gavruta_dual,
    find_separating_dual,
    gavruta_dual_check,
    generate_fusion_dual,
    is_admissible,
    kpp_dual_check,
)
from fusionframes.fusion import (
    FusionSequence,
    build_local_frames,
    LocalFrameFamily,
    projection,
    random_subspace,
)
from fusionframes.instances import (
    cross_swap_instance,
    random_fusion_frame,
    random_invertible_matrix,
    random_ov_frame,
    random_partition,
    random_riesz_basis,
    random_symbol,
)
from fusionframes.multipliers import (
    Symbol,
    assemble_multiplier,
    gavruta_multiplier,
    inverse_representation_probe,
    inverse_representation_residuals,
    invertible_multiplier_consequences,
    local_frame_equivalence,
    projection_composition_multiplier,
    riesz_multiplier_verdict,
    schatten_checks,
)
from fusionframes.numerics import DEFAULT_TOL, spectral_norm
from fusionframes.ovf import (
    canonical_ov_dual,
    dual_span_dimension,
    duality_defects,
    is_frame,
    kernel_samples,
    null_bessel_certificate,
    sample_ov_duals,
)

DATA = Path(__file__).parent / "data"
EQ = 1e-8


def _rng(label: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([2024, sum(map(ord, label))]))


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _pair_with_symbol(rng, n_hi=6, count_hi=5):
    n = int(rng.integers(2, n_hi))
    count = int(rng.integers(2, count_hi))
    v = random_fusion_frame(n, count, rng)
    w = random_fusion_frame(n, count, rng, dims=v.dims)
    sym = random_symbol("random_C_holding", n, count, rng)
    return sym, v, w


def test_criterion_01_dual_reconstruction():
    rng = _rng("duals")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        count = int(rng.integers(1, 7))
        if count * k < n:
            count = int(np.ceil(n / k))
        a = random_ov_frame(n, k, count, rng)
        canonical = canonical_ov_dual(a).analysis
        duals = np.concatenate([canonical[None], sample_ov_duals(a, 20, rng, DEFAULT_TOL)])
        worst = max(worst, float(duality_defects(duals, a.analysis).max()))
    _verdict(1, "dual reconstruction", worst <= EQ, f"max residual {worst:.3e}")


def test_criterion_02_constructive_duals():
    rng = _rng("construction")
    worst = 0.0
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 7))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        identity_case = trial % 4 == 0
        u = np.eye(n, dtype=complex) if identity_case else random_invertible_matrix(n, rng)
        (l,) = kernel_samples(w.embedding, 1, rng)
        gd = generate_fusion_dual(w, u, l)
        worst = max(worst, spectral_norm(gd.composite - u) / max(1.0, spectral_norm(u)))
        ok = ok and is_admissible(gd.q, gd.v, w).admissible
        if identity_case:
            ok = ok and kpp_dual_check(gd.v, w, gd.q).kind == "dual"
    _verdict(2, "constructive dual generator", ok and worst <= EQ, f"max residual {worst:.3e}")


def _ov_population(rng, trials=100):
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        count = int(rng.integers(1, 6))
        if count * k < n:
            count = int(np.ceil(n / k))
        yield random_ov_frame(n, k, count, rng)


def test_criterion_03_dual_family_spans():
    rng = _rng("span")
    bad = 0
    for a in _ov_population(rng):
        if dual_span_dimension(a) != a.count * a.codomain_dim:
            bad += 1
    _verdict(3, "dual family spans the stacked space", bad == 0, f"{bad} rank mismatches")


def test_criterion_04_null_certificate():
    rng = _rng("span")  # same population as criterion 3
    bad = 0
    for a in _ov_population(rng):
        if null_bessel_certificate(a) != 0:
            bad += 1
    _verdict(4, "only the zero sequence annihilates every dual", bad == 0, f"{bad} nonzero")


def test_criterion_05_separating_duals():
    rng = _rng("separation")
    found, nones = 0, 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        while True:
            idx = int(rng.integers(0, w.count))
            if rng.random() < 0.5:
                weights = w.weights.copy()
                weights[idx] *= 2.0
                other = FusionSequence(w.subspaces, weights)
            else:
                subs = list(w.subspaces)
                subs[idx] = random_subspace(n, subs[idx].dim, rng)
                other = FusionSequence(tuple(subs), w.weights.copy())
            deviation = max(
                spectral_norm(
                    w.weights[i] * projection(w.subspaces[i])
                    - other.weights[i] * projection(other.subspaces[i])
                )
                for i in range(w.count)
            )
            if deviation >= 0.1 and is_frame(other.embedding):
                break
        if find_separating_dual(w, other).witness is not None:
            found += 1
        if find_separating_dual(w, w).witness is None:
            nones += 1
    _verdict(
        5,
        "duals separate distinct fusion frames",
        found == 50 and nones == 50,
        f"{found}/50 witnesses, {nones}/50 clean self-checks",
    )


def test_criterion_06_gavruta_canonical():
    rng = _rng("gavruta")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = random_fusion_frame(n, int(rng.integers(1, 5)), rng)
        worst = max(worst, gavruta_dual_check(canonical_gavruta_dual(w), w))
    _verdict(6, "canonical S^-1 dual reconstructs", worst <= EQ, f"max residual {worst:.3e}")


def test_criterion_07_riesz_symbol_iff():
    rng = _rng("riesz")
    inconsistent = 0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        dims = random_partition(n, int(rng.integers(1, n + 1)), rng)
        w = random_riesz_basis(n, rng, dims=dims)
        v = random_riesz_basis(n, rng, dims=dims)
        mode = "random_C_holding" if trial % 2 == 0 else "random_C_failing"
        sym = random_symbol(mode, n, len(dims), rng)
        verdict = riesz_multiplier_verdict(sym, v, w)
        if verdict.indeterminate or not verdict.consistent:
            inconsistent += 1
    not_flagged = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        dims = random_partition(n, int(rng.integers(1, n + 1)), rng)
        w = random_riesz_basis(n, rng, dims=dims)
        v = random_riesz_basis(n, rng, dims=dims)
        sym = random_symbol("adversarial", n, len(dims), rng)
        verdict = riesz_multiplier_verdict(sym, v, w)
        if not (verdict.indeterminate and verdict.consistent):
            not_flagged += 1
    _verdict(
        7,
        "symbol bound decides invertibility on Riesz pairs",
        inconsistent == 0 and not_flagged == 0,
        f"{inconsistent} inconsistent, {not_flagged} near-threshold not flagged",
    )


def test_criterion_08_invertible_multiplier_consequences():
    rng = _rng("consequences")
    checked, ok = 0, True
    while checked < 50:
        sym, v, w = _pair_with_symbol(rng)
        if not assemble_multiplier(sym, v, w).invertible:
            continue
        rep = invertible_multiplier_consequences(sym, v, w)
        ok = ok and rep.all_frames and rep.lower_bound_ok
        ok = ok and rep.excess_w_preserved and rep.excess_v_preserved
        ok = ok and rep.excess_pair_equal
        checked += 1
    _verdict(8, "invertible multiplier consequences", ok, f"{checked} instances checked")


def test_criterion_09_inverse_representation():
    rng = _rng("qdagger")
    worst, probe_min = 0.0, np.inf
    checked = 0
    while checked < 50:
        sym, v, w = _pair_with_symbol(rng)
        rep0 = assemble_multiplier(sym, v, w)
        if not rep0.invertible or rep0.sigma_min < 1e-3 * rep0.sigma_max:
            continue
        a_v = v.embedding
        canonical = canonical_ov_dual(a_v).analysis
        duals = np.concatenate([canonical[None], sample_ov_duals(a_v, 4, rng, DEFAULT_TOL)])
        worst = max(worst, *inverse_representation_residuals(sym, v, w, duals))
        probe_min = min(probe_min, inverse_representation_probe(sym, v, w, duals, rng=rng))
        checked += 1
    _verdict(
        9,
        "inverse as reciprocal-symbol multiplier",
        worst <= EQ and probe_min >= 1e-4,
        f"max residual {worst:.3e}, weakest probe {probe_min:.3e}",
    )


def test_criterion_10_local_frame_equivalence():
    rng = _rng("local")
    worst, control_min = 0.0, np.inf
    for trial in range(50):
        sym, v, w = _pair_with_symbol(rng)
        family = build_local_frames(w, trial % 4, rng)
        worst = max(worst, local_frame_equivalence(sym, v, w, family))
        family = build_local_frames(w, 1 + trial % 3, rng)
        broken = LocalFrameFamily(family.frames, family.frames, family.alpha, family.beta)
        control_min = min(control_min, local_frame_equivalence(sym, v, w, broken))
    _verdict(
        10,
        "local-frame lift of the multiplier",
        worst <= EQ and control_min > 1e-3,
        f"max residual {worst:.3e}, weakest control {control_min:.3e}",
    )


def test_criterion_11_comparison_contrast():
    inst = cross_swap_instance()
    ones = np.ones(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    worst = max(
        spectral_norm(projection_composition_multiplier(ones, inst.v, inst.w)),
        spectral_norm(gavruta_multiplier(ones, inst.v, inst.w)),
        spectral_norm(assemble_multiplier(inst.symbol, inst.v, inst.w).matrix - swap),
    )
    _verdict(11, "projection forms vanish, symbol form swaps", worst <= 1e-12,
             f"max deviation {worst:.3e}")


def test_criterion_12_schatten_bounds():
    rng = _rng("schatten")
    worst_defect = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        rank = int(rng.integers(1, min(2, n) + 1))
        r = np.array(
            [
                (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
                @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
                for _ in range(count)
            ]
        )
        m = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        sym = Symbol(m, r)
        for p in (1.0, 2.0, 4.0):
            rep = schatten_checks(sym, v, w, p)
            worst_defect = max(worst_defect, rep.block_sval_defect)
            ok = ok and rep.composite_ok and rep.rank_ok
    _verdict(
        12,
        "Schatten bounds",
        ok and worst_defect <= EQ,
        f"max multiset defect {worst_defect:.3e}",
    )


def test_criterion_13_norm_bound():
    rng = _rng("normbound")
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 5))
        v = random_fusion_frame(n, count, rng)
        w = random_fusion_frame(n, count, rng, dims=v.dims)
        mode = ("random_C_holding", "random_C_failing", "identity")[int(rng.integers(0, 3))]
        sym = random_symbol(mode, n, count, rng)
        rep = assemble_multiplier(sym, v, w)
        worst = max(worst, (rep.sigma_max - rep.norm_bound) / max(1.0, rep.norm_bound))
    _verdict(13, "multiplier norm bound", worst <= EQ, f"worst slack {worst:.3e}")


def test_criterion_14_cli_contract(tmp_path):
    gen_args = [
        "gen", "--dim", "3", "--blocks", "3", "--dims", "1,2,2",
        "--symbol", "random_C_holding", "--seed", "42",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok = cli_main(gen_args + ["-o", str(a)]) == 0
    ok = ok and cli_main(gen_args + ["-o", str(b)]) == 0
    ok = ok and a.read_bytes() == b.read_bytes()
    ok = ok and a.read_bytes() == (DATA / "golden_instance.json").read_bytes()

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok = ok and cli_main(["check", "--suite", "all", str(a), "--report", str(r1)]) == 0
    ok = ok and cli_main(["check", "--suite", "all", str(a), "--report", str(r2)]) == 0

    def strip(path):
        doc = json.loads(Path(path).read_text())
        doc.pop("wall_time", None)
        return doc

    ok = ok and strip(r1) == strip(r2)
    ok = ok and strip(r1) == strip(DATA / "golden_report.json")
    ok = ok and cli_main(
        ["check", "--suite", "duals", str(a), "--tol-eq", "1e-30",
         "--report", str(tmp_path / "rf.json")]
    ) == 1
    ok = ok and cli_main(["check", "--suite", "duals", "missing.json"]) == 2
    _verdict(14, "CLI determinism and exit codes", ok, "golden files and exit codes verified")
