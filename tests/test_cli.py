"""CLI contract: determinism, golden files, exit codes."""

import base64
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fusionframes
from fusionframes.cli import main
from fusionframes.exceptions import NumericFailureError
from fusionframes.fusion import FusionSequence
from fusionframes.instances import generate_instance, load_instance, save_instance
from fusionframes.multipliers import Symbol, assemble_multiplier, norm_bound, schatten_checks

DATA = Path(__file__).parent / "data"
GOLDEN_INSTANCE = DATA / "golden_instance.json"
GOLDEN_INSTANCE_FFV1 = DATA / "golden_instance_ffv1.json"
GOLDEN_REPORT = DATA / "golden_report.json"
GEN_ARGS = [
    "gen", "--dim", "3", "--blocks", "3", "--dims", "1,2,2",
    "--symbol", "random_C_holding", "--seed", "42",
]
# stored local frames: ffv2 local arrays, the loader's reconstruction rule and the
# lift on stored frames, with one zero block
GOLDEN_INSTANCE_LOCAL = DATA / "golden_instance_local.json"
GOLDEN_REPORT_LOCAL = DATA / "golden_report_local.json"
LOCAL_GEN_ARGS = [
    "gen", "--dim", "5", "--blocks", "4", "--dims", "1,2,0,4", "--local", "2", "--seed", "3",
]


def _strip_wall_time(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("wall_time", None)
    return doc


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(GEN_ARGS + ["-o", str(a)]) == 0
    assert main(GEN_ARGS + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_matches_golden(tmp_path):
    out = tmp_path / "inst.json"
    assert main(GEN_ARGS + ["-o", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_INSTANCE.read_bytes()


def test_check_report_matches_golden(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "all", str(GOLDEN_INSTANCE), "--report", str(out)])
    assert code == 0
    assert _strip_wall_time(out.read_text()) == _strip_wall_time(GOLDEN_REPORT.read_text())


def test_gen_with_local_frames_matches_golden(tmp_path):
    out = tmp_path / "inst.json"
    assert main(LOCAL_GEN_ARGS + ["-o", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_INSTANCE_LOCAL.read_bytes()


def test_check_report_on_stored_local_frames_matches_golden(tmp_path):
    assert json.loads(GOLDEN_INSTANCE_LOCAL.read_text())["local"] is not None
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "all", str(GOLDEN_INSTANCE_LOCAL), "--report", str(out)])
    assert code == 0
    assert _strip_wall_time(out.read_text()) == _strip_wall_time(GOLDEN_REPORT_LOCAL.read_text())


def test_check_report_on_the_ffv1_golden_instance_matches_golden(tmp_path):
    # the same instance written by the earlier [re, im] writer gives the same report
    assert json.loads(GOLDEN_INSTANCE_FFV1.read_text())["schema"] == "ffv1"
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "all", str(GOLDEN_INSTANCE_FFV1), "--report", str(out)])
    assert code == 0
    assert _strip_wall_time(out.read_text()) == _strip_wall_time(GOLDEN_REPORT.read_text())


def test_check_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["check", "--suite", "multipliers", "--random", "3", "--seed", "9"]
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    assert _strip_wall_time(a.read_text()) == _strip_wall_time(b.read_text())


def test_report_schema(tmp_path):
    out = tmp_path / "report.json"
    main(["check", "--suite", "duals", str(GOLDEN_INSTANCE), "--report", str(out)])
    doc = json.loads(out.read_text())
    assert doc["schema"] == "ffv1-report"
    assert doc["suite"] == "duals"
    assert set(doc["summary"]) == {"pass", "fail", "indeterminate"}
    for entry in doc["checks"]:
        assert {"name", "anchor", "residual", "tolerance", "verdict"} <= set(entry)
        assert entry["verdict"] in ("pass", "fail", "indeterminate")
        if entry["verdict"] == "pass":
            assert entry["residual"] <= entry["tolerance"]
        elif entry["verdict"] == "fail":
            assert entry["residual"] > entry["tolerance"]


def test_exit_code_failure_on_tight_tolerance(tmp_path):
    code = main(
        ["check", "--suite", "duals", str(GOLDEN_INSTANCE),
         "--tol-eq", "1e-30", "--report", str(tmp_path / "r.json")]
    )
    assert code == 1


def test_exit_code_missing_file():
    assert main(["check", "--suite", "duals", "no_such_file.json"]) == 2


def test_exit_code_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check", "--suite", "duals", str(bad)]) == 2


def test_exit_code_malformed_instance_files(tmp_path):
    no_keys = tmp_path / "no_keys.json"
    no_keys.write_text('{"schema": "ffv1"}')
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    del doc["w"]["subspaces"][0]["basis"]
    no_basis = tmp_path / "no_basis.json"
    no_basis.write_text(json.dumps(doc))
    for path in (no_keys, no_basis):
        assert main(["check", "--suite", "duals", str(path)]) == 2


def test_exit_code_symbol_whose_products_overflow(tmp_path, capsys):
    # a large scalar alone is a valid symbol; with a block of the same size
    # |m_0| sigma_max(R_0) is inf, and with m_0 = 5e307 and both block-0
    # weights 2, |m_0| sigma_max(R_0) = 1e308 is finite but |m_0| v_0 w_0
    # sigma_max(R_0) is not; each used to abort four multiplier checks, the
    # second with an overflow warning
    doc = json.loads(GOLDEN_INSTANCE_FFV1.read_text())
    doc["symbol"]["m"][0] = [1e300, 0.0]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    args = ["check", "--suite", "multipliers", str(path), "--report", str(tmp_path / "r.json")]
    assert main(args) == 0
    capsys.readouterr()
    big_block = json.loads(json.dumps(doc))
    big_block["symbol"]["r"][0][0][0] = [1e300, 0.0]
    big_weights = json.loads(json.dumps(doc))
    big_weights["symbol"]["m"][0] = [5e307, 0.0]
    big_weights["w"]["weights"][0] = big_weights["v"]["weights"][0] = 2.0
    for bad in (big_block, big_weights):
        path.write_text(json.dumps(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load instance: symbol: ")


def _huge_norm_bound_instance(case: str) -> dict:
    """A loadable instance on which sqrt(beta_V beta_W) m_sup overflows, and so does
    its product with r_sup unless every R_i is 0."""
    if case == "m0_2e307":
        doc = json.loads(GOLDEN_INSTANCE.read_text())
        m = np.frombuffer(base64.b64decode(doc["symbol"]["m"]), dtype="<c16").copy()
        m[0] = 2e307
        doc["symbol"]["m"] = _b64(m)
        return doc
    doc = json.loads(GOLDEN_INSTANCE_FFV1.read_text())
    doc["symbol"]["m"][0] = [1e300, 0.0]
    for key in ("v", "w"):
        doc[key]["weights"][:2] = [1e-10, 1e10]
    if case.endswith("zero_r"):
        n = doc["n"]
        doc["symbol"]["r"] = [[[[0.0, 0.0]] * n] * n] * doc["blocks"]
    return doc


@pytest.mark.parametrize("case, bound", [
    ("m0_2e307", np.finfo(np.float64).max),
    ("ffv1_m0_1e300_spread_weights", np.finfo(np.float64).max),
    ("ffv1_m0_1e300_spread_weights_zero_r", 0.0),
])
def test_a_norm_bound_that_overflows_saturates_without_a_warning(tmp_path, capsys, case, bound):
    # the bound sqrt(beta_V beta_W) m_sup r_sup used to overflow to inf with a
    # RuntimeWarning, a traceback under warnings as errors; saturated at the
    # largest float it is finite and still bounds sigma_max, and with r_sup = 0
    # it is 0, not the NaN of inf * 0
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_huge_norm_bound_instance(case)))
    inst = load_instance(path)
    reports = {suite: tmp_path / f"{suite}.json" for suite in ("multipliers", "local")}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for suite, report in reports.items():
            assert main(["check", "--suite", suite, str(path), "--report", str(report)]) == 0
        rep = assemble_multiplier(inst.symbol, inst.v, inst.w)
        got = norm_bound(inst.symbol, inst.v, inst.w)
    capsys.readouterr()
    checks = json.loads(reports["multipliers"].read_text())["checks"]
    entry = next(e for e in checks if e["name"] == "multiplier_norm_bound")
    assert entry["verdict"] == "pass" and entry["residual"] == 0.0
    assert rep.sigma_max <= got == bound


def test_schatten_norms_stay_finite_on_a_loadable_symbol_with_a_huge_scalar(tmp_path, capsys):
    # m_0 = 1e80 passes every load rule and every bound is a finite float, but a
    # direct sum of s_i^4 overflows, which made both Schatten bounds read
    # inf <= inf at p = 4 and pass without certifying anything
    doc = json.loads(GOLDEN_INSTANCE.read_text())
    m = np.frombuffer(base64.b64decode(doc["symbol"]["m"]), dtype="<c16").copy()
    m[0] = 1e80
    doc["symbol"]["m"] = _b64(m)
    path = tmp_path / "huge_m0.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "--suite", "schatten", str(path)]) == 0
        rep = schatten_checks(inst.symbol, inst.v, inst.w, 4.0)
    assert json.loads(capsys.readouterr().out)["summary"] == {
        "pass": 3, "fail": 0, "indeterminate": 0
    }
    values = tuple(rep)
    assert np.all(np.isfinite(values))
    assert 1e80 < rep.composite_norm <= rep.composite_bound
    assert rep.block_norm <= rep.rank_bound


@pytest.mark.parametrize("case", ["weights_1e150", "weights_1e-100_blocks_1e-70"])
def test_the_reweighted_lower_bound_is_compared_at_any_scale(tmp_path, capsys, case):
    # sigma_min^2 / (beta_V r_sup^2), formed in Python floats, raised OverflowError
    # on the first instance and ZeroDivisionError on the second, both loadable, so
    # check died with a traceback
    path, report = tmp_path / "inst.json", tmp_path / "report.json"
    gen = ["gen", "--dim", "3", "--blocks", "3", "--dims", "1,1,1", "-o", str(path)]
    if case == "weights_1e150":
        assert main(gen + ["--weights", "1e150,1e150"]) == 0
    else:
        assert main(gen) == 0
        inst = load_instance(path)
        tiny = [FusionSequence(f.subspaces, 1e-100 * f.weights) for f in (inst.w, inst.v)]
        symbol = Symbol(inst.symbol.m, 1e-70 * inst.symbol.r)
        save_instance(dataclasses.replace(inst, w=tiny[0], v=tiny[1], symbol=symbol), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["check", "--suite", "multipliers", str(path), "--report", str(report)])
    capsys.readouterr()
    # the inverse checks may still abort at these scales (weight-scale invariance)
    assert code in (0, 1)
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    for name in ("invertible_multiplier_frames", "excess_invariance"):
        assert entries[name]["verdict"] == "pass"



def test_frame_bounds_of_a_frame_operator_near_the_largest_float_are_finite(tmp_path, capsys):
    # S = w^2 I with w = 1.3e154 loads, since sum_i w_i^2 fits the float range, but
    # S + S^* overflowed: the bounds read NaN, every frame-gated check was skipped,
    # and check --suite all passed 8 of 8, two of them against NaN bounds; with
    # finite bounds the Schatten composite bound at p = 1 read inf <= inf and passed;
    # the local lift, whose terms v_i w_i = 1.69e308 overflow in its matmul, ended
    # the local suite in a traceback under warnings as errors
    path = tmp_path / "big.json"
    gen = ["gen", "--dim", "2", "--blocks", "1", "--dims", "2", "--weights", "1.3e154,1.3e154"]
    assert main(gen + ["--symbol", "identity", "-o", str(path)]) == 0
    inst = load_instance(path)
    lo, hi = inst.w.embedding.frame_bounds
    assert 0.0 < lo <= hi < np.inf
    entries = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for suite in ("schatten", "multipliers", "duals", "local"):
            report = tmp_path / f"{suite}.json"
            assert main(["check", "--suite", suite, str(path), "--report", str(report)]) == 1
            entries.update((e["name"], e) for e in json.loads(report.read_text())["checks"])
        rep = assemble_multiplier(inst.symbol, inst.v, inst.w)
        bound = norm_bound(inst.symbol, inst.v, inst.w)
    capsys.readouterr()
    # the frame-gated checks run
    assert {"ovf_canonical_dual", "invertible_multiplier_frames"} <= set(entries)
    composite = entries["schatten_composite_bound"]
    assert composite["verdict"] == "fail" and composite["residual"] == np.inf
    assert entries["multiplier_norm_bound"]["verdict"] == "pass"
    assert rep.sigma_max <= bound < np.inf
    assert entries["local_equivalence"]["verdict"] == "pass"
    assert entries["local_negative_control"]["residual"] == 1e300  # aborted

def test_loose_rank_tolerance_reaches_the_rank_certificate(tmp_path):
    report = tmp_path / "r.json"
    args = ["check", "--suite", "duals", str(GOLDEN_INSTANCE), "--tol-rank", "0.3"]
    assert main(args + ["--report", str(report)]) == 1
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    assert entries["dual_span"]["verdict"] == "fail"
    assert entries["dual_span"]["residual"] > 0.0


def test_check_usage_errors_exit_2_with_one_error_line(capsys):
    cases = (
        (["--tol-eq", "0", str(GOLDEN_INSTANCE)], "error: eq_rel must lie strictly between 0 and 1"),
        (["--random", "0"], "error: --random needs a positive count"),
        (["--random", "1", "--seed", "-5"], "error: --seed must lie in [0, 2**64 - COUNT]"),
        (["--random", "2", "--seed", str(2**64 - 1)], "error: --seed must lie in [0, 2**64 - COUNT]"),
        # a file's checks seed from the file, so a --seed beside it would be ignored
        ([str(GOLDEN_INSTANCE), "--seed", "3"], "error: --seed applies to --random only"),
    )
    for extra, message in cases:
        assert main(["check", "--suite", "duals", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_check_random_releases_each_instance_once_its_checks_have_run(monkeypatch, capsys):
    import weakref

    from fusionframes import checks, cli

    generated, live = [], []

    def generate(spec):
        inst = generate_instance(spec)
        generated.append(weakref.ref(inst))
        return inst

    probe = checks.CHECKS["schatten_rank_bound"]

    def run(inst, rng, tol):
        live.append(sum(ref() is not None for ref in generated))
        return probe.run(inst, rng, tol)

    monkeypatch.setattr(cli, "generate_instance", generate)
    monkeypatch.setitem(checks.CHECKS, probe.name, dataclasses.replace(probe, run=run))
    assert main(["check", "--suite", "schatten", "--random", "4"]) == 0
    assert live == [4, 3, 2, 1]


def test_report_path_in_a_missing_directory_exits_2_without_stdout(tmp_path, capsys):
    report = tmp_path / "missing" / "r.json"
    assert main(["check", "--suite", "schatten", str(GOLDEN_INSTANCE), "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not report.exists()


def test_run_suite_rejects_an_unknown_suite():
    from fusionframes.checks import run_suite
    from fusionframes.exceptions import ContractViolationError

    with pytest.raises(ContractViolationError, match="unknown suite 'bogus'"):
        run_suite("bogus", [])


def test_exit_code_bad_suite():
    with pytest.raises(SystemExit) as info:
        main(["check", "--suite", "bogus", str(GOLDEN_INSTANCE)])
    assert info.value.code == 2


def test_exit_code_conflicting_inputs():
    assert main(["check", "--suite", "duals"]) == 2
    assert main(["check", "--suite", "duals", str(GOLDEN_INSTANCE), "--random", "2"]) == 2


def test_gen_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["gen", "--dim", "0", "--blocks", "1", "--dims", "0", "-o", out]) == 2
    assert main(["gen", "--dim", "3", "--blocks", "2", "--dims", "1", "-o", out]) == 2
    with pytest.raises(SystemExit) as info:
        main(["gen", "--dim", "3", "--blocks", "2", "--dims", "1,1",
              "--symbol", "bogus", "-o", out])
    assert info.value.code == 2


def test_explain_known_and_unknown(capsys):
    assert main(["explain", "dual_span"]) == 0
    out = capsys.readouterr().out
    assert "rank[T_A S_A^-1 | P_ker(T_A^*) E_rs] = N*k" in out
    assert main(["explain", "riesz_symbol_iff"]) == 0
    assert main(["explain", "inverse_multiplier_dual"]) == 0
    assert main(["explain", "definitely_not_a_check"]) == 2


def test_gen_with_local_frames(tmp_path):
    out = tmp_path / "inst.json"
    assert main(GEN_ARGS + ["--local", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["local"]["redundancy"] == 2
    code = main(["check", "--suite", "local", str(out), "--report", str(tmp_path / "r.json")])
    assert code == 0


@pytest.mark.parametrize("redundancy", ["65", "1000000000000", "-1"])
def test_gen_rejects_local_redundancy_outside_the_limit(tmp_path, capsys, redundancy):
    # the bound is checked before the d x (d + R) draw, so nothing is allocated;
    # a huge R used to end in an uncaught MemoryError
    out = tmp_path / "inst.json"
    assert main(GEN_ARGS + ["--local", redundancy, "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: local redundancy must be in 0..64, got {redundancy}"]
    assert not out.exists()


def test_gen_accepts_the_largest_local_redundancy(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--dim", "1", "--blocks", "1", "--dims", "1",
                 "--local", "64", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["local"]["redundancy"] == 64


def test_check_writes_to_stdout_without_report(capsys):
    code = main(["check", "--suite", "schatten", str(GOLDEN_INSTANCE)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "ffv1-report"


def test_the_report_is_streamed_with_the_bytes_of_one_dumps(tmp_path, monkeypatch, capsys):
    # 20,000 entries, among them the abort sentinel and non-finite residuals: their
    # text alone is megabytes and its list of chunks tens of megabytes, while the
    # stream holds a chunk at a time
    import tracemalloc

    from fusionframes import cli

    residuals = [0.25, 1e300, float("inf"), float("nan"), 3.0e-17]
    entries = [
        {"name": "dual_span", "trial": t, "anchor": "Thm 3.4", "residual": residuals[t % 5],
         "tolerance": 1e-8, "verdict": ("pass", "fail", "indeterminate")[t % 3]}
        for t in range(20_000)
    ]
    report = {"schema": "ffv1-report", "suite": "all", "seed": 7, "checks": entries,
              "summary": {"pass": 0, "fail": 0, "indeterminate": 0}, "wall_time": 1.5}
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: report)
    want = json.dumps(report, indent=2) + "\n"
    path = tmp_path / "r.json"
    argv = ["check", "--suite", "all", str(GOLDEN_INSTANCE)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv + ["--report", str(path)]) == 0
        lift = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == want.encode("utf-8")
    assert lift < 2 * 2**20, f"lift {lift / 2**20:.1f} MiB"
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_single_small_full_block_gets_a_verdict(tmp_path):
    # no random weight doubling or subspace redraw moves the only block by
    # 0.1 here, so separating_dual_distinct needs its by-construction copy;
    # the subprocess turns a hang into a failure after the stated bound
    inst = tmp_path / "single.json"
    assert main(["gen", "--dim", "3", "--blocks", "1", "--dims", "3",
                 "--weights", "0.01,0.05", "-o", str(inst)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(fusionframes.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "fusionframes.cli", "check", "--suite", "duals", str(inst)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert done.returncode == 0, done.stderr
    verdicts = {e["name"]: e["verdict"] for e in json.loads(done.stdout)["checks"]}
    assert verdicts["separating_dual_distinct"] == "pass"


# Adversarial instances whose symbol sits near the invertibility cutoff. Each
# inverse check fails on one of them by rounding; the residual that fails is
# still reported, with the verdict indeterminate.
NEAR_CUTOFF_CASES = [
    (
        ["--dim", "2", "--blocks", "5", "--dims", "1,1,0,2,1", "--seed", "17", "--local", "1"],
        "inverse_multiplier_dual",
        2.621457157962188e-08,
    ),
    (
        ["--dim", "3", "--blocks", "2", "--dims", "3,0", "--seed", "30"],
        "inverse_multiplier_uniqueness",
        0.9999722120078438,
    ),
]


@pytest.mark.parametrize("gen_args, name, residual", NEAR_CUTOFF_CASES)
def test_near_cutoff_inverse_checks_are_indeterminate(tmp_path, gen_args, name, residual):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", *gen_args, "--symbol", "adversarial", "-o", str(inst)]) == 0
    assert main(["check", "--suite", "all", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    for check in ("inverse_multiplier_dual", "inverse_multiplier_uniqueness"):
        assert entries[check]["verdict"] == "indeterminate"
    assert entries[name]["residual"] > entries[name]["tolerance"]
    assert entries[name]["residual"] == pytest.approx(residual, rel=1e-6)


@pytest.mark.parametrize(
    "gen_args",
    [
        # the probe is exactly 0 here, so the check used to fail
        ["--dim", "1", "--blocks", "1", "--dims", "1", "--symbol", "identity"],
        # the probe is rounding noise here, so the check used to pass on it
        ["--dim", "3", "--blocks", "1", "--dims", "3", "--seed", "0"],
    ],
    ids=["n1_identity", "single_full_block"],
)
def test_uniqueness_probe_without_kernel_is_indeterminate(tmp_path, gen_args):
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", *gen_args, "-o", str(inst)]) == 0
    assert main(["check", "--suite", "all", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    assert entries["inverse_multiplier_uniqueness"]["verdict"] == "indeterminate"


def _b64(a) -> str:
    return base64.b64encode(np.asarray(a, dtype="<c16").tobytes()).decode("ascii")


def _malformed(doc, case):
    if case == "local_rows":
        # three rows of three entries where rows of n = 2 are declared
        doc["local"]["frames"][0] = _b64(np.ones((3, 3)))
    elif case == "negative_seed":
        doc["seed"] = -1
    elif case == "unknown_mode":
        doc["symbol_mode"] = "bogus"
    elif case == "scalar_triple":
        doc["symbol"]["m"] = _b64([1.0, 0.0, 5.0])
    elif case == "blocks_and_dim":
        doc["blocks"] = 7
        doc["w"]["subspaces"][1]["dim"] = 1
    else:
        doc["w"]["subspaces"][1]["dim"] = 1
    return doc


@pytest.mark.parametrize(
    "case",
    ["local_rows", "negative_seed", "unknown_mode", "scalar_triple", "blocks_and_dim", "dim_only"],
)
def test_malformed_documents_exit_2_with_one_error_line(tmp_path, capsys, case):
    # each of these used to crash with a traceback or read as a check verdict
    base = tmp_path / "base.json"
    assert main(["gen", "--dim", "2", "--blocks", "2", "--dims", "1,2", "--seed", "3",
                 "--local", "1", "-o", str(base)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(json.loads(base.read_text()), case)))
    capsys.readouterr()
    assert main(["check", "--suite", "all", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in err[0]


@pytest.mark.parametrize("case", ["zero_frame", "duals_are_frames", "frame_scaled"])
def test_stored_local_frames_that_do_not_reconstruct_exit_2_at_load(tmp_path, capsys, case):
    # a zeroed local.frames[0] used to load and abort local_equivalence with
    # residual 1e300 and exit 1
    base = tmp_path / "base.json"
    assert main(["gen", "--dim", "4", "--blocks", "3", "--dims", "2,2,3", "--seed", "3",
                 "--local", "1", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    local = doc["local"]
    phi = np.frombuffer(base64.b64decode(local["frames"][0]), dtype="<c16")
    if case == "zero_frame":
        local["frames"][0] = _b64(np.zeros_like(phi))
    elif case == "duals_are_frames":
        local["duals"][0] = local["frames"][0]
    else:
        local["frames"][0] = _b64((1.0 + 1e-6) * phi)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--suite", "local", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "local.frames[0]" in err[0]


def test_stored_local_frames_of_generated_families_reconstruct_within_rounding(tmp_path):
    # the load-time test leaves a wide margin on every family gen writes
    from fusionframes.instances import load_instance

    worst = 0.0
    for redundancy, seed in ((0, 1), (3, 2), (64, 3)):
        out = tmp_path / f"r{redundancy}.json"
        assert main(["gen", "--dim", "6", "--blocks", "4", "--dims", "1,0,4,6", "--seed",
                     str(seed), "--local", str(redundancy), "-o", str(out)]) == 0
        inst = load_instance(out)
        for i, (phi, dual) in enumerate(zip(inst.local.frames, inst.local.duals)):
            if phi is not None:
                recon = dual.T @ phi.conj()
                worst = max(worst, float(np.linalg.norm(recon - inst.w.projections[i])))
    assert worst < 1e-12


def test_weights_that_overflow_the_frame_operator_exit_2_with_one_error_line(tmp_path, capsys):
    # w_i^2 overflows: gen used to write this file and check to crash in eigvalsh
    out = tmp_path / "e.json"
    args = ["gen", "--dim", "4", "--blocks", "2", "--dims", "2,2", "--weights", "1e308,1e308"]
    capsys.readouterr()
    assert main(args + ["-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "overflow" in err[0]
    assert not out.exists()
    # the file the old gen wrote: the same instance with every weight 1e308
    assert main(["gen", "--dim", "4", "--blocks", "2", "--dims", "2,2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["w"]["weights"] = doc["v"]["weights"] = [1e308, 1e308]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--suite", "all", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "overflow" in err[0]


GOLDEN_REFERENCE = DATA / "golden_reference_report.json"


def test_reference_command_matches_golden_reference(tmp_path):
    # the reference command's report, written before the caches on the
    # sequences, frames and symbols existed: caching changes no value
    out = tmp_path / "report.json"
    assert main(["check", "--suite", "all", "--random", "20", "--seed", "7", "--report", str(out)]) == 0
    assert _strip_wall_time(out.read_text()) == _strip_wall_time(GOLDEN_REFERENCE.read_text())


W24 = ["--dim", "12", "--blocks", "24", "--dims", ",".join(["1,2,3,4,5,6"] * 4),
       "--symbol", "random_C_holding", "--local", "2", "--seed", "1"]
W24_FAILING = ["--dim", "12", "--blocks", "24", "--dims", ",".join(["1,2,3,4,5,6"] * 4),
               "--symbol", "random_C_failing", "--local", "2", "--seed", "1"]

GUARD_GOLDENS = (
    # the duals suite on d16 and the multipliers suite on w24, the CI's shapes
    # where the annihilation, admissibility and sampled-dual guards run most; the
    # local and schatten suites on w24 pin the stored local frames a load holds.
    # The failing symbol zeroes 8 of the 24 m_i, so both |m|-scaled sequences of
    # the consequence checks have 8 emptied blocks
    (["--dim", "16", "--blocks", "4", "--dims", "8,12,16,16", "--seed", "1"],
     "duals", DATA / "golden_report_d16_duals.json"),
    (W24, "multipliers", DATA / "golden_report_w24_multipliers.json"),
    (W24, "local", DATA / "golden_report_w24_local.json"),
    (W24, "schatten", DATA / "golden_report_w24_schatten.json"),
    (W24_FAILING, "multipliers", DATA / "golden_report_w24_failing_multipliers.json"),
)


def test_guard_heavy_shapes_match_their_golden_reports(tmp_path):
    for gen_args, suite, golden in GUARD_GOLDENS:
        inst, out = tmp_path / f"{golden.stem}.json", tmp_path / f"{golden.stem}-report.json"
        assert main(["gen", *gen_args, "-o", str(inst)]) == 0
        assert main(["check", "--suite", suite, str(inst), "--report", str(out)]) == 0
        assert _strip_wall_time(out.read_text()) == _strip_wall_time(golden.read_text())


def test_condition_c_coherence_near_cutoff_is_indeterminate(tmp_path):
    # used to fail at 1.088e-8 against eq_rel 1e-8 while the other
    # near-cutoff checks on the same file read indeterminate
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--dim", "12", "--blocks", "5", "--dims", "12,11,1,9,7",
                 "--symbol", "adversarial", "--seed", "756594", "-o", str(inst)]) == 0
    assert main(["check", "--suite", "multipliers", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    for name in ("condition_c_coherence", "riesz_symbol_iff", "inverse_multiplier_dual"):
        assert entries[name]["verdict"] == "indeterminate"
    coherence = entries["condition_c_coherence"]
    assert coherence["residual"] > coherence["tolerance"]
    assert coherence["residual"] == pytest.approx(1.0882491559364513e-08, rel=1e-6)


def test_local_control_below_unit_scale_is_indeterminate(tmp_path):
    # ||M|| is about 1e-8 here, so the broken lift cannot deviate by 1e-3;
    # the control used to fail with shortfall 0.99983
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--dim", "1", "--blocks", "1", "--dims", "1",
                 "--symbol", "adversarial", "-o", str(inst)]) == 0
    assert main(["check", "--suite", "local", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    control = entries["local_negative_control"]
    assert control["verdict"] == "indeterminate"
    assert control["residual"] == pytest.approx(0.9998342010845709, rel=1e-6)
    assert entries["local_equivalence"]["verdict"] == "pass"


def test_local_frames_of_a_full_twelve_dimensional_block(tmp_path):
    # local frames used to be redrawn until their lower bound reached 0.1,
    # which no draw did at d = 12: local_equivalence aborted
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--dim", "12", "--blocks", "1", "--dims", "12",
                 "--seed", "855340", "-o", str(inst)]) == 0
    assert main(["check", "--suite", "local", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    assert entries["local_equivalence"]["residual"] < 1e-8


def test_local_control_ignores_blocks_outside_the_multiplier(tmp_path):
    # blocks 1 and 2 are zero, so their symbol never enters M (||M|| about
    # 4e-8); the control used to fail with shortfall 0.99996
    inst, report = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--dim", "1", "--blocks", "3", "--dims", "1,0,0",
                 "--symbol", "adversarial", "--seed", "2481027767", "-o", str(inst)]) == 0
    assert main(["check", "--suite", "local", str(inst), "--report", str(report)]) == 0
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    assert entries["local_negative_control"]["verdict"] == "indeterminate"
    assert entries["local_equivalence"]["verdict"] == "pass"


def test_abort_while_deciding_applicability_is_a_failed_entry(tmp_path, monkeypatch):
    # a check whose applies predicate raises used to escape run_suite as a
    # traceback; it is a failed entry carrying the residual sentinel
    from fusionframes import checks

    def raising(inst, tol):
        raise NumericFailureError("svd did not converge")

    aborted = ("invertible_multiplier_frames", "excess_invariance")
    for name in aborted:
        monkeypatch.setitem(
            checks.CHECKS, name, dataclasses.replace(checks.CHECKS[name], applies=raising)
        )
    report = tmp_path / "report.json"
    args = ["check", "--suite", "multipliers", str(GOLDEN_INSTANCE), "--report", str(report)]
    assert main(args) == 1
    entries = {e["name"]: e for e in json.loads(report.read_text())["checks"]}
    for name in aborted:
        assert entries[name]["verdict"] == "fail"
        assert entries[name]["residual"] == 1e300
    assert all(e["verdict"] == "pass" for name, e in entries.items() if name not in aborted)
