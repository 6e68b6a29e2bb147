"""The |m|-reweighted sequence of fusion.scale_weights is a view of its parent:
it shares the parent's subspaces and projection stack, empties the nonzero
blocks whose new weight is 0, and holds, bit for bit, what the public
constructor builds from the same subspaces and weights
(conftest.reference_scale_weights). The symbol keeps the view of each sequence,
so the two checks that read the consequences of an invertible multiplier give
the same results in any order, and a repeat call reads the same views."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from conftest import coordinate_decomposition, reference_scale_weights
from fusionframes import checks, multipliers
from fusionframes.exceptions import ContractViolationError
from fusionframes.fusion import FusionSequence, Subspace, excess, scale_weights
from fusionframes.instances import InstanceSpec, generate_instance
from fusionframes.numerics import DEFAULT_TOL, ToleranceConfig
from test_generated_sweep import _specs

W24_FAILING = InstanceSpec(12, 24, (1, 2, 3, 4, 5, 6) * 4, (0.5, 2.0), "random_C_failing", 1)
# the generated sweep, which reaches zero-weight blocks and every symbol mode, and
# the w24 shape with a failing symbol, whose m empties a third of the blocks
SPECS = [spec for spec, _ in _specs()] + [W24_FAILING]


def _scaled_pairs():
    """(parent, factors) over :data:`SPECS`; factors are the symbol's m."""
    for spec in SPECS:
        inst = generate_instance(spec)
        for f in (inst.w, inst.v):
            yield f, inst.symbol.m


PAIRS = list(_scaled_pairs())


def _bits(x):
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


def test_the_population_empties_blocks_and_has_zero_weight_parents():
    emptied = [int(np.sum((f.weights > 0) & (m == 0))) for f, m in PAIRS]
    assert sum(e > 0 for e in emptied) >= 100 and max(emptied) == 8
    assert sum(bool(np.any(f.weights == 0)) for f, _ in PAIRS) >= 250
    assert sum(bool(np.all(m != 0)) for _, m in PAIRS) >= 400


def test_the_view_shares_the_subspaces_of_its_parent():
    for f, m in PAIRS:
        view = scale_weights(f, m)
        emptied = (f.weights > 0) & (m == 0)
        zeros = {id(s) for s, out in zip(view.subspaces, emptied) if out}
        assert len(zeros) == int(emptied.any())
        for s, parent, out in zip(view.subspaces, f.subspaces, emptied):
            if out:
                assert s.dim == 0 and s.ambient_dim == f.ambient_dim
            else:
                assert s is parent


def test_with_no_block_emptied_the_view_shares_the_projection_stack():
    shared = 0
    for f, m in PAIRS:
        if np.all(m != 0):
            assert scale_weights(f, m).projections is f.projections
            shared += 1
    assert shared >= 400


def test_emptied_blocks_get_a_zero_subspace_and_a_zero_projection():
    for f, m in PAIRS:
        emptied = (f.weights > 0) & (m == 0)
        if not emptied.any():
            continue
        view = scale_weights(f, m)
        assert view.projections is not f.projections
        assert not view.projections.flags.writeable
        assert not np.any(view.projections[emptied])
        assert np.array_equal(view.projections[~emptied], f.projections[~emptied])
        assert np.all(view.weights[emptied] == 0.0)
        assert [s.dim for s in view.subspaces] == [0 if out else d for d, out in zip(f.dims, emptied)]


def test_the_view_holds_the_constructor_facts_bit_for_bit():
    loose = ToleranceConfig(rank_rel=1e-8)
    for f, m in PAIRS:
        view, ref = scale_weights(f, m), reference_scale_weights(f, m)
        assert _bits(view.weights) == _bits(ref.weights)
        assert view.dims == ref.dims
        assert _bits(view.projections) == _bits(ref.projections)
        assert _bits(view.embedding.blocks) == _bits(ref.embedding.blocks)
        assert _bits(view.embedding.frame_bounds) == _bits(ref.embedding.frame_bounds)
        assert _bits(view.synthesis_svals) == _bits(ref.synthesis_svals)
        for tol in (DEFAULT_TOL, loose):
            assert excess(view, tol) == excess(ref, tol)


def _outcome(call):
    """What ``call`` raises, with its message, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            call()
        except ContractViolationError as exc:
            raised = str(exc)
        else:
            raised = None
    return raised, [str(w.message) for w in seen]


BIG = float(np.sqrt(np.finfo(np.float64).max))
WITH_ZERO = FusionSequence((Subspace.full(2), Subspace.zero(2)), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "f, factors",
    [
        (coordinate_decomposition(2), [1.0]),
        (coordinate_decomposition(2), [1.0, 1.0, 1.0]),
        (coordinate_decomposition(2), [1.0, np.inf]),
        (WITH_ZERO, [1.0, np.inf]),
        (coordinate_decomposition(2, [1e150, 1.0]), [1e160, 1.0]),
        (coordinate_decomposition(2), [0.75 * BIG, 0.75 * BIG]),
    ],
    ids=["too_few", "too_many", "infinite", "infinite_times_zero_weight",
         "product_overflows", "frame_operator_overflows"],
)
def test_a_factor_that_breaks_a_rule_raises_as_the_constructor_route(f, factors):
    got = _outcome(lambda: scale_weights(f, factors))
    assert got[0] is not None
    assert got == _outcome(lambda: reference_scale_weights(f, factors))


CONSEQUENCES = ("invertible_multiplier_frames", "excess_invariance")


def _run(spec, names):
    """The results of the named checks, run in that order on one fresh instance of
    ``spec``, each only where it applies."""
    inst = generate_instance(spec)
    out = {}
    for name in names:
        check = checks.CHECKS[name]
        if check.applies(inst, DEFAULT_TOL):
            out[name] = check.run(inst, checks._check_rng(inst.seed, name), DEFAULT_TOL)
    return out


def test_both_consequence_checks_give_the_same_results_in_any_order():
    ran = 0
    for spec in SPECS:
        alone = {**_run(spec, CONSEQUENCES[:1]), **_run(spec, CONSEQUENCES[1:])}
        assert _run(spec, CONSEQUENCES) == alone
        assert _run(spec, CONSEQUENCES[::-1]) == alone
        ran += len(alone) == 2
    assert ran >= 200


def test_a_repeat_call_reads_the_same_views_of_v_and_w(monkeypatch):
    read = []
    monkeypatch.setattr(multipliers, "excess", lambda f, tol: read.append(f) or excess(f, tol))
    held = emptied_held = 0
    for spec in SPECS:
        inst = generate_instance(spec)
        sym, v, w = inst.symbol, inst.v, inst.w
        if not multipliers.assemble_multiplier(sym, v, w).invertible:
            continue
        read.clear()
        first = multipliers.invertible_multiplier_consequences(sym, v, w)
        assert multipliers.invertible_multiplier_consequences(sym, v, w) == first
        assert read[:2] == [w, v] and read[4:6] == [w, v]
        views = read[2:4]
        assert read[6:] == views
        for view, parent in zip(views, (w, v)):
            emptied = (parent.weights > 0) & (sym.m == 0)
            assert all(s is p for s, p, out in zip(view.subspaces, parent.subspaces, emptied) if not out)
            emptied_held += bool(emptied.any())
        held += 1
    assert held >= 200 and emptied_held >= 50
    # the views are held by the symbol only, so they go when the instance does
    gone = [weakref.ref(view) for view in views]
    del inst, sym, v, w, views, view
    read.clear()
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
