"""Instance generation and the ffv2 on-disk format (ffv1 is still read).

Generators are deterministic in the supplied seed or generator object. No
generator here redraws to meet a conditioning floor: instances are drawn
once from their spec, and the checks apply their own cutoffs to whatever
conditioning a draw has, flagging near-cutoff symbols indeterminate.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, FusionFrameError
from .fusion import (
    MAX_REDUNDANCY,
    FusionSequence,
    LocalFrameFamily,
    Subspace,
    _trusted,
    build_local_frames,
    frame_operator_fits,
    haar_subspaces,
    orthogonal_split,
    orthonormal_subspaces,
    subspace_draw,
)
from .multipliers import Symbol
from .numerics import DEFAULT_TOL, INV_REL, by_shape, finite_array, read_only, relative_defect, svd

__all__ = [
    "SYMBOL_MODES",
    "InstanceSpec",
    "Instance",
    "generate_instance",
    "cross_swap_instance",
    "random_partition",
    "random_spanning_dims",
    "random_riesz_bases",
    "random_invertible_matrix",
    "random_symbol",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
]

SYMBOL_MODES = ("identity", "random_C_holding", "random_C_failing", "adversarial")


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one deterministic instance."""

    n: int
    blocks: int
    dims: tuple
    weight_range: tuple
    symbol_mode: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "weight_range", tuple(float(x) for x in self.weight_range))
        _check_sizes(self.n, self.blocks, self.dims, self.symbol_mode, self.seed)
        lo, hi = self.weight_range
        if not (0.0 <= lo <= hi) or not np.isfinite(hi):
            raise ContractViolationError(f"invalid weight range {self.weight_range}")
        if lo <= 0.0 and any(d > 0 for d in self.dims):
            raise ContractViolationError("weight range must be positive for nonzero blocks")
        if not frame_operator_fits(np.full(sum(d > 0 for d in self.dims), hi)):
            raise ContractViolationError(
                f"weight range {self.weight_range}: "
                f"weights up to {hi!r} overflow the frame operator"
            )


def _check_sizes(n: int, blocks: int, dims, symbol_mode: str, seed: int) -> None:
    """The size rules of every instance, whether from a spec or a document."""
    if not (1 <= n <= 64):
        raise ContractViolationError(f"ambient dimension must be in 1..64, got {n}")
    if not (1 <= blocks <= 64):
        raise ContractViolationError(f"block count must be in 1..64, got {blocks}")
    if len(dims) != blocks:
        raise ContractViolationError(f"{blocks} blocks but {len(dims)} dims")
    if any(d < 0 or d > n for d in dims):
        raise ContractViolationError("each subspace dimension must satisfy 0 <= d <= n")
    if symbol_mode not in SYMBOL_MODES:
        raise ContractViolationError(f"unknown symbol mode {symbol_mode!r}, not in {SYMBOL_MODES}")
    if not (0 <= int(seed) < 2**64):
        raise ContractViolationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class Instance:
    """A concrete verification instance: two fusion sequences and a symbol, equal
    only to itself."""

    seed: int
    symbol_mode: str
    w: FusionSequence
    v: FusionSequence
    symbol: Symbol
    local: Optional[LocalFrameFamily] = None


def random_partition(n: int, count: int, rng: np.random.Generator) -> tuple:
    """count positive integers summing to n (requires count <= n)."""
    if count > n:
        raise ContractViolationError(f"cannot split {n} into {count} positive parts")
    dims = np.ones(count, dtype=int)
    for _ in range(n - count):
        dims[int(rng.integers(0, count))] += 1
    return tuple(int(d) for d in dims)


def _random_sequence(n, dims, weight_range, rng) -> FusionSequence:
    """Each block's subspace draw, then its weight, in block order; the draws are
    orthonormalized together by :func:`fusion.haar_subspaces`, and the sequence, whose
    rules a validated :class:`InstanceSpec` fixes, is held without a test."""
    lo, hi = weight_range
    draws, weights = [], []
    for d in dims:
        draws.append(subspace_draw(n, d, rng))
        weights.append(float(rng.uniform(lo, hi)) if d > 0 else 0.0)
    return _trusted(FusionSequence, haar_subspaces(draws), np.asarray(weights))


def random_spanning_dims(n: int, count: int, rng: np.random.Generator) -> tuple:
    """count dimensions in 1..n summing to at least n, so the blocks can span C^n."""
    dims = [int(rng.integers(1, n + 1)) for _ in range(count)]
    while sum(dims) < n:
        dims[int(rng.integers(0, count))] = min(n, dims[int(rng.integers(0, count))] + 1)
    return tuple(dims)


def random_riesz_bases(n: int, rng: np.random.Generator, dims: tuple, count: int) -> tuple:
    """``count`` fusion Riesz bases, each a Haar unitary split into blocks of ``dims``
    and held without a test, with weights uniform in [0.5, 2]: per basis its draw, then
    its weights; the draws are orthonormalized together by :func:`fusion.haar_subspaces`."""
    if not dims or sum(dims) != n or any(d <= 0 for d in dims):
        raise ContractViolationError("Riesz dims must be positive and sum to n")
    draws, weights = [], []
    for _ in range(count):
        draws.append(subspace_draw(n, n, rng))
        weights.append(rng.uniform(0.5, 2.0, len(dims)))
    return tuple(
        _trusted(FusionSequence, orthogonal_split(unitary, dims), wts)
        for unitary, wts in zip(haar_subspaces(draws), weights)
    )


def _invertible_stack(count: int, n: int, rng, s_min: float, s_max: float) -> np.ndarray:
    """``count`` random n x n matrices, each with its singular values rescaled affinely
    onto [s_min, s_max] (all to s_max when they are equal): one Gaussian draw,
    real then imaginary part per matrix, and one stacked SVD."""
    g = rng.standard_normal((count, 2, n, n))
    u, s, vh = svd(g[:, 0] + 1j * g[:, 1])
    span = s[:, :1] - s[:, -1:]
    flat = span == 0.0
    scaled = s_min + (s_max - s_min) * (s - s[:, -1:]) / np.where(flat, 1.0, span)
    return (u * np.where(flat, s_max, scaled)[:, None, :]) @ vh


def random_invertible_matrix(
    n: int,
    rng: np.random.Generator,
    s_min: float = 0.3,
    s_max: float = 2.0,
) -> np.ndarray:
    """Random matrix with singular values rescaled into [s_min, s_max]."""
    return _invertible_stack(1, n, rng, s_min, s_max)[0]


def _annulus(rng, count: int) -> np.ndarray:
    """``count`` random points of the annulus 0.5 <= |z| <= 2, radius and angle
    uniform, drawn point by point, radius then angle."""
    radius, angle = rng.uniform([0.5, 0.0], [2.0, 2.0 * np.pi], size=(count, 2)).T
    points = np.empty(count, dtype=np.complex128)
    points.real, points.imag = radius * np.cos(angle), radius * np.sin(angle)
    return points


def random_symbol(mode: str, n: int, count: int, rng: np.random.Generator) -> Symbol:
    """Symbols by population: identity, clearly two-sided, clearly failing, near cutoff.

    The failing mode zeroes scalar entries rather than merely making some
    R_i singular: a singular R_i compressed between random subspaces can
    still act invertibly, while a vanished scalar removes its block from
    the multiplier entirely.
    """
    if mode not in SYMBOL_MODES:
        raise ContractViolationError(f"unknown symbol mode {mode!r}")
    if mode == "identity":
        return Symbol.identity(n, count)
    r = _invertible_stack(count, n, rng, 0.5, 2.0)
    m = _annulus(rng, count)
    if mode == "random_C_holding":
        return Symbol(m, r)
    if mode == "random_C_failing":
        kill = rng.choice(count, size=max(1, count // 3), replace=False)
        m[kill] = 0.0
        return Symbol(m, r)
    # adversarial: push gamma into the indeterminate band around the cutoff
    delta = Symbol(m, r).condition_c.delta
    ratio = INV_REL * float(np.exp(rng.uniform(np.log(1 / 3), np.log(3.0))))
    target = ratio * delta / abs(m[0])
    u, s, vh = svd(r[0])
    s[-1] = target
    r = r.copy()
    r[0] = u @ np.diag(s) @ vh
    return Symbol(m, r)


def generate_instance(spec: InstanceSpec, local_redundancy: Optional[int] = None) -> Instance:
    """Deterministically expand a spec into a concrete instance."""
    if (
        spec.symbol_mode == "adversarial"
        and spec.n == 2
        and spec.blocks == 2
        and spec.dims == (1, 1)
    ):
        return cross_swap_instance(seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    w = _random_sequence(spec.n, spec.dims, spec.weight_range, rng)
    v = _random_sequence(spec.n, spec.dims, spec.weight_range, rng)
    symbol = random_symbol(spec.symbol_mode, spec.n, spec.blocks, rng)
    _check_symbol(symbol, v, w)
    local = None
    if local_redundancy is not None:
        local = build_local_frames(w, local_redundancy, rng)
    return Instance(
        seed=spec.seed,
        symbol_mode=spec.symbol_mode,
        w=w,
        v=v,
        symbol=symbol,
        local=local,
    )


def cross_swap_instance(seed: int = 0) -> Instance:
    """The hand-built crossed pair in C^2.

    W runs over the coordinate lines and V over the swapped lines, so the
    plain projection compositions cancel to zero while the rank-one symbol
    blocks e2 e1^* and e1 e2^* assemble the invertible swap matrix.
    """
    e1 = np.array([1.0, 0.0], dtype=np.complex128)
    e2 = np.array([0.0, 1.0], dtype=np.complex128)
    w = FusionSequence(
        (Subspace(e1[:, None]), Subspace(e2[:, None])), np.array([1.0, 1.0])
    )
    v = FusionSequence(
        (Subspace(e2[:, None]), Subspace(e1[:, None])), np.array([1.0, 1.0])
    )
    r = np.array([np.outer(e2, e1.conj()), np.outer(e1, e2.conj())])
    symbol = Symbol(np.array([1.0 + 0.0j, 1.0 + 0.0j]), r)
    return Instance(seed=seed, symbol_mode="adversarial", w=w, v=v, symbol=symbol)


# ---------------------------------------------------------------------------
# Instance documents. ffv2 writes each complex array as one base64 string of
# its little-endian complex128 bytes in C order; ffv1, still read, wrote
# [re, im] pairs. The two share every other rule: a document declares n,
# blocks and each subspace dim, and every array is read against the shape
# these sizes give it.


def _encode(a) -> str:
    """A complex array as base64 of its little-endian complex128 bytes in C order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<c16").tobytes()).decode("ascii")


def _floats(value, shape: tuple, field: str) -> np.ndarray:
    """``value`` as a float64 array of exactly ``shape``; a None axis takes any length."""
    try:
        a = np.array(value)
    except ValueError:
        raise ContractViolationError(f"{field}: not a rectangular array of numbers") from None
    if a.dtype.kind not in "iuf" or a.ndim != len(shape) or any(
        want not in (None, got) for want, got in zip(shape, a.shape)
    ):
        raise ContractViolationError(
            f"{field}: expected numbers in shape {shape}, got {a.dtype} in shape {a.shape}"
        )
    return a.astype(np.float64)


def _decode_pairs(value, shape: tuple, field: str) -> np.ndarray:
    """The ffv1 complex array of ``shape``: its [re, im] pairs reinterpreted bit for
    bit (``re + 1j * im`` would turn a real part -0.0 into 0.0), or [] when empty."""
    if 0 in shape and value == []:
        return np.zeros(shape, dtype=np.complex128)
    return _floats(value, (*shape, 2), field).view(np.complex128)[..., 0]


def _decode_bytes(value, shape: tuple, field: str) -> np.ndarray:
    """The ffv2 complex array of ``shape`` that :func:`_encode` wrote, as a read-only
    complex128 view of the decoded bytes, so holding it takes no copy; a None axis
    takes the length the byte count gives, at least 1."""
    if type(value) is not str:
        raise ContractViolationError(
            f"{field}: expected a base64 string, got {type(value).__name__}"
        )
    try:
        # the call base64.b64decode(value, validate=True) makes, whose ASCII test
        # a2b_base64 applies to a str too
        raw = binascii.a2b_base64(value, strict_mode=True)
    except ValueError as exc:
        raise ContractViolationError(f"{field}: not base64: {exc}") from None
    fixed = 16 * math.prod(k for k in shape if k is not None)  # bytes per step of a None axis
    if None in shape:
        rows, rest = divmod(len(raw), fixed)
        if rest or rows < 1:
            raise ContractViolationError(
                f"{field}: {len(raw)} bytes are not one or more rows of {fixed} bytes"
            )
        shape = tuple(rows if k is None else k for k in shape)
    elif len(raw) != fixed:
        raise ContractViolationError(
            f"{field}: {len(raw)} bytes, expected {fixed} for complex128 shape {shape}"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(shape)


_DECODERS = {"ffv1": _decode_pairs, "ffv2": _decode_bytes}


def _finite(decode, value, shape: tuple, field: str) -> np.ndarray:
    """The decoded array, frozen in place, or a ContractViolationError naming
    ``field`` if any entry is NaN or infinite."""
    return read_only(finite_array(decode(value, shape, field), len(shape), field))


def instance_to_json(inst: Instance) -> str:
    doc = {
        "schema": "ffv2",
        "seed": int(inst.seed),
        "symbol_mode": inst.symbol_mode,
        "n": inst.w.ambient_dim,
        "blocks": inst.w.count,
    }
    for name, f in (("w", inst.w), ("v", inst.v)):
        doc[name] = {
            "weights": f.weights.tolist(),
            "subspaces": [{"dim": s.dim, "basis": _encode(s.basis)} for s in f.subspaces],
        }
    doc["symbol"] = {"m": _encode(inst.symbol.m), "r": _encode(inst.symbol.r)}
    doc["local"] = None
    if inst.local is not None:
        fam = inst.local
        doc["local"] = {"redundancy": fam.redundancy, "alpha": fam.alpha, "beta": fam.beta}
        for key, frames in (("frames", fam.frames), ("duals", fam.duals)):
            doc["local"][key] = [None if fr is None else _encode(fr) for fr in frames]
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse an ffv1 or ffv2 document; a missing key, a bad size or a misshapen
    array is a ContractViolationError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ContractViolationError(f"not valid JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if type(schema) is not str or schema not in _DECODERS:
        raise ContractViolationError("not an ffv1 or ffv2 instance document")
    try:
        return _instance_from_doc(doc, _DECODERS[schema])
    except FusionFrameError:
        raise
    except KeyError as exc:
        raise ContractViolationError(f"malformed {schema} document: missing key {exc}") from exc
    except (AttributeError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ContractViolationError(f"malformed {schema} document: {exc}") from exc


def _integer(obj: dict, key: str) -> int:
    value = obj[key]
    if type(value) is not int:
        raise ContractViolationError(f"{key} must be an integer, got {value!r}")
    return value


def _number(obj: dict, key: str, field: str) -> float:
    value = obj[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ContractViolationError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _check_symbol(symbol: Symbol, v: FusionSequence, w: FusionSequence) -> None:
    """Every |m_i| sigma_max(R_i), every |m_i| v_i w_i sigma_max(R_i) and the sum of
    the latter, which bounds ||M||, must be finite floats, or D_mR or the multiplier
    overflows; read from the cached block spectra, which the checks reuse."""
    # an infinite norm on a zero block gives inf * 0 = nan, caught with the inf
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.abs(symbol.m) * symbol.svals[:, 0]
        terms = norms * v.weights * w.weights
        total = np.sum(terms)
    for what, values in (("|m_i| sigma_max(R_i)", norms), ("|m_i| v_i w_i sigma_max(R_i)", terms)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ContractViolationError(f"symbol: {what} overflows on block {int(bad[0])}")
    if not np.isfinite(total):
        raise ContractViolationError("symbol: sum_i |m_i| v_i w_i sigma_max(R_i) overflows")


def _named(field: str, build, *args):
    """``build(*args)``, its ContractViolationError prefixed with ``field``."""
    try:
        return build(*args)
    except ContractViolationError as exc:
        raise ContractViolationError(f"{field}: {exc}") from exc


def _check_reconstruction(w: FusionSequence, frames: list, duals: list) -> None:
    """The Subspace rule on stored local frames: sum_j dual_j phi_j^* must be P_{W_i}
    in Frobenius norm, tested once per frame shape; a failure names the first faulty
    block."""
    live = np.flatnonzero(w.dims)
    defects = np.zeros(w.count)
    for idx, phi in by_shape([frames[i] for i in live]):
        idx = live[idx]
        dual = np.stack([duals[i] for i in idx])
        defects[idx] = np.linalg.norm(
            dual.transpose(0, 2, 1) @ phi.conj() - w.projections[idx], axis=(1, 2)
        )
    bad = relative_defect(defects, np.array(w.dims)) > DEFAULT_TOL.eq_rel
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractViolationError(
            f"local.frames[{i}], local.duals[{i}]: sum_j dual_j phi_j^* is "
            f"{defects[i]:.3e} from P_W_{i} in Frobenius norm (limit "
            f"{DEFAULT_TOL.eq_rel:.0e} relative to max(1, dim))"
        )


def _instance_from_doc(doc: dict, decode) -> Instance:
    n, blocks, seed = (_integer(doc, key) for key in ("n", "blocks", "seed"))
    mode = doc["symbol_mode"]
    sequences = []
    for name in ("w", "v"):
        obj = doc[name]
        dims = [_integer(item, "dim") for item in obj["subspaces"]]
        _check_sizes(n, blocks, dims, mode, seed)
        fields = [f"{name}.subspaces[{i}].basis" for i in range(blocks)]
        bases = [
            decode(item["basis"], (n, d), field)
            for item, d, field in zip(obj["subspaces"], dims, fields)
        ]
        subs = orthonormal_subspaces(bases, fields)
        weights = _floats(obj["weights"], (blocks,), f"{name}.weights")
        sequences.append(_named(f"{name}.weights", FusionSequence, subs, weights))
    w, v = sequences
    # the symbol scans its own arrays, under the same names
    symbol = Symbol(
        decode(doc["symbol"]["m"], (blocks,), "symbol.m"),
        decode(doc["symbol"]["r"], (blocks, n, n), "symbol.r"),
    )
    _check_symbol(symbol, v, w)
    local = None
    if doc.get("local"):
        obj = doc["local"]
        redundancy = obj.get("redundancy")
        if type(redundancy) is not int or not 0 <= redundancy <= MAX_REDUNDANCY:
            raise ContractViolationError(
                f"local.redundancy must be an integer in 0..{MAX_REDUNDANCY}, got {redundancy!r}"
            )
        frames, duals = list(obj["frames"]), list(obj["duals"])
        nulls = [d == 0 for d in w.dims]
        if not [fr is None for fr in frames] == [du is None for du in duals] == nulls:
            raise ContractViolationError("local: frames, duals null exactly on zero blocks")
        for i in np.flatnonzero(w.dims):
            frames[i] = _finite(decode, frames[i], (None, n), f"local.frames[{i}]")
            duals[i] = _finite(decode, duals[i], frames[i].shape, f"local.duals[{i}]")
        _check_reconstruction(w, frames, duals)
        alpha, beta = (_number(obj, key, f"local.{key}") for key in ("alpha", "beta"))
        # with no nonzero block the bounds are over nothing, and gen writes 0 and 0
        if not (0.0 < alpha <= beta if any(w.dims) else alpha == beta == 0.0):
            raise ContractViolationError(
                f"local.alpha, local.beta must satisfy 0 < alpha <= beta, got {alpha!r}, {beta!r}"
            )
        # every array was scanned once by _finite above
        local = _trusted(LocalFrameFamily, tuple(frames), tuple(duals), redundancy, alpha, beta)
    return Instance(seed, mode, w, v, symbol, local=local)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
