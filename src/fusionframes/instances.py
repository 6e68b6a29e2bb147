"""Instance generation and the ffv1 on-disk format.

Generators are deterministic in the supplied seed or generator object.
Populations meant for theorem checks enforce a conditioning floor, since a
fixed relative tolerance is meaningless on arbitrarily ill-conditioned
draws; the floors are generous (condition numbers up to 1e4).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ContractViolationError, FusionFrameError, PreconditionError
from .fusion import (
    MAX_DRAWS,
    FusionSequence,
    LocalFrameFamily,
    Subspace,
    build_local_frames,
    fusion_bounds,
    random_subspace,
)
from .frames import VectorFrame
from .multipliers import Symbol, condition_c
from .numerics import DEFAULT_TOL, ToleranceConfig, singular_values
from .ovf import OVFrame, ovf_analysis

__all__ = [
    "SYMBOL_MODES",
    "InstanceSpec",
    "Instance",
    "generate_instance",
    "cross_swap_instance",
    "random_partition",
    "random_fusion_frame",
    "random_riesz_basis",
    "random_ov_frame",
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
        if not (1 <= self.n <= 64):
            raise ContractViolationError(f"ambient dimension must be in 1..64, got {self.n}")
        if not (1 <= self.blocks <= 64):
            raise ContractViolationError(f"block count must be in 1..64, got {self.blocks}")
        if len(self.dims) != self.blocks:
            raise ContractViolationError(
                f"{self.blocks} blocks but {len(self.dims)} dims"
            )
        if any(d < 0 or d > self.n for d in self.dims):
            raise ContractViolationError("each subspace dimension must satisfy 0 <= d <= n")
        lo, hi = self.weight_range
        if not (0.0 <= lo <= hi) or not np.isfinite(hi):
            raise ContractViolationError(f"invalid weight range {self.weight_range}")
        if lo <= 0.0 and any(d > 0 for d in self.dims):
            raise ContractViolationError("weight range must be positive for nonzero blocks")
        if self.symbol_mode not in SYMBOL_MODES:
            raise ContractViolationError(
                f"unknown symbol mode {self.symbol_mode!r}; choose from {SYMBOL_MODES}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ContractViolationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class Instance:
    """A concrete verification instance: two fusion sequences and a symbol."""

    seed: int
    symbol_mode: str
    w: FusionSequence
    v: FusionSequence
    symbol: Symbol
    local: Optional[LocalFrameFamily] = None
    local_redundancy: Optional[int] = None


def random_partition(n: int, count: int, rng: np.random.Generator) -> tuple:
    """count positive integers summing to n (requires count <= n)."""
    if count > n:
        raise ContractViolationError(f"cannot split {n} into {count} positive parts")
    dims = np.ones(count, dtype=int)
    for _ in range(n - count):
        dims[int(rng.integers(0, count))] += 1
    return tuple(int(d) for d in dims)


def _random_sequence(n, dims, weight_range, rng) -> FusionSequence:
    lo, hi = weight_range
    subs, weights = [], []
    for d in dims:
        subs.append(random_subspace(n, d, rng))
        weights.append(float(rng.uniform(lo, hi)) if d > 0 else 0.0)
    return FusionSequence(tuple(subs), np.asarray(weights))


def random_fusion_frame(
    n: int,
    count: int,
    rng: np.random.Generator,
    dims: Optional[tuple] = None,
    weight_range: tuple = (0.5, 2.0),
    max_cond: float = 1e4,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FusionSequence:
    """A random fusion frame with a bounded condition number (``MAX_DRAWS`` tries)."""
    for _ in range(MAX_DRAWS):
        if dims is None:
            draw = [int(rng.integers(1, n + 1)) for _ in range(count)]
            while sum(draw) < n:
                draw[int(rng.integers(0, count))] = min(
                    n, draw[int(rng.integers(0, count))] + 1
                )
            use_dims = tuple(draw)
        else:
            use_dims = tuple(dims)
        f = _random_sequence(n, use_dims, weight_range, rng)
        lo, hi = fusion_bounds(f, tol)
        if lo > 0.0 and hi / lo <= max_cond:
            return f
    raise PreconditionError(f"no fusion frame of condition <= {max_cond} in {MAX_DRAWS} draws")


def random_riesz_basis(
    n: int,
    rng: np.random.Generator,
    count: Optional[int] = None,
    dims: Optional[tuple] = None,
    weight_range: tuple = (0.5, 2.0),
) -> FusionSequence:
    """A fusion Riesz basis from a Haar unitary partitioned into blocks."""
    if dims is None:
        if count is None:
            raise ContractViolationError("give either dims or a block count")
        dims = random_partition(n, count, rng)
    if sum(dims) != n or any(d <= 0 for d in dims):
        raise ContractViolationError("Riesz dims must be positive and sum to n")
    unitary = random_subspace(n, n, rng).basis
    lo, hi = weight_range
    subs, weights, start = [], [], 0
    for d in dims:
        subs.append(Subspace(unitary[:, start : start + d]))
        weights.append(float(rng.uniform(lo, hi)))
        start += d
    return FusionSequence(tuple(subs), np.asarray(weights))


def random_ov_frame(
    n: int,
    k: int,
    count: int,
    rng: np.random.Generator,
    min_cond_ratio: float = 1e-2,
) -> OVFrame:
    """Random operator-valued frame with sigma_min(T) >= ratio * sigma_max (``MAX_DRAWS`` tries)."""
    if count * k < n:
        raise ContractViolationError("need count * k >= n for a frame")
    for _ in range(MAX_DRAWS):
        blocks = (
            rng.standard_normal((count, k, n)) + 1j * rng.standard_normal((count, k, n))
        ) / np.sqrt(2.0 * count * k)
        a = OVFrame(blocks)
        s = singular_values(ovf_analysis(a))
        if s[-1] >= min_cond_ratio * s[0]:
            return a
    raise PreconditionError(f"no frame of ratio {min_cond_ratio} in {MAX_DRAWS} draws")


def random_invertible_matrix(
    n: int,
    rng: np.random.Generator,
    s_min: float = 0.3,
    s_max: float = 2.0,
) -> np.ndarray:
    """Random matrix with singular values rescaled into [s_min, s_max]."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, s, vh = np.linalg.svd(g)
    if s[0] == s[-1]:
        scaled = np.full(n, s_max)
    else:
        scaled = s_min + (s_max - s_min) * (s - s[-1]) / (s[0] - s[-1])
    return u @ np.diag(scaled) @ vh


def _conditioned_block(n, rng, s_min=0.5, s_max=2.0) -> np.ndarray:
    return random_invertible_matrix(n, rng, s_min=s_min, s_max=s_max)


def _annulus(rng, lo=0.5, hi=2.0) -> complex:
    radius = rng.uniform(lo, hi)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return complex(radius * np.cos(angle), radius * np.sin(angle))


def random_symbol(
    mode: str,
    n: int,
    count: int,
    rng: np.random.Generator,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Symbol:
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
    r = np.array([_conditioned_block(n, rng) for _ in range(count)])
    m = np.array([_annulus(rng) for _ in range(count)])
    if mode == "random_C_holding":
        return Symbol(m, r)
    if mode == "random_C_failing":
        kill = rng.choice(count, size=max(1, count // 3), replace=False)
        m[kill] = 0.0
        return Symbol(m, r)
    # adversarial: push gamma into the indeterminate band around the cutoff
    delta = condition_c(Symbol(m, r), tol).delta
    ratio = tol.inv_rel * float(np.exp(rng.uniform(np.log(1 / 3), np.log(3.0))))
    target = ratio * delta / abs(m[0])
    u, s, vh = np.linalg.svd(r[0])
    s[-1] = target
    r = r.copy()
    r[0] = u @ np.diag(s) @ vh
    return Symbol(m, r)


def generate_instance(
    spec: InstanceSpec,
    local_redundancy: Optional[int] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> Instance:
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
    symbol = random_symbol(spec.symbol_mode, spec.n, spec.blocks, rng, tol)
    local = None
    if local_redundancy is not None:
        local = build_local_frames(w, local_redundancy, rng, tol)
    return Instance(
        seed=spec.seed,
        symbol_mode=spec.symbol_mode,
        w=w,
        v=v,
        symbol=symbol,
        local=local,
        local_redundancy=local_redundancy,
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
# ffv1 serialization: complex entries as [re, im] pairs, matrices row-major.

def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_out(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m, dtype=np.complex128)]


def _matrix_in(rows, expect_cols: Optional[int] = None) -> np.ndarray:
    data = np.array(
        [[complex(p[0], p[1]) for p in row] for row in rows], dtype=np.complex128
    )
    if data.size == 0:
        data = data.reshape(len(rows), expect_cols if expect_cols else 0)
    return data


def _sequence_out(f: FusionSequence) -> dict:
    return {
        "weights": [float(x) for x in f.weights],
        "subspaces": [
            {"dim": s.dim, "basis": _matrix_out(s.basis) if s.dim else []}
            for s in f.subspaces
        ],
    }


def _sequence_in(obj: dict, n: int) -> FusionSequence:
    subs = []
    for item in obj["subspaces"]:
        if item["dim"] == 0:
            subs.append(Subspace.zero(n))
        else:
            subs.append(Subspace(_matrix_in(item["basis"])))
    return FusionSequence(tuple(subs), np.asarray(obj["weights"], dtype=np.float64))


def _vecframe_out(frame: Optional[VectorFrame]) -> Optional[list]:
    if frame is None:
        return None
    return _matrix_out(frame.vectors)


def _vecframe_in(rows, n: int) -> Optional[VectorFrame]:
    if rows is None:
        return None
    return VectorFrame(_matrix_in(rows, expect_cols=n))


def instance_to_json(inst: Instance) -> str:
    doc = {
        "schema": "ffv1",
        "seed": int(inst.seed),
        "symbol_mode": inst.symbol_mode,
        "n": inst.w.ambient_dim,
        "blocks": inst.w.count,
        "w": _sequence_out(inst.w),
        "v": _sequence_out(inst.v),
        "symbol": {
            "m": [_pair(z) for z in inst.symbol.m],
            "r": [_matrix_out(ri) for ri in inst.symbol.r],
        },
        "local": None,
    }
    if inst.local is not None:
        doc["local"] = {
            "redundancy": inst.local_redundancy,
            "alpha": inst.local.alpha,
            "beta": inst.local.beta,
            "frames": [_vecframe_out(fr) for fr in inst.local.frames],
            "duals": [_vecframe_out(du) for du in inst.local.duals],
        }
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    """Parse an ffv1 document; a missing key or malformed value is a ContractViolationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "ffv1":
        raise ContractViolationError("not an ffv1 instance document")
    try:
        return _instance_from_doc(doc)
    except FusionFrameError:
        raise
    except KeyError as exc:
        raise ContractViolationError(f"malformed ffv1 document: missing key {exc}") from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise ContractViolationError(f"malformed ffv1 document: {exc}") from exc


def _instance_from_doc(doc: dict) -> Instance:
    n = int(doc["n"])
    w = _sequence_in(doc["w"], n)
    v = _sequence_in(doc["v"], n)
    symbol = Symbol(
        np.array([complex(p[0], p[1]) for p in doc["symbol"]["m"]]),
        np.array([_matrix_in(ri) for ri in doc["symbol"]["r"]]),
    )
    local = None
    redundancy = None
    if doc.get("local"):
        obj = doc["local"]
        redundancy = obj.get("redundancy")
        local = LocalFrameFamily(
            frames=tuple(_vecframe_in(fr, n) for fr in obj["frames"]),
            duals=tuple(_vecframe_in(du, n) for du in obj["duals"]),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
        )
    return Instance(
        seed=int(doc["seed"]),
        symbol_mode=str(doc["symbol_mode"]),
        w=w,
        v=v,
        symbol=symbol,
        local=local,
        local_redundancy=redundancy,
    )


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
