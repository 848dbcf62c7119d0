"""Seeded inputs for the benchmark and the independent facts they are checked against.

Everything here is plain numpy and written for the benchmark: the canonical
class representatives, the SLOCC actions, the determinant laws of the quartic
invariant, Cayley's hyperdeterminant, the flattening ranks and the compound
matrices.  Nothing is read from the package under test, so the checks compare
its outputs with constructions and properties, never with a stored copy of
its own output.

A case carries its native amplitudes and what its construction implies:
the verdict (rank, name, cut pattern) and the expected quartic invariant
``tangle`` (or ``None`` when only a relation between two cases is known).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

H = 2.0 ** -0.5
T3 = 3.0 ** -0.5

#: Largest condition number of a drawn SLOCC element.  An ill-conditioned
#: element can legitimately push a GHZ image below the classifier's
#: tolerance, which would make a verdict depend on the draw.
MAX_COND = 4.0

#: A flattening counts as rank one when sigma_2 <= RANK_TOL * sigma_1.
RANK_TOL = 1e-6

#: Relative agreement demanded of every invariant.
INV_RTOL = 1e-8
#: Absolute ceiling for invariants that vanish by construction (unit norm).
INV_ZERO = 1e-9


@dataclass
class Case:
    family: str  # system for ranked cases, "multi 4q" etc. for general ones
    kind: str  # class built in: "ghz", "bisep_cut1", "random", "sep", ...
    system: str  # system name passed to the classifier
    native: object  # ndarray, or (k, n, dense vector) / (species, tensor)
    rank: int | None
    name: str
    cuts: tuple = ()
    tangle: float | None = None
    pair_of: int | None = None  # index of the case this one is g.(that case)
    law: float = 1.0  # |T(this)| / |T(pair_of)| implied by the action
    extra: dict = field(default_factory=dict)


# -- group elements --------------------------------------------------------------


def conditioned_matrix(rng: np.random.Generator, n: int, cond: float = MAX_COND) -> np.ndarray:
    """U diag(s) V with Haar-like unitaries and singular values in [1, cond]."""

    def unitary():
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    s = np.concatenate(([1.0, cond], rng.uniform(1.0, cond, size=n - 2)))[:n]
    rng.shuffle(s)
    return unitary() @ np.diag(s) @ unitary()


def compound(g: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix: entry (I, J) = det g[I, J] over sorted 0-based k-subsets."""
    n = g.shape[0]
    keys = np.array(list(itertools.combinations(range(n), k)))
    out = np.empty((len(keys), len(keys)), dtype=complex)
    for row, rows in enumerate(keys):
        out[row] = np.linalg.det(g[rows][:, keys].transpose(1, 0, 2))
    return out


# -- the five ranked systems -----------------------------------------------------

_PAIRS4 = list(itertools.combinations(range(4), 2))
_TRIPLES6 = list(itertools.combinations(range(1, 7), 3))


def _cube(entries) -> np.ndarray:
    a = np.zeros((2, 2, 2), dtype=complex)
    for idx, value in entries:
        a[idx] = value
    return a


def boson2q_cube(b: np.ndarray) -> np.ndarray:
    """Qubit + two bosons as three qubits: a[i, j, k] = b[i, j + k]."""
    return np.array([[[b[i, j + k] for k in range(2)] for j in range(2)] for i in range(2)])


def boson3_cube(c: np.ndarray) -> np.ndarray:
    return np.array(
        [[[c[i + j + k] for k in range(2)] for j in range(2)] for i in range(2)]
    )


def _act_qubit3(a, m):
    return np.einsum("ia,jb,kc,abc->ijk", m[0], m[1], m[2], a)


def _act_boson2q(b, m):
    a = np.einsum("ia,jb,kc,abc->ijk", m[0], m[1], m[1], boson2q_cube(b))
    return np.stack([a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]], axis=1)


def _act_boson3(c, m):
    a = np.einsum("ia,jb,kc,abc->ijk", m[0], m[0], m[0], boson3_cube(c))
    return np.array([a[0, 0, 0], a[0, 0, 1], a[0, 1, 1], a[1, 1, 1]])


def _act_qf4(p, m):
    return m[0] @ p @ compound(m[1], 2).T


def _act_fermion(v, m):
    return compound(m[0], 3) @ v


def _dets(m):
    return [abs(np.linalg.det(g)) for g in m]


@dataclass(frozen=True)
class Ranked:
    sizes: tuple[int, ...]
    act: object
    law: object  # |T(g psi)| / |T(psi)| before renormalization
    weights: np.ndarray | None  # norm weights, None for Euclidean
    flattenings: tuple  # ((cut, fn(native) -> matrix), ...)


def _qubit3_flat(axis):
    return lambda a: np.moveaxis(a, axis, 0).reshape(2, 4)


RANKED = {
    "fermion": Ranked((6,), _act_fermion, lambda d: d[0] ** 2, None, ()),
    "qubit3": Ranked(
        (2, 2, 2),
        _act_qubit3,
        lambda d: (d[0] * d[1] * d[2]) ** 2,
        None,
        (
            (((1,), (2, 3)), _qubit3_flat(0)),
            (((2,), (1, 3)), _qubit3_flat(1)),
            (((3,), (1, 2)), _qubit3_flat(2)),
        ),
    ),
    "boson2q": Ranked(
        (2, 2),
        _act_boson2q,
        lambda d: d[0] ** 2 * d[1] ** 4,
        np.array([[1.0, 2.0, 1.0]]),
        ((((1,), (2,)), lambda b: b),),
    ),
    "boson3": Ranked((2,), _act_boson3, lambda d: d[0] ** 6, np.array([1.0, 3.0, 3.0, 1.0]), ()),
    "qubit_fermion4": Ranked(
        (2, 4), _act_qf4, lambda d: d[0] ** 2 * d[1] ** 2, None, ((((1,), (2,)), lambda p: p),)
    ),
}


def _fermion_vec(terms) -> np.ndarray:
    v = np.zeros(len(_TRIPLES6), dtype=complex)
    for key, value in terms:
        v[_TRIPLES6.index(key)] = value
    return v


def _packed(terms) -> np.ndarray:
    p = np.zeros((2, 6), dtype=complex)
    for bit, pair, value in terms:
        p[bit, _PAIRS4.index(pair)] = value
    return p


# (kind, native representative, rank, name, cuts).  Every GHZ representative
# has |T| = 1 and every other class |T| = 0.
REPRESENTATIVES = {
    "fermion": [
        ("ghz", _fermion_vec([((1, 2, 3), H), ((4, 5, 6), H)]), 4, "GHZ", ()),
        ("w", _fermion_vec([((2, 3, 4), T3), ((1, 3, 5), -T3), ((1, 2, 6), T3)]), 3, "W", ()),
        ("bisep", _fermion_vec([((1, 2, 3), H), ((1, 5, 6), H)]), 2, "biseparable", ()),
        ("sep", _fermion_vec([((1, 2, 3), 1.0)]), 1, "separable", ()),
    ],
    "qubit3": [
        ("ghz", _cube([((0, 0, 0), H), ((1, 1, 1), H)]), 4, "GHZ", ()),
        ("w", _cube([((1, 0, 0), T3), ((0, 1, 0), T3), ((0, 0, 1), T3)]), 3, "W", ()),
        ("bisep_cut1", _cube([((0, 0, 0), H), ((0, 1, 1), H)]), 2, "biseparable", (((1,), (2, 3)),)),
        ("bisep_cut2", _cube([((0, 0, 0), H), ((1, 0, 1), H)]), 2, "biseparable", (((2,), (1, 3)),)),
        ("bisep_cut3", _cube([((0, 0, 0), H), ((1, 1, 0), H)]), 2, "biseparable", (((3,), (1, 2)),)),
        ("sep", _cube([((0, 0, 0), 1.0)]), 1, "separable", ()),
    ],
    "boson2q": [
        ("ghz", np.array([[H, 0, 0], [0, 0, H]], dtype=complex), 4, "GHZ", ()),
        ("w", np.array([[0, T3, 0], [T3, 0, 0]], dtype=complex), 3, "W", ()),
        ("bisep", np.array([[H, 0, H], [0, 0, 0]], dtype=complex), 2, "biseparable", (((1,), (2,)),)),
        ("sep", np.array([[1, 0, 0], [0, 0, 0]], dtype=complex), 1, "separable", ()),
    ],
    "boson3": [
        ("ghz", np.array([H, 0, 0, H], dtype=complex), 4, "GHZ", ()),
        ("w", np.array([0, T3, 0, 0], dtype=complex), 3, "W", ()),
        ("sep", np.array([1, 0, 0, 0], dtype=complex), 1, "separable", ()),
    ],
    "qubit_fermion4": [
        ("ghz", _packed([(0, (0, 1), H), (1, (2, 3), H)]), 4, "GHZ", ()),
        ("w", _packed([(0, (2, 3), T3), (1, (0, 3), T3), (1, (1, 2), -T3)]), 3, "W", ()),
        ("bisep_split", _packed([(0, (0, 1), H), (0, (2, 3), H)]), 2, "biseparable", (((1,), (2,)),)),
        ("bisep_internal", _packed([(0, (0, 1), H), (1, (0, 3), H)]), 2, "biseparable", ()),
        ("sep", _packed([(0, (0, 1), 1.0)]), 1, "separable", ()),
    ],
}


def ranked_norm(system: str, x: np.ndarray) -> float:
    w = RANKED[system].weights
    sq = np.abs(x) ** 2
    return math.sqrt(float(np.sum(sq if w is None else w * sq)))


def rank_one_cuts(system: str, x: np.ndarray) -> tuple:
    """Cuts across which the benchmark's own SVD finds a rank-one flattening."""
    return tuple(cut for cut, flat in RANKED[system].flattenings if _rank_one(flat(x)))


def _rank_one(matrix: np.ndarray) -> bool:
    s = np.linalg.svd(matrix, compute_uv=False)
    return s[1] <= RANK_TOL * s[0]


def cayley_tangle(a: np.ndarray) -> float:
    """4 |Det a| with Cayley's hyperdeterminant of a 2x2x2 array."""
    (a000, a001), (a010, a011) = a[0]
    (a100, a101), (a110, a111) = a[1]
    det = (
        a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
        - 2 * (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
               + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
               + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
        + 4 * (a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100)
    )
    return 4.0 * abs(det)


def cube_of(system: str, x: np.ndarray):
    """Three-qubit array of a qubit3/boson2q/boson3 state, else None."""
    if system == "qubit3":
        return x
    if system == "boson2q":
        return boson2q_cube(x)
    if system == "boson3":
        return boson3_cube(x)
    return None


def _draw(rng, system):
    """A generic state (GHZ with probability one), normalized in its convention."""
    shape = {"fermion": (20,), "qubit3": (2, 2, 2), "boson2q": (2, 3),
             "boson3": (4,), "qubit_fermion4": (2, 6)}[system]
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return x / ranked_norm(system, x)


#: The biseparable three-qubit states are the only ranked inputs that run
#: cut tests, so they are the slowest.  One image each keeps them near 2% of
#: a round, which puts the p99 latency inside that class instead of at its edge.
TAIL_KINDS = ("bisep_cut1", "bisep_cut2", "bisep_cut3")


def ranked_cases(seed: int, images: int = 6, tail_images: int = 1,
                 random_pairs: int = 2) -> list[Case]:
    """SLOCC images of every class representative of the five ranked systems,
    plus generic draws each followed by one SLOCC image of itself."""
    rng = np.random.default_rng([seed, 1])
    cases: list[Case] = []
    for system, reps in REPRESENTATIVES.items():
        spec = RANKED[system]
        for kind, rep, rank, name, cuts in reps:
            for _ in range(tail_images if kind in TAIL_KINDS else images):
                mats = [conditioned_matrix(rng, n) for n in spec.sizes]
                moved = spec.act(rep, mats)
                scale = ranked_norm(system, moved)
                tangle = spec.law(_dets(mats)) / scale**4 if rank == 4 else 0.0
                cases.append(Case(system, kind, system, moved / scale, rank, name, cuts, tangle))
        for _ in range(random_pairs):
            x = _draw(rng, system)
            cases.append(Case(system, "random", system, x, 4, "GHZ"))
            mats = [conditioned_matrix(rng, n) for n in spec.sizes]
            moved = spec.act(x, mats)
            scale = ranked_norm(system, moved)
            cases.append(Case(system, "random", system, moved / scale, 4, "GHZ",
                              pair_of=len(cases) - 1, law=spec.law(_dets(mats)) / scale**4))
    for case in cases:
        cube = cube_of(case.system, case.native)
        if cube is not None:
            case.extra["cayley"] = cayley_tangle(cube)
        case.extra["svd_cuts"] = rank_one_cuts(case.system, case.native)
    order = rng.permutation(len(cases))
    index = {int(old): new for new, old in enumerate(order)}
    out = [cases[i] for i in order]
    for case in out:
        if case.pair_of is not None:
            case.pair_of = index[case.pair_of]
    return out


def expected_rank_one(case: Case) -> tuple:
    """Flattening cuts of rank one implied by the construction."""
    flats = tuple(cut for cut, _ in RANKED[case.system].flattenings)
    if case.kind == "sep":
        return flats
    if case.kind.startswith("bisep"):
        return case.cuts
    return ()


# -- general shapes ----------------------------------------------------------------

QUBITS = {3: ((1, 2),) * 3, 4: ((1, 2),) * 4, 5: ((1, 2),) * 5}
MIXED = ((1, 2), (2, 4), (1, 3))  # qubit, fermion pair in four modes, qutrit

# (family, species, [(kind, left side of the built-in cut or None)]).  The
# counts put a third of the inputs below the four-qubit cost band, a third
# in it and a third above, so the median latency sits inside a band rather
# than on the step between two.
MULTI_PLAN = (
    ("multi 3q", QUBITS[3], [("sep", None), ("bisep", (1,)), ("bisep", (2,)), ("bisep", (3,)),
                             ("ent", None)]),
    ("multi 4q", QUBITS[4], [("sep", None)] * 2 + [("bisep", (1,)), ("bisep", (2,)),
                             ("bisep", (4,)), ("bisep", (1, 2)), ("bisep", (1, 3)),
                             ("bisep", (1, 4))] + [("ent", None)] * 2),
    ("multi 5q", QUBITS[5], [("sep", None), ("bisep", (2, 4)), ("ent", None)]),
    ("multi mixed", MIXED, [("sep", None), ("bisep", (1,)), ("bisep", (2,)), ("bisep", (3,))]
     + [("ent", None)] * 2),
)
# (k, n) and how many separable and entangled states of that shape.
FERMION_PLAN = (((2, 4), 1), ((2, 6), 1), ((3, 8), 1), ((4, 8), 1), ((4, 10), 2))


def bipartitions(count: int) -> list:
    """Two-block partitions of 1..count, smaller (then lexicographically first) side first."""
    species = tuple(range(1, count + 1))
    out = []
    for size in range(1, count // 2 + 1):
        for left in itertools.combinations(species, size):
            right = tuple(s for s in species if s not in left)
            if len(left) < len(right) or left < right:
                out.append((left, right))
    return out


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def wedge_vector(vectors: np.ndarray) -> np.ndarray:
    """Amplitudes over sorted k-subsets of the wedge of the k columns (n x k)."""
    n, k = vectors.shape
    return np.array(
        [np.linalg.det(vectors[list(key)]) for key in itertools.combinations(range(n), k)]
    )


def local_dim(k: int, n: int) -> int:
    return math.comb(n, k)


def _local_product(rng, species):
    """Product of Slater determinants, one per species, as a dense tensor."""
    factors = [wedge_vector(_complex(rng, (n, k))) for k, n in species]
    tensor = factors[0]
    for f in factors[1:]:
        tensor = np.multiply.outer(tensor, f)
    return tensor


def _bisep(rng, species, left):
    dims = [local_dim(k, n) for k, n in species]
    right = [i for i in range(1, len(species) + 1) if i not in left]
    a = _complex(rng, [dims[i - 1] for i in left])
    b = _complex(rng, [dims[i - 1] for i in right])
    tensor = np.multiply.outer(a, b)
    order = list(left) + right  # axis p of tensor holds species order[p]
    return np.transpose(tensor, np.argsort(order))


def flattening_cuts(tensor: np.ndarray) -> tuple:
    """Bipartitions of the species across which the tensor has rank one."""
    out = []
    for left, right in bipartitions(tensor.ndim):
        axes = [i - 1 for i in left] + [i - 1 for i in right]
        rows = int(np.prod([tensor.shape[i - 1] for i in left]))
        if _rank_one(np.transpose(tensor, axes).reshape(rows, -1)):
            out.append((left, right))
    return tuple(out)


def top_wedge(amplitudes: dict, k: int, n: int) -> float | None:
    """|coefficient of P^d on the top form| for n = d k with k even, else None.

    For k = 2 this is d! |Pf A| = d! sqrt|det A|; for d = 2 it is the sum of
    sign(I, I^c) P_I P_{I^c} over every k-subset I."""
    if k % 2 or n % k:
        return None
    d = n // k
    if k == 2:
        a = np.zeros((n, n), dtype=complex)
        for (i, j), value in amplitudes.items():
            a[i - 1, j - 1], a[j - 1, i - 1] = value, -value
        return math.factorial(d) * math.sqrt(abs(np.linalg.det(a)))
    if d == 2:
        total = 0j
        full = tuple(range(1, n + 1))
        for key, value in amplitudes.items():
            rest = tuple(m for m in full if m not in key)
            inversions = sum(1 for x in key for y in rest if x > y)
            total += (-1) ** inversions * value * amplitudes.get(rest, 0.0)
        return abs(total)
    raise ValueError(f"no wedge-power formula for ({k}, {n})")


def merged_amplitudes(species, tensor: np.ndarray) -> dict:
    """Dense species tensor -> amplitudes of the merged fermionic state."""
    locals_ = [list(itertools.combinations(range(1, n + 1), k)) for k, n in species]
    offsets = np.cumsum([0] + [n for _, n in species])
    out = {}
    for index in zip(*np.nonzero(tensor)):
        key = tuple(m + offsets[s] for s, i in enumerate(index) for m in locals_[s][i])
        out[key] = complex(tensor[index])
    return out


def general_cases(seed: int) -> list[Case]:
    """multi states of 3-5 qubits and of mixed species, and fermion states away
    from (3, 6), with separable, biseparable and entangled ones built in."""
    rng = np.random.default_rng([seed, 2])
    cases: list[Case] = []
    for family, species, plan in MULTI_PLAN:
        dims = [local_dim(k, n) for k, n in species]
        for kind, left in plan:
            if kind == "sep":
                tensor, name, cuts = _local_product(rng, species), "separable", ()
            elif kind == "bisep":
                tensor = _bisep(rng, species, left)
                right = tuple(i for i in range(1, len(species) + 1) if i not in left)
                cut = (left, right) if (left, right) in bipartitions(len(species)) else (right, left)
                name, cuts = "biseparable", (cut,)
            else:
                tensor, name, cuts = _complex(rng, dims), "entangled", ()
            tensor = tensor / np.linalg.norm(tensor)
            k_total = sum(k for k, _ in species)
            n_total = sum(n for _, n in species)
            merged = merged_amplitudes(species, tensor)
            case = Case(family, kind, "multi", (species, tensor), None, name, cuts)
            wp = top_wedge(merged, k_total, n_total)
            case.extra["wedge"] = None if wp is None else (0.0 if kind == "sep" else wp)
            case.extra["svd_cuts"] = flattening_cuts(tensor)
            cases.append(case)
    for (k, n), count in FERMION_PLAN:
        for kind in ("sep", "ent") * count:
            if kind == "sep":
                vec, name = wedge_vector(_complex(rng, (n, k))), "separable"
            else:
                vec, name = _complex(rng, local_dim(k, n)), "entangled"
            vec = vec / np.linalg.norm(vec)
            keys = itertools.combinations(range(1, n + 1), k)
            amps = dict(zip(keys, vec))
            case = Case(f"fermion ({k},{n})", kind, "fermion", (k, n, vec), None, name)
            wp = top_wedge(amps, k, n)
            case.extra["wedge"] = None if wp is None else (0.0 if kind == "sep" else wp)
            cases.append(case)
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def expected_flattening_cuts(case: Case) -> tuple:
    species = case.native[0]
    if case.kind == "sep":
        return tuple(bipartitions(len(species)))
    return case.cuts


# -- the files of the cold CLI workload ----------------------------------------------


def _entry(key, value) -> dict:
    return {"key": key, "re": float(value.real), "im": float(value.imag)}


def state_file(case: Case) -> dict:
    """State-file JSON object of a ranked case (dense index keys, 1-based fermion modes)."""
    x = case.native
    if case.system == "fermion":
        entries = [_entry(list(key), v) for key, v in zip(_TRIPLES6, x)]
        return {"system": "fermion", "shape": [3, 6], "amplitudes": entries}
    if case.system == "qubit_fermion4":
        entries = [_entry([bit, a, b], x[bit, col])
                   for bit in range(2) for col, (a, b) in enumerate(_PAIRS4)]
    else:
        entries = [_entry([int(i) for i in idx], x[idx]) for idx in np.ndindex(x.shape)]
    return {"system": case.system, "amplitudes": [e for e in entries if e["re"] or e["im"]]}


#: Kinds that go into the batch directory besides one image of every class.
BATCH_EXTRA = (("qubit3", "random"), ("boson2q", "random"))
#: Files classified by single cold processes in every round.
SINGLE_KINDS = (("qubit3", "bisep_cut2"), ("fermion", "ghz"))


def batch_cases(seed: int) -> dict[str, Case]:
    """About two dozen ranked states, one image per class plus two generic
    draws, none of them near a decision threshold."""
    pool = ranked_cases(seed, images=1, random_pairs=1)
    out, seen = {}, set()
    for case in pool:
        tag = (case.system, case.kind)
        if tag in seen or (case.kind == "random" and tag not in BATCH_EXTRA):
            continue
        seen.add(tag)
        out[f"{case.system}_{case.kind}.json"] = case
    return dict(sorted(out.items()))


def act_inputs(seed: int, k: int = 5, n: int = 12):
    """A dense fermionic state at (k, n) and a conditioned GL(n) element."""
    rng = np.random.default_rng([seed, 3])
    vec = _complex(rng, local_dim(k, n))
    vec /= np.linalg.norm(vec)
    g = conditioned_matrix(rng, n, cond=2.0)
    keys = [list(key) for key in itertools.combinations(range(1, n + 1), k)]
    state = {"system": "fermion", "shape": [k, n],
             "amplitudes": [_entry(key, v) for key, v in zip(keys, vec)]}
    matrix = {"matrices": [[[[float(v.real), float(v.imag)] for v in row] for row in g]]}
    return state, matrix, vec, g
