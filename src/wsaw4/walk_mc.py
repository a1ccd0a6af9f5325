"""Monte Carlo for the continuous-time weakly self-avoiding walk.

The walk takes nearest-neighbour steps at the events of a rate-2d Poisson
clock; a path up to horizon T is weighted by ``exp(-g I(T))`` where the
intersection local time ``I(T) = sum_x (L_T^x)^2`` penalises
self-intersections.  Local times are accumulated from exact residence
intervals (never time discretisation), so ``sum_x L_T^x = T`` holds to
roundoff pathwise.

Randomness contract
-------------------
All estimators draw from counter-based Philox streams keyed by
``(seed, block_index)`` over fixed-size blocks of samples, and merge block
statistics in block order with the pairwise (Chan) update of one reducer.
Results are therefore bit-reproducible for a given seed regardless of how
blocks would be distributed over workers, and independent samples never
share a stream.  Batch sampling uses the conditional representation of the
Poisson clock (jump count ~ Poisson(2dT), jump times i.i.d. uniform on
[0, T]), which is distributionally identical to drawing exponential(2d)
inter-jump gaps; :func:`simulate` draws the exponential gaps literally.
A block simulates each walk once, to its last horizon, and reads ``I(t)``
at every earlier horizon from the same path: the clock restricted to
``[0, t]`` is the clock on ``[0, t]``.  So :func:`susceptibility_mc` runs
one stream of ``n`` walks to ``T_max`` and takes its standard error across
walks, and :func:`jensen_bound_check` reads both of its means from one
pass.

Folding: projecting a walk on Z^d to the torus of period n can only merge
sites, so intersection local time grows pathwise under folding, and grows
further as the period shrinks through a geometric sequence.  Unfolding is
unique for nearest-neighbour walks only when the period is >= 3, so
comparisons enforce that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice_green import LatticeSpec, constant_a

__all__ = [
    "WalkSample",
    "Estimate",
    "LaplaceEstimate",
    "JensenReport",
    "simulate",
    "estimate_cT",
    "estimate_mean_intersection",
    "fold_and_compare",
    "intersection_local_time",
    "susceptibility_mc",
    "conditioned_intersection",
    "saw_counts",
    "jensen_bound_check",
]

BLOCK_SIZE = 4096


# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------

def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Philox stream for one block, keyed by (seed, block_index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _combine(n1, mean1, m2_1, n2, mean2, m2_2):
    """Chan's pairwise combination of (count, mean, sum of squared devs)."""
    if n2 == 0:
        return n1, mean1, m2_1
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


def _chan_stream(blocks):
    """Merge per-block value arrays in block order with :func:`_combine`.

    Each block has shape ``(k, nb)`` (k statistics of nb samples) or
    ``(nb,)``.  Rows are reduced along their contiguous axis, so each is
    summed as a 1-D block would be.  Returns per-row ``(mean, se, count)``.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for vals in blocks:
        bmean = vals.mean(axis=-1)
        bm2 = ((vals - bmean[..., None]) ** 2).sum(axis=-1)
        count, mean, m2 = _combine(count, mean, m2, vals.shape[-1], bmean, bm2)
    se = np.sqrt(m2 / (count - 1) / count) if count > 1 else np.zeros_like(m2)
    return mean, se, count


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class LaplaceEstimate(Estimate):
    truncation_bound: float = 0.0   # bound on the neglected Laplace tail
    quadrature_error: float = 0.0   # Simpson error estimate of the T-grid


@dataclass(frozen=True)
class JensenReport:
    mean_I: float
    se_I: float
    upper_bound: float          # 2 T C_0(0)
    c_T_hat: float
    se_c_T: float
    jensen_floor: float         # exp(-g * mean_I)
    bound_satisfied: bool
    jensen_satisfied: bool


# ---------------------------------------------------------------------------
# Single-walk simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkSample:
    """One continuous-time walk up to horizon T.

    sites[v] is the position during the v-th residence interval and
    gaps[v] its exact duration; jump_times are the Poisson events.
    """

    T: float
    jump_times: np.ndarray
    sites: np.ndarray           # (n_jumps + 1, d) integer positions
    gaps: np.ndarray            # (n_jumps + 1,) residence durations
    local_times: dict
    I_T: float

    @property
    def total_time(self) -> float:
        return float(self.gaps.sum())


def _local_times_from_visits(sites, gaps):
    lt = {}
    for pos, dt in zip(map(tuple, sites.tolist()), gaps):
        lt[pos] = lt.get(pos, 0.0) + float(dt)
    return lt


def intersection_local_time(sites: np.ndarray, gaps: np.ndarray) -> float:
    """I(T) = sum_x (L_T^x)^2 from per-visit positions and durations."""
    lt = _local_times_from_visits(np.asarray(sites), np.asarray(gaps))
    return float(sum(v * v for v in lt.values()))


def simulate(spec: LatticeSpec, T: float, rng_stream, sample_index: int = 0) -> WalkSample:
    """Simulate one walk: exponential(2d) gaps, uniform neighbour steps.

    ``rng_stream`` is either a seed (combined with ``sample_index`` into a
    Philox key) or a ready ``numpy.random.Generator``.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if spec.geometry == "graph":
        raise ValueError("walks run on window or torus geometry")
    rng = rng_stream if isinstance(rng_stream, np.random.Generator) \
        else block_rng(rng_stream, sample_index)
    d = spec.d
    rate = 2.0 * d
    times = []
    t = rng.exponential(1.0 / rate)
    while t < T:
        times.append(t)
        t += rng.exponential(1.0 / rate)
    n = len(times)
    jump_times = np.array(times)
    dirs = rng.integers(0, 2 * d, size=n)
    steps = np.zeros((n, d), dtype=np.int64)
    if n:
        steps[np.arange(n), dirs >> 1] = 1 - 2 * (dirs & 1)
    sites = np.zeros((n + 1, d), dtype=np.int64)
    if n:
        sites[1:] = np.cumsum(steps, axis=0)
    if spec.geometry == "torus":
        sites = np.mod(sites, spec.period)
    bounds = np.concatenate([[0.0], jump_times, [T]])
    gaps = np.diff(bounds)
    lt = _local_times_from_visits(sites, gaps)
    I_T = float(sum(v * v for v in lt.values()))
    return WalkSample(T=T, jump_times=jump_times, sites=sites, gaps=gaps,
                      local_times=lt, I_T=I_T)


def fold_and_compare(sample: WalkSample, periods) -> dict:
    """I(T) of the same trajectory folded to each torus period.

    Returns ``{period: I_T}`` plus the unfolded value under key ``None``,
    and asserts the pathwise monotonicity: shrinking the period through the
    (ascending) list can only merge sites and so increase I(T), and every
    folding dominates the unfolded walk.  Periods must be >= 3 (unique
    unfolding regime for nearest-neighbour walks).
    """
    out = {None: sample.I_T}
    for p in periods:
        p = int(p)
        if p < 3:
            raise ValueError("folding comparisons need period >= 3")
        folded = np.mod(sample.sites, p)
        out[p] = intersection_local_time(folded, sample.gaps)
    ps = sorted(int(p) for p in periods)
    tol = 1e-12 * (1.0 + sample.I_T)
    for small, big in zip(ps, ps[1:]):
        if big % small == 0:
            assert out[small] >= out[big] - tol, "folding monotonicity failed"
    for p in ps:
        assert out[p] >= sample.I_T - tol, "folded walk lost intersections"
    return out


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------

def _block_intersections(spec, horizons, rng, nblock):
    """I(t) at each of the ascending ``horizons`` for a block of walks.

    Each walk is simulated once, to the last horizon: jump counts are
    Poisson(2dT); conditionally the jump times are sorted uniforms and
    steps are uniform neighbours.  Local times are grouped by packing
    (sample, site) into one int64 key.  An earlier horizon t cuts every
    residence interval at t.  Returns shape ``(len(horizons), nblock)``.
    """
    d = spec.d
    T = horizons[-1]
    N = rng.poisson(2 * d * T, size=nblock)
    total = int(N.sum())
    starts = np.concatenate([[0], np.cumsum(N[:-1])])
    owner = np.repeat(np.arange(nblock), N)
    times = rng.random(total) * T
    order = np.lexsort((times, owner))
    times = times[order]
    dirs = rng.integers(0, 2 * d, size=total)

    steps = np.zeros((total, d), dtype=np.int64)
    if total:
        steps[np.arange(total), dirs >> 1] = 1 - 2 * (dirs & 1)
    cum = np.cumsum(steps, axis=0)
    base = np.zeros((nblock, d), dtype=np.int64)
    nz = starts > 0
    base[nz] = cum[starts[nz] - 1]
    pos_after = cum - np.repeat(base, N, axis=0)

    # visits: one origin visit per sample plus one per jump
    nv = total + nblock
    visit_starts = starts + np.arange(nblock)
    vowner = np.repeat(np.arange(nblock), N + 1)
    vpos = np.zeros((nv, d), dtype=np.int64)
    vtimes = np.zeros(nv)     # time at which the visit starts
    jump_rows = np.ones(nv, dtype=bool)
    jump_rows[visit_starts] = False
    vpos[jump_rows] = pos_after
    vtimes[jump_rows] = times
    # end of each residence interval: the next visit's start, or T
    next_t = np.empty(nv)
    next_t[:-1] = vtimes[1:]
    next_t[-1] = T
    ends = visit_starts + N  # last visit of each sample
    next_t[ends] = T

    if spec.geometry == "torus":
        vpos = np.mod(vpos, spec.period)

    # pack (sample, site) into one int64
    cmax = int(np.abs(vpos).max()) + 1 if nv else 1
    side = 2 * cmax + 1
    if side**d * nblock > 2**62:
        raise OverflowError("site key would overflow; reduce T or block size")
    key = vowner.astype(np.int64)
    for ax in range(d):
        key = key * side + (vpos[:, ax] + cmax)
    sorter = np.argsort(key, kind="stable")
    skey = key[sorter]
    snext, sstart = next_t[sorter], vtimes[sorter]
    sowner = vowner[sorter]
    seg = np.concatenate([[0], np.flatnonzero(skey[1:] != skey[:-1]) + 1])
    I = np.zeros((len(horizons), nblock))
    gaps = np.empty(nv)
    for row, t in zip(I, horizons):
        # residence time before t: max(min(next_t, t) - start, 0)
        np.minimum(snext, t, out=gaps)
        np.subtract(gaps, sstart, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        lt = np.add.reduceat(gaps, seg)
        np.add.at(row, sowner[seg], lt * lt)
    return I


def _walk_stream(spec, horizons, n, seed, value_fn):
    """Yield ``value_fn(I)`` per block of n walks, I from _block_intersections."""
    for b, start in enumerate(range(0, n, BLOCK_SIZE)):
        nb = min(BLOCK_SIZE, n - start)
        yield value_fn(_block_intersections(spec, horizons, block_rng(seed, b), nb))


def estimate_cT(spec: LatticeSpec, g: float, T: float, n: int, seed: int = 0) -> Estimate:
    """Monte Carlo estimate of ``c_T = E exp(-g I(T))``."""
    if g < 0:
        raise ValueError("g must be >= 0")
    mean, se, count = _chan_stream(
        _walk_stream(spec, [T], n, seed, lambda I: np.exp(-g * I[0])))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


def estimate_mean_intersection(spec: LatticeSpec, T: float, n: int,
                               seed: int = 0) -> Estimate:
    """Monte Carlo estimate of E I(T)."""
    mean, se, count = _chan_stream(
        _walk_stream(spec, [T], n, seed, lambda I: I[0]))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


# ---------------------------------------------------------------------------
# Laplace transform (susceptibility)
# ---------------------------------------------------------------------------

def susceptibility_mc(spec: LatticeSpec, g: float, nu: float, T_max: float,
                      n: int, seed: int = 0, grid_points: int = 33) -> LaplaceEstimate:
    """chi(g, nu) ~= int_0^T_max c_T e^{-nu T} dT by Simpson over MC points.

    One stream of n walks runs to T_max; each walk contributes its own
    Simpson sum of ``e^{-nu T} e^{-g I(T)}`` over the grid, so ``c_T`` at
    every grid point comes from the same paths, and the standard error is
    taken across walks (it accounts for the correlation between grid
    points).  ``n`` counts walks: at n = 2000 the error is about 2.7x that
    of n fresh walks per grid point, at about 1/8 of their cost.

    nu must be positive: the neglected tail is then bounded by
    ``exp(-nu T_max)/nu`` (since c_T <= 1), which is reported rather than
    hidden.  Near-critical nu is out of Monte Carlo reach and rejected.
    """
    if nu <= 0:
        raise ValueError("susceptibility_mc requires nu > 0 "
                         "(unverifiable truncation otherwise)")
    if grid_points % 2 == 0:
        grid_points += 1
    Ts = np.linspace(0.0, T_max, grid_points)
    h = Ts[1] - Ts[0]
    w = np.ones(grid_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (h / 3.0) * np.exp(-nu * Ts)
    mean, se, count = _chan_stream(
        _walk_stream(spec, Ts, n, seed, lambda I: w @ np.exp(-g * I)))
    tail = math.exp(-nu * T_max) / nu
    # Simpson h^4 error proxy from the exact g=0 integrand scale
    quad_err = float((h**4 / 180.0) * nu**3 * T_max)
    return LaplaceEstimate(mean=float(mean), std_error=float(se),
                           n_samples=count, seed=seed, truncation_bound=tail,
                           quadrature_error=quad_err)


# ---------------------------------------------------------------------------
# Conditioned intersection local time
# ---------------------------------------------------------------------------

def conditioned_intersection(T: float, n: int, n_samples: int,
                             seed: int = 0) -> Estimate:
    """E(I(T) | n jumps, path self-avoiding) by direct gap sampling.

    Conditionally on the number of jumps, jump times are i.i.d. uniform on
    [0, T]; on the self-avoiding event every site is visited once, so
    I(T) is the sum of squared gaps.  The exact value is 2T^2/(n+2).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Estimate(mean=T * T, std_error=0.0, n_samples=n_samples, seed=seed)
    per_block = max(1, BLOCK_SIZE // n)

    def blocks():
        for b, start in enumerate(range(0, n_samples, per_block)):
            nb = min(per_block, n_samples - start)
            u = np.sort(block_rng(seed, b).random((nb, n)) * T, axis=1)
            bounds = np.concatenate([np.zeros((nb, 1)), u,
                                     np.full((nb, 1), T)], axis=1)
            yield (np.diff(bounds, axis=1) ** 2).sum(axis=1)

    mean, se, count = _chan_stream(blocks())
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count,
                    seed=seed)


# ---------------------------------------------------------------------------
# Strictly self-avoiding walk counts
# ---------------------------------------------------------------------------

def saw_counts(d: int, n_max: int):
    """Exact counts s_n of n-step strictly self-avoiding walks, n = 1..n_max.

    Pure-Python backtracking enumeration, whose cost grows about (2d-1)-fold
    per step.  The budget caps n_max at 64, 13, 9 and 7 for d = 1, 2, 3, 4,
    so that the largest allowed call takes a few seconds; larger requests
    raise.
    """
    if not 1 <= d <= 4:
        raise ValueError("d must be in 1..4")
    budget = {1: 64, 2: 13, 3: 9, 4: 7}[d]
    if n_max > budget:
        raise ValueError(f"enumeration budget exceeded: n_max <= {budget} for d={d}")
    if d == 1:
        return [2] * n_max
    counts = [0] * (n_max + 1)
    steps = []
    for ax in range(d):
        for s in (1, -1):
            e = [0] * d
            e[ax] = s
            steps.append(tuple(e))
    origin = (0,) * d
    visited = {origin}
    path = [origin]

    def extend(depth):
        pos = path[-1]
        for e in steps:
            nxt = tuple(p + q for p, q in zip(pos, e))
            if nxt in visited:
                continue
            counts[depth] += 1
            if depth < n_max:
                visited.add(nxt)
                path.append(nxt)
                extend(depth + 1)
                path.pop()
                visited.remove(nxt)

    extend(1)
    return counts[1:]


# ---------------------------------------------------------------------------
# Jensen bound
# ---------------------------------------------------------------------------

def jensen_bound_check(g: float, T: float, n: int, seed: int = 0) -> JensenReport:
    """Check E I(T) <= 2 T C_0(0) and c_T >= exp(-g E I(T)) at d = 4.

    Both means come from one pass over the same n walks.
    """
    spec = LatticeSpec.window(4)
    (mean_I, c_hat), (se_I, se_c), _ = _chan_stream(_walk_stream(
        spec, [T], n, seed, lambda I: np.concatenate([I, np.exp(-g * I)])))
    mean_I, c_hat, se_I, se_c = map(float, (mean_I, c_hat, se_I, se_c))
    bound = T * constant_a()  # = 2 T C_0(0)
    floor = math.exp(-g * mean_I)
    return JensenReport(
        mean_I=mean_I, se_I=se_I, upper_bound=bound,
        c_T_hat=c_hat, se_c_T=se_c, jensen_floor=floor,
        bound_satisfied=mean_I <= bound + 3.0 * se_I,
        jensen_satisfied=c_hat >= floor - 3.0 * se_c,
    )
