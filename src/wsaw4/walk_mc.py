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
Results are therefore bit-reproducible for a given seed however blocks are
distributed over workers (the walk estimators value one block per usable
core at once on threads), and independent samples never share a stream.
A block's stream holds all jump counts ~ Poisson(2dT), then all jump
times, i.i.d. uniform on [0, T], then all steps; :func:`simulate` draws
the one-walk block of its stream.  A block is drawn and valued part by
part, ``_PART_VISITS`` visits at a time, in arrays reused across its
parts; a walk's value depends on its own draws only, so no value depends
on where the parts are cut.  One sort of a packed ``(walk, site, visit)``
key groups a part's local times, each site's in visit order.
``I(t)`` is piecewise quadratic along a walk, so :func:`susceptibility_mc`
integrates each walk's ``e^{-nu t - g I(t)}`` over ``[0, T_max]`` exactly
and takes its standard error across one stream of ``n`` walks;
:func:`jensen_bound_check` reads both of its means from one pass.

Folding: projecting a walk on Z^d to the torus of period n can only merge
sites, so intersection local time grows pathwise under folding, and grows
further as the period shrinks through a geometric sequence.  Unfolding is
unique for nearest-neighbour walks only when the period is >= 3, so
comparisons enforce that.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .lattice_green import LatticeSpec, _is_integer, constant_a

__all__ = [
    "WalkSample",
    "Estimate",
    "LaplaceEstimate",
    "JensenReport",
    "simulate",
    "estimate_cT",
    "estimate_mean_intersection",
    "fold_and_compare",
    "susceptibility_mc",
    "conditioned_intersection",
    "saw_counts",
    "jensen_bound_check",
]

BLOCK_SIZE = 4096
_PART_VISITS = 12288  # visits valued per kernel call, so that no part pages
# a block's bytes, from tracemalloc peaks at d = 1 .. 9: 32 a walk, and 384
# a visit valued at once, a part's and its longest walk's (375 at most, d = 9)
_WALK_BYTES, _VISIT_BYTES = 32, 384
_DRAW_BUDGET = 2**29  # d = 4: 4,096 walks or one reach T = 1.73e5


# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------

def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Philox stream for one block, keyed by (seed, block_index)."""
    _check_count("seed", seed, -math.inf)
    key = np.array([np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(block_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _combine(n1, mean1, m2_1, n2, mean2, m2_2):
    """Chan's pairwise combination of (count, mean, sum of squared devs)."""
    n = n1 + n2
    delta = mean2 - mean1
    mean = mean1 + delta * (n2 / n)
    m2 = m2_1 + m2_2 + delta * delta * (n1 * n2 / n)
    return n, mean, m2


def _chan_stream(blocks):
    """Merge per-block value arrays in block order with :func:`_combine`.

    Each block has shape ``(k, nb)`` (k statistics of nb samples) or
    ``(nb,)``.  Rows are reduced along their contiguous axis, so each is
    summed as a 1-D block would be.  Returns per-row ``(mean, se, count)``;
    callers check first for the 2 samples that a standard error needs.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for vals in blocks:
        bmean = vals.mean(axis=-1)
        bm2 = ((vals - bmean[..., None]) ** 2).sum(axis=-1)
        count, mean, m2 = _combine(count, mean, m2, vals.shape[-1], bmean, bm2)
    return mean, np.sqrt(m2 / (count - 1) / count), count


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class LaplaceEstimate(Estimate):
    truncation_bound: float         # bound on the neglected Laplace tail
    quadrature_error: ClassVar[float] = 0.0  # each walk's integral is exact


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
    I_T: float

    @property
    def total_time(self) -> float:
        return float(self.gaps.sum())


def _intersection_local_time(sites: np.ndarray, gaps: np.ndarray) -> float:
    """I(T) = sum_x (L_T^x)^2 from per-visit positions and durations."""
    lt = {}
    for pos, dt in zip(map(tuple, np.asarray(sites).tolist()), gaps):
        lt[pos] = lt.get(pos, 0.0) + float(dt)
    return float(sum(v * v for v in lt.values()))


def _check_horizon(T):
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be > 0 and finite, got {T}")


def _check_coupling(g):
    if not 0.0 <= g < np.inf:
        raise ValueError(f"g must be >= 0 and finite, got {g}")


def _check_count(name, v, least=2):
    """Raise naming ``name`` unless ``v`` is an integer (numpy's too) >=
    ``least``; 2 samples are the fewest that give a standard error."""
    if not _is_integer(v):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{name} = {v}: need >= {least}")


def _check_draw(spec, T, nblock):
    """Raise naming T unless a block of ``nblock`` walks fits ``_DRAW_BUDGET``
    bytes: its walks, and the visits of a part and of one walk, valued whole
    where it is longer than a part, valued at once.  Returns the bytes."""
    _check_horizon(T)
    need = _WALK_BYTES * nblock + _VISIT_BYTES * (2 * spec.d * T + _PART_VISITS)
    if need > _DRAW_BUDGET:
        raise ValueError(f"T = {T} needs about {need / 2**20:.3g} MiB for a "
                         f"block of {nblock} walks at d = {spec.d}, more than "
                         f"the {_DRAW_BUDGET // 2**20} MiB budget")
    return need


def simulate(spec: LatticeSpec, T: float, seed: int, sample_index: int = 0) -> WalkSample:
    """Simulate one walk, the one-walk block of ``block_rng(seed,
    sample_index)``: drawn by :func:`_draw`, as every block is, so its
    ``I_T`` is that block's value up to roundoff.
    """
    _check_count("sample_index", sample_index, 0)
    _check_draw(spec, T, 1)
    _, (_, _, times, dirs) = _draw(spec, T, block_rng(seed, sample_index), 1)
    jump_times = np.sort(times)
    sites = _positions(dirs, spec.d)
    if spec.geometry == "torus":
        sites = np.mod(sites, spec.period)
    gaps = np.diff(np.concatenate([[0.0], jump_times, [T]]))
    return WalkSample(T=T, jump_times=jump_times, sites=sites, gaps=gaps,
                      I_T=_intersection_local_time(sites, gaps))


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
        _check_count("period", p, 3)
        out[p] = _intersection_local_time(np.mod(sample.sites, p), sample.gaps)
    ps = sorted(periods)
    tol = 1e-12 * (1.0 + sample.I_T)
    # explicit raises, not assert, so the check survives python -O
    for small, big in zip(ps, ps[1:]):
        if big % small == 0 and out[small] < out[big] - tol:
            raise AssertionError("folding monotonicity failed")
    for p in ps:
        if out[p] < sample.I_T - tol:
            raise AssertionError("folded walk lost intersections")
    return out


# ---------------------------------------------------------------------------
# Vectorized block sampling
# ---------------------------------------------------------------------------

def _draw(spec, T, rng, nblock, steps=True):
    """A block in stream order, part by part: yields its Poisson(2dT) jump
    counts ``N``, then ``(a, b, times[, dirs])`` for the walks ``a:b`` whose
    last visits fall in a part.  Times, uniform on [0, T], continue the
    stream; steps, 0 .. 2d-1, follow all times, from a second Philox."""
    yield (N := rng.poisson(2 * spec.d * T, size=nblock))
    ends = np.cumsum(N)   # the jumps of each walk and of those before it
    part = (ends + np.arange(nblock)) // _PART_VISITS   # of its last visit
    edges = [0, *((part[1:] != part[:-1]).nonzero()[0] + 1).tolist(), nblock]
    cut = [0, *ends[[b - 1 for b in edges[1:]]].tolist()]
    step_rng = rng   # one part: its steps follow its times on the stream
    if steps and len(edges) > 2:   # a time is one 64-bit word, 4 a counter
        bits = np.random.Philox()
        bits.state = state = rng.bit_generator.state
        ahead, rest = divmod(state["buffer_pos"] + cut[-1], 4)
        step_rng = np.random.Generator(bits.advance(ahead - 1))
        bits.random_raw(rest)
    buf = np.empty(max(j - i for i, j in zip(cut, cut[1:])))
    for a, b, i, j in zip(edges, edges[1:], cut, cut[1:]):
        times = np.multiply(rng.random(out=buf[:j - i]), T, out=buf[:j - i])
        yield (a, b, times, step_rng.integers(0, 2 * spec.d, size=j - i)) \
            if steps else (a, b, times)


def _block_intersections(spec, T, rng, nblock, g=0.0, nu=None):
    """I(T) for a block of walks, or with ``nu`` each walk's ``int_0^T e^{-nu
    t - g I(t)} dt``, shape ``(nblock,)``.  :func:`_draw` draws each part just
    before it is valued (no steps at ``g = 0``), in arrays kept for the block."""
    draws = _draw(spec, T, rng, nblock, steps=nu is None or g != 0)
    N, buf = next(draws), {}
    return np.concatenate([_walk_values(spec, T, g, nu, N[a:b], *x, buf=buf)
                           for a, b, *x in draws])


def _walk_values(spec, T, g, nu, N, times, dirs=None, buf=None):
    """Values of consecutive walks with jump counts ``N`` from their draws.

    Arrays run over the jumps, the walks' start visits apart.  One sort of
    the packed ``(walk, site, visit)`` int64 key, the starts first, groups
    the local times, each site's in visit order; walks keep their places.
    Part-sized arrays are views of the block's arrays in the dict ``buf``."""
    buf = {} if buf is None else buf

    def kept(name, n, dtype=float):   # made anew only where too short
        if name not in buf or buf[name].size < n:
            buf[name] = np.empty(n, dtype)
        return buf[name][:n]

    nb, d, nj = N.size, spec.d, times.size
    m, width, cbits = nj + nb, int(N.max()) + 2, int(N.max()).bit_length()
    start = np.cumsum(N) - N                        # each walk's first jump
    cell = kept("cell", m, int)   # a jump's (walk, visit) in the flat table
    np.add(np.repeat(np.arange(0, nb * width, width) - start, N),
           np.arange(1, nj + 1), out=cell[:nj])
    # each walk's visit start times sorted along a T-padded row of the table
    table = kept("table", nb * width)
    table.fill(T)
    table[cell[:nj]] = times
    table[::width] = 0.0
    table.reshape(nb, width).sort(axis=1)
    # an interval ends at the next visit's start, or T
    gaps = np.subtract(table[1:], table[:-1], out=kept("gaps", nb * width - 1))
    if nu is not None:   # the visits' cells, in visit order
        visit = np.add(np.repeat(np.arange(nb) * (width - 1) - start, N + 1),
                       np.arange(m), out=kept("visit", m, int))
        vtimes = np.take(table, visit, out=kept("s", m), mode="clip")
        vgaps = np.take(gaps, visit, out=kept("gap", m), mode="clip")
        if dirs is None:
            return np.bincount(visit // width, np.exp(-nu * vtimes)
                               * -np.expm1(-nu * vgaps) / nu, nb)
    torus = spec.geometry == "torus"
    # a site is one int64 of digits, axis 0 the most significant; on a window
    # a coordinate is a balanced digit, bounded by the part's longest walk
    base = spec.period if torus else 2 * int(N.max()) + 1
    key = kept("key", m, int)   # the starts' keys, then the jumps'
    if not torus and (nb * base**d) << cbits <= 2**63:
        # cumsum of (step code << cbits) + 1, less its value before the walk
        step = np.array([(s * base**a << cbits) + 1
                         for a in range(d - 1, -1, -1) for s in (1, -1)])
        key[nb - 1] = 0   # then the steps' prefix sums
        np.cumsum(np.take(step, dirs, out=key[nb:], mode="clip"), out=key[nb:])
        first, shift = key[nb - 1:][start], cbits
    else:
        pos = _positions(dirs, d)
        pos = pos[1:] - np.repeat(pos[start], N, axis=0)   # from the start
        if torus:
            pos = np.mod(pos, base)
        else:   # too wide a base: take the part's coordinate range
            base = 2 * int(np.abs(pos).max(initial=0)) + 1
        if nb * base**d >= 2**63:
            raise ValueError(f"site key would overflow int64 at d = {d}, T = "
                             f"{T}" + (f", period = {base}" if torus else ""))
        first, shift = 0, cbits if (nb * base**d) << cbits <= 2**63 else 0
        key[nb:] = (pos @ base ** np.arange(d - 1, -1, -1)) << shift \
            | (cell[:nj] % width if shift else 0)   # shift 0: no room
    span = base**d
    wkey = (np.arange(nb) * span + (0 if torus else span // 2)) << shift
    key[nb:] += np.repeat(wkey - first, N)
    key[:nb] = wkey
    if shift:
        key.sort()
        col = np.bitwise_and(key, (1 << shift) - 1, out=kept("col", m, int))
        key >>= shift
    else:   # no room for the visit index: a stable sort keeps visit order
        sorter = np.argsort(key, kind="stable")
        col = np.append(np.zeros(nb, np.int64), cell[:nj] % width)[sorter]
        key = key[sorter]
    # a visit's walk, in visit order too, and its cell
    walk = np.floor_divide(key, span, out=kept("walk", m, int))
    cell = np.add(np.multiply(walk, width, out=cell), col, out=cell)
    seg = np.concatenate([[0], np.flatnonzero(key[1:] != key[:-1]) + 1])
    f = np.take(gaps, cell, out=kept("f", m), mode="clip")
    if nu is None:
        lt = np.add.reduceat(f, seg)
        return np.bincount(walk[seg], lt * lt, nb)
    # prefix sums over a walk's earlier entries, one padded row per walk, so
    # roundoff scales with one walk's total rather than the block's: of the
    # gaps in site order, then of I(t)'s increments in visit order
    rows = kept("rows", nb * width)   # summed in place, zeroed once: the
    rows.fill(0.0)   # second sum rewrites a row's cells 1 .. N+1, all it reads
    rows[1:][visit] = f
    np.cumsum(rows.reshape(nb, width), axis=1, out=rows.reshape(nb, width))
    c = np.take(rows, visit, out=f, mode="clip")
    c -= np.repeat(c[seg], np.diff(seg, append=m))
    table[cell] = c
    ell = np.take(table, visit, out=f, mode="clip")   # the site's local time
    inc = np.multiply(ell, 2.0, out=kept("I", m))   # before each visit
    inc += vgaps
    rows[1:][visit] = np.multiply(inc, vgaps, out=inc)
    np.cumsum(rows.reshape(nb, width), axis=1, out=rows.reshape(nb, width))
    I_s = np.take(rows, visit, out=inc, mode="clip")
    return np.bincount(walk, _gaussian_pieces(
        g, nu, vtimes, vgaps, ell, I_s, *(kept(k, m) for k in "pqh")), nb)


def _positions(dirs, d):
    """Z^d sites from the origin after each step of ``dirs``, the origin first."""
    pos = np.zeros((dirs.size + 1, d), dtype=np.int64)
    pos[np.arange(1, dirs.size + 1), dirs >> 1] = 1 - 2 * (dirs & 1)
    return np.cumsum(pos, axis=0)


def _gaussian_pieces(g, nu, s, gap, ell, I_s, p, q, h):
    """``int_s^{s+gap} e^{-nu t - g I(t)} dt``, ``I(t) = I_s + 2 ell u + u^2``.

    With ``u = t - s``, ``x = sqrt(g) (ell + nu/2g)`` and ``y = x + sqrt(g)
    gap`` it is ``sqrt(pi/g)/2 e^{-nu s - g I_s + x^2} (erfc(x) - erfc(y))``
    for g > 0, formed about ``m``, the point of ``[x, y]`` nearest 0 where
    the integrand peaks: ``e^{m^2} (erfc(x) - erfc(y))`` lies in ``[0, 2]``,
    so no factor overflows where the integral is finite.  Formed in place
    over its arguments, ``p``, ``q`` and ``h`` as workspace; returns ``s``.
    """
    from scipy.special import erfc, erfcx  # only Laplace estimates load it
    ell += nu / (2.0 * g)
    x = np.multiply(ell, math.sqrt(g), out=ell)
    w = np.multiply(gap, math.sqrt(g), out=gap)
    np.add(x, w, out=q)   # y
    # erfc(x) - erfc(y) = erfc(-y) - erfc(-x): take the pair p <= q, p + q >= 0
    flip = np.add(x, q, out=p) < 0.0
    np.copyto(p, x)
    np.negative(q, out=p, where=flip)
    np.negative(x, out=q, where=flip)
    inside = p < 0.0          # then m = 0, else m = p and p^2 - q^2 = -w(p+q)
    w = np.multiply(np.add(p, q, out=h), w, out=w)   # now w (p + q)
    shift = np.multiply(x, x, out=x)
    np.copyto(shift, w, where=flip & ~inside)
    np.copyto(shift, 0.0, where=~(flip | inside))
    np.copyto(np.multiply(q, q, out=h), w, where=~inside)
    np.exp(np.negative(h, out=h), out=h)
    np.multiply(erfcx(q, out=q), h, out=q)
    # e^{m^2} erfc(p) less e^{m^2} erfc(q); scipy's erfc, erfcx under where=
    # masks corrupt the heap
    erfcx(p, out=h)[inside] = erfc(p[inside])
    peaked = np.subtract(h, q, out=h)
    s *= -nu
    s -= np.multiply(I_s, g, out=I_s)
    s += shift
    np.exp(s, out=s)
    s *= 0.5 * math.sqrt(math.pi / g)
    return np.multiply(s, peaked, out=s)


def _cores():
    """Usable cores (all of them where the platform keeps no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _walk_stream(spec, T, n, seed, **laplace):
    """Yield :func:`_block_intersections` for each block of n walks in block
    order, on up to :func:`_cores` threads; streams are made on this one."""
    _check_count("n", n)
    _check_draw(spec, T, min(BLOCK_SIZE, n))
    starts = range(0, n, BLOCK_SIZE)
    jobs = ((spec, T, block_rng(seed, b), min(BLOCK_SIZE, n - start))
            for b, start in enumerate(starts))
    workers = min(_cores(), len(starts))
    if workers < 2:  # the serial loop, no pool
        yield from (_block_intersections(*job, **laplace) for job in jobs)
        return
    from concurrent.futures import ThreadPoolExecutor  # only pooled runs load it
    # workers + 1 in flight; submitting all blocks cost +22.6 MiB at n = 4e7
    pool, ahead = ThreadPoolExecutor(workers), []
    try:
        for job in jobs:
            ahead.append(pool.submit(_block_intersections, *job, **laplace))
            if len(ahead) > workers:
                yield ahead.pop(0).result()
        while ahead:
            yield ahead.pop(0).result()
    finally:  # also when a block raised or the stream was closed
        pool.shutdown(cancel_futures=True)


def estimate_cT(spec: LatticeSpec, g: float, T: float, n: int, seed: int = 0) -> Estimate:
    """Monte Carlo estimate of ``c_T = E exp(-g I(T))``."""
    _check_coupling(g)
    mean, se, count = _chan_stream(
        np.exp(-g * I) for I in _walk_stream(spec, T, n, seed))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count)


def estimate_mean_intersection(spec: LatticeSpec, T: float, n: int,
                               seed: int = 0) -> Estimate:
    """Monte Carlo estimate of E I(T)."""
    mean, se, count = _chan_stream(_walk_stream(spec, T, n, seed))
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count)


# ---------------------------------------------------------------------------
# Laplace transform (susceptibility)
# ---------------------------------------------------------------------------

def susceptibility_mc(spec: LatticeSpec, g: float, nu: float, T_max: float,
                      n: int, seed: int = 0) -> LaplaceEstimate:
    """chi(g, nu) ~= int_0^T_max c_T e^{-nu T} dT from one stream of n walks.

    ``I(t)`` is piecewise quadratic along a walk, so each walk's
    ``int_0^T_max e^{-nu t - g I(t)} dt`` is exact (``quadrature_error`` is
    0) and the standard error is taken across walks.  The neglected tail is
    bounded and reported: by ``e^{-nu T_max}/nu`` as ``c_T <= 1`` (nu > 0),
    or on a torus with g > 0, where ``I(T) >= T^2/|V|`` over its ``|V|``
    sites, by ``int_T_max^inf e^{-nu T - g T^2/|V|} dT`` for every nu.
    Otherwise nu <= 0 (near-critical, out of Monte Carlo reach) is rejected.
    """
    tail = _laplace_tail(spec, g, nu, T_max, n)
    mean, se, count = _chan_stream(_walk_stream(spec, T_max, n, seed,
                                                 g=g, nu=nu))
    return LaplaceEstimate(mean=float(mean), std_error=float(se),
                           n_samples=count, truncation_bound=tail)


def _laplace_tail(spec, g, nu, T_max, n):
    """The tail bound of :func:`susceptibility_mc` for ``n`` walks, after
    its input checks: a ValueError here means no walk is drawn."""
    _check_count("n", n)
    _check_draw(spec, T_max, min(BLOCK_SIZE, n))
    if not math.isfinite(g):
        raise ValueError(f"g must be >= 0 and finite, got {g}")
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if spec.geometry == "torus" and g > 0:
        from scipy.special import erfcx  # only the torus tail loads it here
        ra = math.sqrt(g / spec.period**spec.d)
        try:
            tail = 0.5 * math.sqrt(math.pi) / ra \
                * float(erfcx(ra * T_max + nu / (2.0 * ra))) \
                * math.exp(-(ra * T_max) ** 2 - nu * T_max)
        except OverflowError:
            tail = math.inf
        if not math.isfinite(tail):
            raise ValueError(f"tail bound overflows: nu = {nu}, T_max = {T_max}")
        return tail
    if nu > 0 and g >= 0:
        return math.exp(-nu * T_max) / nu
    raise ValueError("susceptibility_mc requires g >= 0 and nu > 0, or "
                     "a torus with g > 0 (unverifiable truncation otherwise)")


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
    _check_horizon(T)
    _check_count("n", n, 0)
    _check_count("n_samples", n_samples)
    if n == 0:   # no stream is made: check its seed as block_rng does
        _check_count("seed", seed, -math.inf)
        return Estimate(mean=T * T, std_error=0.0, n_samples=n_samples)
    per_block = max(1, BLOCK_SIZE // n)

    def blocks():
        for b, start in enumerate(range(0, n_samples, per_block)):
            nb = min(per_block, n_samples - start)
            u = np.sort(block_rng(seed, b).random((nb, n)) * T, axis=1)
            bounds = np.concatenate([np.zeros((nb, 1)), u,
                                     np.full((nb, 1), T)], axis=1)
            yield (np.diff(bounds, axis=1) ** 2).sum(axis=1)

    mean, se, count = _chan_stream(blocks())
    return Estimate(mean=float(mean), std_error=float(se), n_samples=count)


# ---------------------------------------------------------------------------
# Strictly self-avoiding walk counts
# ---------------------------------------------------------------------------

def saw_counts(d: int, n_max: int):
    """Exact counts s_n of n-step strictly self-avoiding walks, n = 1..n_max.

    Pure-Python backtracking over one symmetry class: walks whose first step
    is ``+e_1`` and whose first off-axis step is ``+e_2``, seeded with the
    prefixes ``+e_1^k, +e_2``.  With ``a_n`` such walks,
    ``s_n = 2d (1 + 2(d-1) a_n)``, the 1 being the straight walk.  The cost
    grows about (2d-1)-fold per step; the budget caps n_max at 64, 17, 12
    and 10 for d = 1, 2, 3, 4, so that the largest allowed call takes a
    few seconds (one step more takes 8-12 s); larger requests raise.
    """
    if not (_is_integer(d) and 1 <= d <= 4):
        raise ValueError(f"d must be an integer in 1..4, got {d!r}")
    _check_count("n_max", n_max, 0)
    budget = {1: 64, 2: 17, 3: 12, 4: 10}[d]
    if n_max > budget:
        raise ValueError(f"enumeration budget exceeded: n_max <= {budget} for d={d}")
    if d == 1:
        return [2] * n_max
    # a site is one int: its coordinates, all in [-n_max, n_max], are its
    # balanced digits in base 2 n_max + 1
    base = 2 * n_max + 1
    steps = [s * base**ax for ax in range(d) for s in (1, -1)]
    counts = [0] * (n_max + 1)

    def extend(pos, depth):
        for e in steps:
            nxt = pos + e
            if nxt in visited:
                continue
            counts[depth] += 1
            if depth < n_max:
                visited.add(nxt)
                extend(nxt, depth + 1)
                visited.remove(nxt)

    for k in range(1, n_max):
        turn = k + base
        visited = set(range(k + 1)) | {turn}
        counts[k + 1] += 1
        if k + 1 < n_max:
            extend(turn, k + 2)
    return [2 * d * (1 + 2 * (d - 1) * a) for a in counts[1:]]


# ---------------------------------------------------------------------------
# Jensen bound
# ---------------------------------------------------------------------------

def jensen_bound_check(g: float, T: float, n: int, seed: int = 0) -> JensenReport:
    """Check E I(T) <= 2 T C_0(0) and c_T >= exp(-g E I(T)) at d = 4.

    Both means come from one pass over the same n walks.
    """
    _check_coupling(g)
    spec = LatticeSpec.window(4)
    (mean_I, c_hat), (se_I, se_c), _ = _chan_stream(
        np.stack([I, np.exp(-g * I)]) for I in _walk_stream(spec, T, n, seed))
    mean_I, c_hat, se_I, se_c = map(float, (mean_I, c_hat, se_I, se_c))
    bound = T * constant_a()  # = 2 T C_0(0)
    floor = math.exp(-g * mean_I)
    return JensenReport(
        mean_I=mean_I, se_I=se_I, upper_bound=bound,
        c_T_hat=c_hat, se_c_T=se_c, jensen_floor=floor,
        bound_satisfied=mean_I <= bound + 3.0 * se_I,
        jensen_satisfied=c_hat >= floor - 3.0 * se_c,
    )
