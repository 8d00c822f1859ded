"""GA-based closer-window search.

Each chromosome holds n_c distinct window indices; fitness is the mean
distance of those windows to the reference window (lower is better). Each
generation keeps the fitter half of the population, produces one child per
parent pair by double-point crossover, mutates the children adaptively
(one point when all gene distances beat the threshold, otherwise every
gene at or above it), and folds every gated gene into a persistent
best-window archive. Rounds of g_max generations repeat until the archive
is full or the round cap is hit.

The reference window is priced first, so the gated set holds it as the
scan's does. Every evaluated chromosome, before and after mutation, passes
through `update_best_set`, so the archive is always the n_c best, by
(distance, index), of the gated windows (`selection.passes_gate`)
evaluated so far. A generation that prices no gated window closer than the
archive's farthest member leaves it as it is, so the merge is skipped, and
the archive can be read off the distance cache.

Lockstep blocks. `search_block` runs the GA for a block of reference
windows at once: the population is a (rows, n_p, n_c) array and the
distance cache a (rows, n_w) array, NaN where a window is not priced yet.
The operators and `DistanceCache.lookup` work on whole rows; a numpy
`Generator` in place of the row keys is their one-row case. A row
leaves the block after the generation its lone run would have stopped at.
`ga_select` turns a row's search into its closest set (the archive read
off the cache, the fallback fill, the trace records); without a search it
runs the one-row block, folding each generation as it goes.

`closest_sets` is the engine's entry point. It starts from the table of
each window's exact top n_c that `selection.gram_shortlist` ranks for
either engine. A short row, whose n_c-th distance fails the gate, can
never fill its archive: `ga_select` answers it from its table row alone,
as a run that evaluated every window would, and only the other rows go
to `search_block`.

Draws. Each draw is a pure function of its address,
`mix(key, op, generation, string, position, try) % n_w`, a splitmix64-style
hash (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC
2011): `op` is init, repair or mutate, `string` the chromosome or child,
and `try` counts the values a position refused. A row's key is the first
raw word of its `ref_stream`; an operator given a numpy `Generator` takes
one raw word from it. The three operators fill genes by one rule
(`_fill`): a position takes its next try until its value is in neither
the genes before it nor the old genes at it or after it. No draw depends
on another row, so a block gives each row exactly its lone run;
`tests/test_ga.py` checks that, and pins the draws with golden digests.

Memory. A block's (rows, n_w) float64 cache holds at most GA_BLOCK_ENTRIES
entries (4 MiB): all 529 rows of a 96x96 image at m=8, s_size=4, and 128
or 129 rows at 512x512. `ref_blocks` splits an image's windows into the
fewest near-equal blocks within that budget, so the fixed numpy cost of a
block-generation is paid as few times as the memory allows. `lookup`
prices coefficients with the scan's kernel (`selection.distances_from`)
and `_fill` checks genes, `selection.PRICE_ENTRIES` at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .selection import (PRICE_ENTRIES, ClosestSet, SelectionParams,
                        distances_from, passes_gate, rank_ascending)

GA_BLOCK_ENTRIES = 2 ** 19   # cache entries per block, to share out overhead
INIT, REPAIR, MUTATE = 0, 1, 2   # the `op` of a draw's address
# splitmix64 Weyl steps and finalizer (0-d arrays apply faster than scalars)
_STEPS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
          0xD6E8FEB86659FD93, 0xA0761D6478BD642F)
_STRING, _POSITION, _TRY = (np.array(c, np.uint64) for c in _STEPS[2:])
_SHIFT1, _MUL1, _SHIFT2, _MUL2, _SHIFT3 = (
    np.array(c, np.uint64)
    for c in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))


@dataclass
class GaParams(SelectionParams):
    """The GA's settings; n_c and l2_t, and their checks, are the scan's."""
    n_p: int = 10
    g_max: int = 100
    c_p1: int = 5
    c_p2: int = 12
    max_rounds: int = 5
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_p < 2 or self.n_p % 2 != 0:
            raise ValueError(f"population size must be even and >= 2, "
                             f"got {self.n_p}")
        if not 0 <= self.c_p1 < self.c_p2 <= self.n_c - 1:
            raise ValueError(f"crossover points must satisfy "
                             f"0 <= c_p1 < c_p2 <= n_c-1, got "
                             f"({self.c_p1}, {self.c_p2}) with n_c={self.n_c}")
        if self.g_max < 1 or self.max_rounds < 1:
            raise ValueError("g_max and max_rounds must be >= 1")
        if self.seed < 0:
            raise ValueError(f"GA seed must be >= 0, got {self.seed}")


@dataclass
class Chromosome:
    genes: np.ndarray   # n_c distinct window indices
    dists: np.ndarray   # per-gene distance to the reference window
    fitness: float      # mean of dists


@dataclass
class BestSet:
    """Archive of the closest windows found so far for one reference."""
    ref_idx: int
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dists: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self):
        return len(self.indices)


class DistanceCache:
    """Memoized distances from one reference window (an int `ref_idx`) or
    from each of a block of them (a sequence). `values` holds one row per
    reference, NaN where a window is not priced yet, and `evaluations` one
    count per row, one per pair priced."""

    def __init__(self, coeffs: np.ndarray, ref_idx):
        self.flat = coeffs.reshape(len(coeffs), -1)
        self.refs = np.atleast_1d(np.asarray(ref_idx, dtype=np.intp))
        self.values = np.full((len(self.refs), len(self.flat)), np.nan)
        self.evaluations = np.zeros(len(self.refs), np.int64)

    @property
    def n_w(self) -> int:
        return len(self.flat)

    def lookup(self, genes: np.ndarray, rows=None) -> np.ndarray:
        """Distances of `genes` (shape (..., k)), pricing the missing ones.

        `rows` gives the cache row of each leading entry of `genes`; None
        reads row 0, the one-reference case.
        """
        at = np.asarray(genes)   # flat positions in `values`
        if rows is not None:
            rows = np.asarray(rows) * self.n_w
            at = at + rows.reshape(rows.shape + (1,) * (at.ndim - rows.ndim))
        d = self.values.take(at)
        miss = np.isnan(d)
        if np.count_nonzero(miss):   # faster than .any() on small arrays
            want = pairs = at[miss]
            if len(pairs) > 1:   # each pair once; np.unique is slower
                pairs = np.sort(pairs)
                first = np.ones(len(pairs), bool)
                np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
                pairs = pairs[first]
            rr, gg = np.divmod(pairs, self.n_w)
            step = max(1, PRICE_ENTRIES // self.flat.shape[1])
            for lo in range(0, len(pairs), step):
                r, g = rr[lo:lo + step], gg[lo:lo + step]
                self.values[r, g] = distances_from(self.flat, self.refs[r], g)
            self.evaluations += np.bincount(rr, minlength=len(self.refs))
            d[miss] = self.values.take(want)
        return d

    def evaluated(self, row: int = 0):
        """(indices, distances) of every window evaluated so far."""
        idx = np.flatnonzero(~np.isnan(self.values[row]))
        return idx, self.values[row, idx]


def ref_stream(seed: int, ref_idx: int) -> np.random.Generator:
    """Independent random stream for one reference window's GA run."""
    return np.random.default_rng(np.random.SeedSequence((seed, ref_idx)))


def _keys(rng) -> np.ndarray:
    """One uint64 key per row: a `Generator`'s next raw word, or `rng`."""
    if isinstance(rng, np.random.Generator):
        return np.array([rng.bit_generator.random_raw()], np.uint64)
    return rng


def _draws_at(rng, op: int, generation: int, n_w: int):
    """draws(row, string, position, try), int64 index arrays: each address's
    window, the splitmix64 finalizer of the row's key plus each field times
    its Weyl step (mod 2^64), mod n_w."""
    keys = _keys(rng)
    offset = np.array((op * _STEPS[0] + generation * _STEPS[1]) % 2 ** 64,
                      np.uint64)
    n_w = np.array(n_w, np.uint64)

    def draws(r, s, q, t):
        z = keys[r] + offset
        z += s.view(np.uint64) * _STRING
        z += q.view(np.uint64) * _POSITION
        z += t.view(np.uint64) * _TRY
        z ^= z >> _SHIFT1
        z *= _MUL1
        z ^= z >> _SHIFT2
        z *= _MUL2
        z ^= z >> _SHIFT3
        z %= n_w
        return z.view(np.int64)
    return draws


def _fill(genes: np.ndarray, todo: np.ndarray, old: np.ndarray, draws):
    """In place: each `todo` position of `genes` (n_c,), (rows, n_c) or
    (rows, strings, n_c), viewable as one string per row (no copy),
    takes `draws` at tries 0, 1, ... until its value is in neither the
    genes before it nor `old` at it or after it; a spare exists when
    n_w > n_c. A value depends on the genes before it, so each pass moves
    only a string's first clash on, and the next checks only the moved
    strings' entries from there on, PRICE_ENTRIES genes at a time."""
    strings = genes.shape[1] if genes.ndim == 3 else 1
    genes, todo, old = [a.reshape(-1, a.shape[-1]) for a in (genes, todo, old)]
    i, q = todo.nonzero()   # i: row * strings + string; sorted by (i, q)
    if not len(q):
        return
    t = np.zeros(len(q), np.int64)   # each entry's try
    genes[i, q] = v = draws(*divmod(i, strings), q, t)   # and its value
    pos = np.arange(genes.shape[1])
    step = max(1, PRICE_ENTRIES // len(pos))
    while True:
        e = []   # the entries that clash, in order
        for lo in range(0, len(q), step):
            ii = i[lo:lo + step]
            seen = np.where(pos < q[lo:lo + step, None], genes.take(ii, 0),
                            old.take(ii, 0))
            e.append(lo + np.logical_or.reduce(
                seen == v[lo:lo + step, None], axis=1).nonzero()[0])
        e = np.concatenate(e)
        if not len(e):
            return
        e = e[np.concatenate(([True], i[e[1:]] != i[e[:-1]]))]   # firsts
        t[e] += 1
        genes[i[e], q[e]] = v[e] = draws(*divmod(i[e], strings), q[e], t[e])
        start = np.full(len(genes), len(pos))   # a moved string's first clash
        start[i[e]] = q[e]
        keep = q >= start[i]
        i, q, t, v = i[keep], q[keep], t[keep], v[keep]


def init_population(cache: DistanceCache, p: GaParams, rng):
    """n_p random chromosomes with distinct genes for each cache row: the
    (rows, n_p, n_c) arrays of genes and distances. `rng` is one key per
    row, or a `Generator` for a one-reference cache.
    """
    n_w = cache.n_w
    if p.n_c > n_w:
        raise ValueError(f"gene length {p.n_c} exceeds window count {n_w}")
    keys = _keys(rng)
    draws = _draws_at(keys, INIT, 0, n_w)
    genes = np.full((len(keys), p.n_p, p.n_c), -1, np.int64)
    dists = np.empty(genes.shape)
    empty = genes[:, :1].copy()
    for c in range(p.n_p):   # a chromosome at a time keeps work arrays small
        _fill(genes[:, c:c + 1], empty < 0, empty,
              lambda r, s, q, t, c=c: draws(r, s + c, q, t))
        dists[:, c] = cache.lookup(genes[:, c], np.arange(len(keys)))
    return genes, dists


def _mean(dists: np.ndarray):
    # the same pairwise sum and division as np.mean, row by row
    return np.add.reduce(dists, axis=-1) / dists.shape[-1]


def select_parents(fitness: np.ndarray) -> np.ndarray:
    """The (..., n_p // 2) indices of the fitter half of each (..., n_p)
    fitness row, ascending by fitness; ties keep population order."""
    half = fitness.shape[-1] // 2
    return np.argsort(fitness, axis=-1, kind="stable")[..., :half]


def crossover(pa, pb, p: GaParams, rng, n_w: int,
              generation: int = 0) -> np.ndarray:
    """Double-point crossover: positions c_p1..c_p2 come from parent b.

    Parents are Chromosome or gene arrays of shape (n_c,), (rows, n_c) or
    (rows, strings, n_c); `rng` is a `Generator` or one key per row. Each
    gene equal to an earlier one is refilled by `_fill`, so all genes are
    distinct. Parents are left unmodified.
    """
    child = np.array(getattr(pa, "genes", pa), dtype=np.int64)
    seg = slice(p.c_p1, p.c_p2 + 1)
    child[..., seg] = np.asarray(getattr(pb, "genes", pb))[..., seg]
    key = np.sort(child * p.n_c + np.arange(p.n_c), axis=-1)   # (value, q)
    value = key // p.n_c
    repeat = value[..., 1:] == value[..., :-1]   # follows an equal gene
    draws = _draws_at(rng, REPAIR, generation, n_w)   # takes a Generator's key
    if np.count_nonzero(repeat):
        todo = np.zeros(child.shape, bool)
        todo.reshape(-1, p.n_c)[repeat.reshape(-1, p.n_c - 1).nonzero()[0],
                                key[..., 1:][repeat] % p.n_c] = True
        _fill(child, todo, child.copy(), draws)
    return child


def mutation_mask(dists: np.ndarray, l2_t: float) -> np.ndarray:
    """Adaptive mutation points for each child (the last axis).

    Genes at or above the distance threshold are all mutation points; when
    none is, the single farthest gene (smallest index on ties) is.
    """
    over = dists >= l2_t
    far = dists.argmax(axis=-1)[..., None] == np.arange(dists.shape[-1])
    return over | (far & ~np.logical_or.reduce(over, axis=-1, keepdims=True))


def mutate(genes: np.ndarray, mask: np.ndarray, rng, n_w: int,
           generation: int = 0) -> np.ndarray:
    """Redraw each masked gene to a fresh value, keeping all genes distinct.

    `genes` is one string (n_c,), one per row (rows, n_c), or several per
    row (rows, strings, n_c); `rng` is a `Generator` or one key per row.
    Only masked positions change, by `_fill`, so a masked gene always
    changes. When no spare values exist the genes are left alone.
    """
    draws = _draws_at(rng, MUTATE, generation, n_w)
    out = np.array(genes, dtype=np.int64)
    if n_w > out.shape[-1]:
        _fill(out, np.asarray(mask, bool), np.asarray(genes), draws)
    return out


def update_best_set(best: BestSet, population, l2_t: float,
                    n_c: int) -> BestSet:
    """Fold every gated gene of a non-empty population into the archive.

    Keeps the n_c smallest distances, by (distance, index), over the union
    of the current archive and all genes with distance strictly below l2_t;
    a retained member is never replaced by a farther one. `best` is an
    archive as this function returns it (distinct indices in that order),
    and a window has one distance wherever it appears. It returns `best`
    itself when no gated gene outside it can rank among the n_c kept.
    """
    dists = np.concatenate([c.dists for c in population])
    near = passes_gate(dists, l2_t)
    if len(best) == n_c:
        # a full archive admits nothing beyond its farthest member
        near &= dists <= best.dists[-1]
    fresh = np.concatenate([c.genes for c in population])[near]
    dists = dists[near]
    if len(best) <= n_c and set(fresh.tolist()) <= set(best.indices.tolist()):
        return best
    indices = np.concatenate([best.indices, fresh])
    dists = np.concatenate([best.dists, dists])
    indices, first = np.unique(indices, return_index=True)
    dists = dists[first]
    order = rank_ascending(indices, dists)[:n_c]
    return BestSet(best.ref_idx, indices[order].astype(np.int64),
                   dists[order])


@dataclass
class GaSearch:
    """One reference window's GA run, as `search_block` left it.

    `cache.values[row]` holds every distance the run priced. `archive` is
    the archive folded live, generation by generation (empty unless the
    search was run with `live`). `fitness` and `archive_sizes` are the
    trace records, one per generation, when they were kept.
    """
    cache: DistanceCache
    row: int
    archive: BestSet
    fitness: list = field(default_factory=list)
    archive_sizes: list = field(default_factory=list)

    @property
    def ref_idx(self) -> int:
        return int(self.cache.refs[self.row])

    @property
    def evaluations(self) -> int:
        return int(self.cache.evaluations[self.row])


def ref_blocks(n_w: int) -> list:
    """The fewest near-equal consecutive blocks of the n_w windows whose
    (rows, n_w) cache holds at most GA_BLOCK_ENTRIES entries; 1-row blocks
    when n_w alone exceeds it."""
    rows = max(1, GA_BLOCK_ENTRIES // n_w)
    return np.array_split(np.arange(n_w), -(-n_w // rows))


def search_block(coeffs: np.ndarray, refs, p: GaParams,
                 record: bool = False, live: bool = False) -> list:
    """Run the GA for the reference windows `refs` in lockstep; one
    GaSearch per reference, in order.

    Each row runs exactly the generations it would run alone, keyed by
    its own `ref_stream`. `record` keeps the per-generation trace records.
    `live` folds each generation's population, before and after mutation,
    through `update_best_set`, as a lone run's archive is kept.
    """
    if not len(refs):
        return []
    cache = DistanceCache(coeffs, refs)
    n_w, n_c, half = cache.n_w, p.n_c, p.n_p // 2
    keys = np.concatenate([_keys(ref_stream(p.seed, r))
                           for r in cache.refs.tolist()])
    rows = np.arange(len(cache.refs))   # the block rows still running
    cache.lookup(cache.refs[:, None], rows)   # each reference itself first
    genes, dists = init_population(cache, p, keys)
    fit = _mean(dists)
    searches = [GaSearch(cache, i, BestSet(r))
                for i, r in enumerate(cache.refs.tolist())]
    if live:
        _fold(searches, rows, genes, fit, genes[:, :0], p)
    mates = np.roll(np.arange(half), -1)
    last = p.g_max * p.max_rounds
    ar = rows[:, None]   # block rows, renumbered from 0 as rows leave
    for generation in range(1, last + 1):
        order = select_parents(fit)
        genes[:, :half] = genes[ar, order]
        fit[:, :half] = fit[ar, order]
        kids = crossover(genes[:, :half], genes[:, mates], p, keys, n_w,
                         generation)
        mask = mutation_mask(cache.lookup(kids, rows), p.l2_t)
        genes[:, half:] = mutate(kids, mask, keys, n_w, generation)
        fit[:, half:] = _mean(cache.lookup(genes[:, half:], rows))
        if live:
            _fold(searches, rows, genes, fit, kids, p)
        done = cache.evaluations[rows] >= n_w
        end = generation % p.g_max == 0   # a round's last generation
        if record or end:
            size = np.minimum(np.count_nonzero(
                passes_gate(cache.values[rows], p.l2_t), axis=1), n_c)
            done |= end & ((size == n_c) | (generation == last))
        if record:
            for r, f, z in zip(rows.tolist(), fit.min(axis=1).tolist(),
                               size.tolist()):
                searches[r].fitness.append(f)
                searches[r].archive_sizes.append(z)
        if np.count_nonzero(done):
            keep = ~done
            rows, genes, fit = rows[keep], genes[keep], fit[keep]
            keys, ar = keys[keep], ar[:len(rows)]
            if not len(rows):
                break
    return searches


def _fold(searches, rows, genes, fit, kids, p):
    """Fold each row's population, then its children before mutation,
    into its archive; every distance is already priced."""
    for a, r in enumerate(rows.tolist()):
        both = np.concatenate([genes[a], kids[a]])
        dists = searches[r].cache.values[r, both]
        fits = np.concatenate([fit[a], _mean(dists[len(genes[a]):])])
        pop = list(map(Chromosome, both, dists, fits.tolist()))
        searches[r].archive = update_best_set(searches[r].archive, pop,
                                              p.l2_t, p.n_c)


def ga_select(ref_idx: int, coeffs: np.ndarray, p: GaParams,
              trace=None, search: GaSearch | None = None,
              nearest=None) -> ClosestSet:
    """Run the GA for one reference window and return its closest set.

    Stops once every candidate window has been evaluated (the archive can
    no longer change) or the archive is full at a round boundary. If it is
    still short after the round cap, the closest windows ever evaluated
    fill the rest, whatever the threshold, and the result is a fallback.

    `search` is this reference's run from `search_block`; without it the GA
    runs here as a one-row block, folded live. `trace` gets (generation,
    best fitness, archive size) per generation run.

    `nearest`, for a short row, is the reference's ranked row of
    `selection.gram_shortlist`'s table, as `exhaustive_select` takes it.
    The answer is then that row, as a run that evaluated every window
    gives it (the gated prefix, then the fallback fill), with n_w
    evaluations: nothing is searched or priced, and `trace` gets nothing.
    """
    n_w = len(coeffs)
    if not 0 <= ref_idx < n_w:
        raise IndexError(f"reference index {ref_idx} out of range [0, {n_w})")
    if nearest is not None:
        idx, dst = nearest
        gated = int(np.count_nonzero(passes_gate(dst, p.l2_t)))
        return ClosestSet(ref_idx, idx, dst, n_w, gated=gated)
    if search is None:
        search = search_block(coeffs, [ref_idx], p,
                              record=trace is not None, live=True)[0]
    elif search.ref_idx != ref_idx:
        raise ValueError(f"search is for reference {search.ref_idx}, "
                         f"not {ref_idx}")
    if trace is not None:
        for generation, (fit, size) in enumerate(
                zip(search.fitness, search.archive_sizes), 1):
            trace(generation, fit, size)
    # the n_c best evaluated windows by (distance, index): the gate is
    # monotone in distance, so the gated ones lead and the fallback's follow
    idx, dst = search.cache.evaluated(search.row)
    order = rank_ascending(idx, dst)[:p.n_c]
    idx, dst = idx[order], dst[order]
    gated = int(np.count_nonzero(passes_gate(dst, p.l2_t)))
    # the archive holds gated windows of the cache, so folding the cache's
    # best into it gives them back
    best = update_best_set(search.archive,
                           [Chromosome(idx[:gated], dst[:gated], np.nan)],
                           p.l2_t, p.n_c)
    return ClosestSet(ref_idx, np.concatenate([best.indices, idx[gated:]]),
                      np.concatenate([best.dists, dst[gated:]]),
                      search.evaluations, gated=len(best))


def closest_sets(coeffs: np.ndarray, p: GaParams, blocks, nearest,
                 trace=None):
    """(closest sets, short) for the reference windows of `blocks` (index
    arrays), in order; `short` marks each row whose gate passes fewer than
    n_c windows.

    `nearest` is `selection.gram_shortlist`'s table (indices, distances) of
    each window's exact, ungated top n_c, with the canonical kernel's bits.
    The gate is monotone in distance, so a row is short when fewer than n_c
    of its table row pass `passes_gate`. A short row's archive can never
    fill, so it is not searched: `ga_select` answers it from its table row,
    pricing nothing, and it reports n_w evaluations, as each pair was
    priced by the Gram or ruled out by its norm bound. Only the other rows
    go to `search_block`, and `ga_select` replays their trace records.
    """
    idx, dist = nearest
    sets, short = [], []
    for refs in blocks:
        is_short = np.count_nonzero(passes_gate(dist[refs], p.l2_t),
                                    axis=1) < p.n_c
        searches = iter(search_block(coeffs, refs[~is_short], p,
                                     record=trace is not None))
        for r, row_short in zip(refs.tolist(), is_short.tolist()):
            if row_short:
                sets.append(ga_select(r, coeffs, p, trace,
                                      nearest=(idx[r], dist[r])))
            else:
                sets.append(ga_select(r, coeffs, p, trace,
                                      search=next(searches)))
        short.append(is_short)
    return sets, np.concatenate(short)
