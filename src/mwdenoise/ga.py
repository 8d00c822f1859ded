"""GA-based closer-window search.

Each chromosome holds n_c distinct window indices; fitness is the mean
distance of those windows to the reference window (lower is better). Each
generation keeps the fitter half of the population, produces one child per
parent pair by double-point crossover, mutates the children adaptively
(one point when all gene distances beat the threshold, otherwise every
gene at or above it), and folds every gated gene into a persistent
best-window archive. Rounds of g_max generations repeat until the archive
is full or the round cap is hit.

The archive is always the n_c best, by (distance, index), of the gated
windows (distance below l2_t) evaluated so far: every evaluated chromosome,
before and after mutation, passes through `update_best_set`. So a
generation that prices no gated window closer than the archive's farthest
member leaves it as it is, and the merge is skipped. It also means the
archive can be read off the distance cache: folding every priced gated
window into an empty archive at once gives the same n_c members.

Lockstep blocks. `search_block` runs the GA for a block of reference
windows at once. The population is a (rows, n_p, n_c) array and the
distance cache a (rows, n_w) array, NaN where a window is not priced yet.
The operators (`select_parents`, `crossover`, `mutation_mask`, `mutate`,
`DistanceCache.lookup`) work on whole rows; a 1-D gene string drawing from
a numpy `Generator` is their one-row case. A row leaves the block after
the generation its lone run would have stopped at. `ga_select` turns one
row's search into its closest set: the archive read off the cache, the
fallback fill, and a replay of the row's trace records. Run without a
search, `ga_select` is the one-row block, and it folds each generation's
population through `update_best_set` as it goes.

Streams. Each reference window draws from its own stream (`ref_stream`):
one `integers(0, n_w)` value per gene try, in a fixed order. `RowDraws`
gives each row a small buffer of its stream; on numpy, k draws made at
once give the same values, and leave the same generator state, as k
scalar calls. The operators use a row's draws in exactly the order of a
lone run: a row's children are made one after another, each repaired left
to right and then mutated point by point in position order. A batched
step tests many draws at once but uses up only those the one-at-a-time
rule would have taken, so a block changes no value, distance bit or
evaluation count. `tests/test_ga.py` pins the stream with digests of
`ga_select` results, of the generator state after a run of the operators
and of a GA denoise, and checks blocks against lone runs.

Memory. A block holds at most GA_BLOCK_ENTRIES cache values (512 KiB), so
blocks get shorter as n_w grows; `lookup` prices PRICE_ENTRIES
coefficients at a time, with the scan's kernel `selection.distances_from`,
and a mutation pass tests at most n_c draws a row.
"""

from dataclasses import dataclass, field

import numpy as np

from .selection import ClosestSet, distances_from, rank_ascending

GA_BLOCK_ENTRIES = 2 ** 16   # float64 cache values in one block (512 KiB)
PRICE_ENTRIES = 2 ** 14      # coefficients differenced at once when pricing
DRAW_CHUNK = 128             # draws a block row reads ahead at a time
WALK_ROWS = 8                # rows few enough to redraw one draw at a time


@dataclass
class GaParams:
    n_c: int = 16
    n_p: int = 10
    g_max: int = 100
    c_p1: int = 5
    c_p2: int = 12
    l2_t: float = np.inf
    max_rounds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_p < 2 or self.n_p % 2 != 0:
            raise ValueError(f"population size must be even and >= 2, "
                             f"got {self.n_p}")
        if not 0 <= self.c_p1 < self.c_p2 <= self.n_c - 1:
            raise ValueError(f"crossover points must satisfy "
                             f"0 <= c_p1 < c_p2 <= n_c-1, got "
                             f"({self.c_p1}, {self.c_p2}) with n_c={self.n_c}")
        if self.g_max < 1 or self.max_rounds < 1:
            raise ValueError("g_max and max_rounds must be >= 1")
        if not self.l2_t > 0:
            raise ValueError(f"l2_t must be > 0, got {self.l2_t}")

    @property
    def crossover_rate(self) -> float:
        return (self.c_p2 - self.c_p1 + 1) / self.n_c


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
    from each of a block of them (a sequence); each pair costs one
    evaluation. `values` holds one row per reference, NaN where a window
    is not priced yet, and `evaluations` one count per row."""

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
        genes = np.asarray(genes)
        if rows is None:
            rows = 0
        elif np.ndim(rows):
            rows = rows.reshape(rows.shape + (1,) * (genes.ndim - rows.ndim))
        d = self.values[rows, genes]
        miss = np.isnan(d)
        if miss.any():
            pairs = (rows * self.n_w + genes)[miss]
            if len(pairs) > 1:   # each pair once
                pairs.sort()
                first = np.ones(len(pairs), bool)
                np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
                pairs = pairs[first]
            rr, gg = np.divmod(pairs, self.n_w)
            step = max(1, PRICE_ENTRIES // self.flat.shape[1])
            for lo in range(0, len(pairs), step):
                r, g = rr[lo:lo + step], gg[lo:lo + step]
                self.values[r, g] = distances_from(self.flat, self.refs[r], g)
            self.evaluations += np.bincount(rr, minlength=len(self.refs))
            d = self.values[rows, genes]
        return d

    def evaluated(self, row: int = 0):
        """(indices, distances) of every window evaluated so far."""
        idx = np.flatnonzero(~np.isnan(self.values[row]))
        return idx, self.values[row, idx]


def ref_stream(seed: int, ref_idx: int) -> np.random.Generator:
    """Independent random stream for one reference window's GA run."""
    return np.random.default_rng(np.random.SeedSequence((seed, ref_idx)))


class RowDraws:
    """Each row's stream of integers(0, n_w), read ahead through a buffer.

    `peek` shows a row's next draws without using them up and `advance`
    uses them up, so an operator can test a run of draws at once and then
    take only those its one-at-a-time rule would have taken. With
    `chunk` 0 a row draws only what it peeks; the operators peek no more
    than they are sure to use, so a `Generator` passed to them ends in the
    same state as after the same scalar draws.
    """

    def __init__(self, gens, n_w: int, chunk: int = 0):
        self.gens = list(gens)
        self.n_w = n_w
        self.chunk = chunk
        self.buf = np.zeros((len(self.gens), 0), np.int64)
        self.ptr = np.zeros(len(self.gens), np.intp)
        self.end = np.zeros(len(self.gens), np.intp)

    def __len__(self):
        return len(self.gens)

    def peek(self, rows: np.ndarray, need: np.ndarray) -> np.ndarray:
        """(len(rows), need.max()) array of the next draws of `rows`
        (distinct); entries of row i past need[i] are meaningless."""
        ptr = self.ptr[rows]
        short = self.end[rows] - ptr < need
        if short.any():
            self._refill(rows[short], need[short])
            ptr = self.ptr[rows]
        cols = np.minimum(ptr[:, None] + np.arange(need.max()),
                          self.buf.shape[1] - 1)
        return self.buf[rows[:, None], cols]

    def peek_row(self, row: int, need: int) -> list:
        """The next `need` draws of one row, as `peek` shows them."""
        if self.end[row] - self.ptr[row] < need:
            self._refill(np.array([row]), np.array([need]))
        return self.buf[row, self.ptr[row]:self.ptr[row] + need].tolist()

    def advance(self, rows, counts):
        self.ptr[rows] += counts

    def keep(self, mask: np.ndarray):
        """Drop the rows where `mask` is False."""
        self.gens = [g for g, k in zip(self.gens, mask.tolist()) if k]
        self.buf, self.ptr, self.end = (
            self.buf[mask], self.ptr[mask], self.end[mask])

    def take(self, rows: np.ndarray) -> "RowSubset":
        """The streams of `rows`, as rows 0.. of a draw source."""
        return RowSubset(self, rows)

    def _refill(self, rows, need):
        have = self.end[rows] - self.ptr[rows]
        width = int(need.max()) + self.chunk
        if self.buf.shape[1] < width:
            grown = np.empty((len(self.buf), width), np.int64)
            grown[:, :self.buf.shape[1]] = self.buf
            self.buf = grown
        # move the unused draws to the front, then append fresh ones
        cols = self.ptr[rows, None] + np.arange(have.max())
        self.buf[rows, :have.max()] = self.buf[
            rows[:, None], np.minimum(cols, self.buf.shape[1] - 1)]
        for r, h, n in zip(rows.tolist(), have.tolist(), need.tolist()):
            new = self.gens[r].integers(0, self.n_w,
                                        size=max(n - h, self.chunk))
            self.buf[r, h:h + len(new)] = new
            self.end[r] = h + len(new)
        self.ptr[rows] = 0


class RowSubset:
    """Some rows of a RowDraws, renumbered from 0; draws go to the base."""

    def __init__(self, base: RowDraws, rows: np.ndarray):
        self.base, self.rows = base, rows

    def peek(self, rows: np.ndarray, need: np.ndarray) -> np.ndarray:
        return self.base.peek(self.rows[rows], need)

    def advance(self, rows, counts):
        self.base.advance(self.rows[rows], counts)


def _draws(rng, n_w: int):
    """A draw source: `rng` itself, or a one-row RowDraws over a Generator."""
    if isinstance(rng, np.random.Generator):
        return RowDraws([rng], n_w)
    return rng


def _has_duplicate(genes: np.ndarray) -> np.ndarray:
    """Whether each gene string (the last axis) repeats a value."""
    ranked = np.sort(genes, axis=-1)
    return (ranked[..., 1:] == ranked[..., :-1]).any(axis=-1)


def _redraw(genes: np.ndarray, mask: np.ndarray, draws):
    """In place: each masked position takes its row's next draw that is not
    a current gene of its string (its own old value included).

    `genes` and `mask` are (rows, strings, n_c). A row's masked positions
    draw string by string, each string in position order. While more than
    WALK_ROWS rows have points left, each pass tests up to n_c of a row's
    remaining points against the draws they would use if none were
    refused, keeps those before the first refusal, uses up the refused
    draw, and leaves the rest for the next pass. The last rows walk their
    draws one by one.
    """
    m, n = genes.shape[1:]
    rows = mask.reshape(len(mask), -1).any(axis=1).nonzero()[0]
    mask = mask[rows]
    while len(rows) > WALK_ROWS:
        cur = genes[rows]
        ri = np.arange(len(rows))[:, None]
        before = mask.reshape(len(rows), -1).cumsum(axis=1, dtype=np.int32)
        count = before[:, -1]
        left = np.minimum(count, n)
        v = draws.peek(rows, left)
        t = np.arange(v.shape[1])
        # rank[q] = t: the t-th draw of this pass goes to position q
        # (rank is the width for a position no draw goes to); draw t goes
        # to string[:, t], after the points of the strings before it
        rank = np.where(mask & (before <= left[:, None]).reshape(mask.shape),
                        before.reshape(mask.shape) - 1, v.shape[1])
        string = np.minimum((before.reshape(mask.shape)[:, None, :, -1]
                             <= t[:, None]).sum(axis=2), m - 1)
        # draw t is refused if it equals a gene of its string not yet
        # replaced (rank >= t), or an earlier draw of its string
        clash = ((cur[ri, string] == v[:, :, None])
                 & (rank[ri, string] >= t[:, None])).any(axis=2)
        clash |= ((v[:, :, None] == v[:, None, :])
                  & (string[:, :, None] == string[:, None, :])
                  & (t[:, None] > t)).any(axis=2)
        clash &= t < left[:, None]
        refused = clash.any(axis=1)
        taken = np.where(refused, clash.argmax(axis=1), left)
        put = rank < taken[:, None, None]
        cur[put] = v[put.nonzero()[0], rank[put]]
        genes[rows] = cur
        draws.advance(rows, taken + refused)
        keep = refused | (count > taken)
        rows, mask = rows[keep], (mask & ~put)[keep]
    for r, points in zip(rows.tolist(), mask):
        genes[r] = _walk(genes[r], points, draws, r)


def _walk(genes: np.ndarray, mask: np.ndarray, draws, row: int) -> list:
    """One row of `_redraw`, draw by draw; returns the new genes."""
    out = genes.tolist()
    held = [set(g) for g in out]
    strings, points = mask.nonzero()
    vals, used = draws.peek_row(row, len(strings)), 0
    for k, (s, q) in enumerate(zip(strings.tolist(), points.tolist())):
        while True:
            if used == len(vals):
                # peek no further than the points left are sure to use
                draws.advance(row, used)
                vals, used = draws.peek_row(row, len(strings) - k), 0
            value = vals[used]
            used += 1
            if value not in held[s]:
                break
        held[s].discard(out[s][q])
        held[s].add(value)
        out[s][q] = value
    draws.advance(row, used)
    return out


def _repair(genes: np.ndarray, draws):
    """In place: left to right, a gene equal to an earlier one is redrawn
    until it differs from every gene before it. `genes` is (rows, n_c)."""
    pos = np.arange(genes.shape[1])
    earlier = pos[:, None] > pos   # [k, q]: q < k
    rows = np.flatnonzero(_has_duplicate(genes))
    while len(rows):
        cur = genes[rows]
        k = ((cur[:, :, None] == cur[:, None, :]) & earlier).any(axis=2)
        k = k.argmax(axis=1)   # the first gene equal to an earlier one
        v = draws.peek(rows, np.ones(len(rows), np.intp))[:, 0]
        draws.advance(rows, 1)
        ok = ~((cur == v[:, None]) & earlier[k]).any(axis=1)
        genes[rows[ok], k[ok]] = v[ok]
        rows = rows[_has_duplicate(genes[rows])]


def init_population(cache: DistanceCache, p: GaParams, rng):
    """n_p random chromosomes with distinct genes each, drawn chromosome
    by chromosome, gene by gene.

    With a `Generator` (a one-reference cache) this is a list of
    Chromosome. With `RowDraws`, one row per cache row, it is the
    (rows, n_p, n_c) arrays of genes and distances.
    """
    n_w = cache.n_w
    if p.n_c > n_w:
        raise ValueError(f"gene length {p.n_c} exceeds window count {n_w}")
    draws = _draws(rng, n_w)
    rows = np.arange(len(draws))
    genes = np.full((len(draws), p.n_p, p.n_c), -1, np.int64)
    dists = np.empty(genes.shape)
    fill = np.ones((len(draws), 1, p.n_c), bool)
    for c in range(p.n_p):
        _redraw(genes[:, c:c + 1], fill, draws)
        dists[:, c] = cache.lookup(genes[:, c], rows)
    if draws is rng:
        return genes, dists
    return [Chromosome(g, d, _mean(d)) for g, d in zip(genes[0], dists[0])]


def _mean(dists: np.ndarray):
    # the same pairwise sum and division as np.mean, row by row
    return np.add.reduce(dists, axis=-1) / dists.shape[-1]


def fitness(genes: np.ndarray, cache: DistanceCache) -> float:
    """Mean distance of a gene string to the reference window."""
    return _mean(cache.lookup(genes))


def select_parents(population):
    """The fitter half, ascending by fitness; ties keep population order.

    Takes a list of Chromosome, or a (..., n_p) fitness array, for which
    it returns the (..., n_p // 2) indices of the parents.
    """
    if isinstance(population, np.ndarray):
        half = population.shape[-1] // 2
        return np.argsort(population, axis=-1, kind="stable")[..., :half]
    order = select_parents(np.array([c.fitness for c in population]))
    return [population[i] for i in order.tolist()]


def crossover(pa, pb, p: GaParams, rng, n_w: int) -> np.ndarray:
    """Double-point crossover: positions c_p1..c_p2 come from parent b.

    Parents are Chromosome or gene arrays of shape (n_c,) or (rows, n_c).
    Duplicates introduced by the swap are repaired left to right with
    fresh uniform draws until all genes are distinct. Parents are left
    unmodified.
    """
    a = getattr(pa, "genes", pa)
    child = _swap(a, getattr(pb, "genes", pb), p)
    _repair(child.reshape(-1, p.n_c), _draws(rng, n_w))
    return child


def _swap(a, b, p: GaParams) -> np.ndarray:
    child = np.array(a, dtype=np.int64)
    child[..., p.c_p1:p.c_p2 + 1] = np.asarray(b)[..., p.c_p1:p.c_p2 + 1]
    return child


def mutation_mask(dists: np.ndarray, l2_t: float) -> np.ndarray:
    """Adaptive mutation points for each child (the last axis).

    Genes at or above the distance threshold are all mutation points; when
    none is, the single farthest gene (smallest index on ties) is.
    """
    over = dists >= l2_t
    flat = over.reshape(-1, over.shape[-1])
    none = np.flatnonzero(~flat.any(axis=1))
    if len(none):
        flat[none, dists.reshape(flat.shape)[none].argmax(axis=1)] = True
    return over


def mutate(genes: np.ndarray, mask: np.ndarray, rng, n_w: int) -> np.ndarray:
    """Redraw each masked gene to a fresh value, keeping all genes distinct.

    `genes` is one string (n_c,), one per row (rows, n_c), or several per
    row (rows, strings, n_c), which a row mutates one after another. Only
    masked positions change; each new value avoids every current gene of
    its string (including the old value, so a masked gene always
    changes). When no spare values exist the genes are left alone.
    """
    out = np.array(genes, dtype=np.int64)
    if n_w > out.shape[-1]:
        rows = out.reshape((-1,) + out.shape[1:] if out.ndim == 3
                           else (-1, 1, out.shape[-1]))
        _redraw(rows, np.asarray(mask, bool).reshape(rows.shape),
                _draws(rng, n_w))
    return out


def update_best_set(best: BestSet, population, l2_t: float,
                    n_c: int) -> BestSet:
    """Fold every gated gene in the population into the archive.

    Keeps the n_c smallest distances, by (distance, index), over the union
    of the current archive and all genes with distance strictly below l2_t;
    a retained member is never replaced by a farther one. `best` is an
    archive as this function returns it (distinct indices in that order),
    and a window has one distance wherever it appears. When no gated gene
    outside the archive can rank among the n_c kept, `best` itself is
    returned.
    """
    if population:
        dists = np.concatenate([c.dists for c in population])
        near = dists < l2_t
        if len(best) == n_c:
            # a full archive admits nothing beyond its farthest member
            near &= dists <= best.dists[-1]
        fresh = np.concatenate([c.genes for c in population])[near]
        dists = dists[near]
    else:
        fresh, dists = best.indices[:0], best.dists[:0]
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
    """Reference windows split into near-equal consecutive blocks, as few
    as keep each block's cache within GA_BLOCK_ENTRIES values."""
    count = -(-n_w // max(1, GA_BLOCK_ENTRIES // n_w))
    return np.array_split(np.arange(n_w), count)


def search_block(coeffs: np.ndarray, refs, p: GaParams,
                 record: bool = False, live: bool = False) -> list:
    """Run the GA for the reference windows `refs` in lockstep; one
    GaSearch per reference, in order.

    Each row runs exactly the generations it would run alone, from its
    own `ref_stream`. `record` keeps the per-generation trace records.
    `live` folds each generation's population, before and after mutation,
    through `update_best_set`, as a lone run's archive is kept.
    """
    cache = DistanceCache(coeffs, refs)
    n_w, n_c, half = cache.n_w, p.n_c, p.n_p // 2
    draws = RowDraws([ref_stream(p.seed, r) for r in cache.refs.tolist()],
                     n_w, DRAW_CHUNK)
    genes, dists = init_population(cache, p, draws)
    fit = _mean(dists)
    del dists
    archives = [BestSet(r) for r in cache.refs.tolist()]
    rows = np.arange(len(cache.refs))   # the block rows still running
    if live:
        _fold(archives, cache, rows, genes, fit, genes[:, :0], p)
    log = []
    mates = np.roll(np.arange(half), -1)
    last = p.g_max * p.max_rounds
    j = np.arange(half)
    for generation in range(1, last + 1):
        ar = np.arange(len(rows))[:, None]
        order = select_parents(fit)
        genes[:, :half] = genes[ar, order]
        fit[:, :half] = fit[ar, order]
        kids = _swap(genes[:, :half], genes[:, mates], p)
        # a row makes its children in turn, and a crossover repair draws
        # after the mutations of the children before it; so the children
        # are made in runs: repair each row's next child if it needs it,
        # then mutate it and the children after it, up to the next child
        # that needs a repair
        dirty = _has_duplicate(kids)
        turn = np.zeros(len(rows), np.intp)   # each row's next child
        while True:
            if dirty.any():
                due = dirty[ar[:, 0], np.minimum(turn, half - 1)].nonzero()[0]
                at = turn[due]
                kids[due, at] = crossover(genes[due, at],
                                          genes[due, mates[at]], p,
                                          draws.take(due), n_w)
                dirty[due, at] = False
            stop = np.where(dirty.any(axis=1), dirty.argmax(axis=1), half)
            run = (j >= turn[:, None]) & (j < stop[:, None])
            at = rows[run.nonzero()[0]]
            mask = np.zeros(kids.shape, bool)
            mask[run] = mutation_mask(cache.lookup(kids[run], at), p.l2_t)
            made = mutate(kids, mask, draws, n_w)[run]
            genes[:, half:][run] = made
            fit[:, half:][run] = _mean(cache.lookup(made, at))
            if (stop == half).all():
                break
            turn = stop
        if live:
            _fold(archives, cache, rows, genes, fit, kids, p)
        size = np.minimum((cache.values < p.l2_t).sum(axis=1)[rows], n_c)
        if record:
            log.append((rows, fit.min(axis=1), size))
        done = cache.evaluations[rows] >= n_w
        if generation % p.g_max == 0:
            done |= (size == n_c) | (generation == last)
        if done.any():
            going = ~done
            rows, genes, fit = rows[going], genes[going], fit[going]
            draws.keep(going)
            if not len(rows):
                break

    records = [([], [])] * len(cache.refs)
    if record and log:
        ids = np.concatenate([entry[0] for entry in log])
        order = np.argsort(ids, kind="stable")
        cuts = np.cumsum(np.bincount(ids, minlength=len(cache.refs)))[:-1]
        fits = np.split(np.concatenate([e[1] for e in log])[order], cuts)
        sizes = np.split(np.concatenate([e[2] for e in log])[order], cuts)
        records = [(f.tolist(), s.tolist()) for f, s in zip(fits, sizes)]
    return [GaSearch(cache, i, archives[i], *records[i])
            for i in range(len(cache.refs))]


def _fold(archives, cache, rows, genes, fit, kids, p):
    """Fold each row's population, then its children before mutation,
    into its archive; every distance is already priced."""
    for a, r in enumerate(rows.tolist()):
        priced = cache.values[r]
        pop = [Chromosome(g, d, f) for g, d, f in
               zip(genes[a], priced[genes[a]], fit[a].tolist())]
        dists = priced[kids[a]]
        pop += [Chromosome(g, d, f)
                for g, d, f in zip(kids[a], dists, _mean(dists).tolist())]
        archives[r] = update_best_set(archives[r], pop, p.l2_t, p.n_c)


def ga_select(ref_idx: int, coeffs: np.ndarray, p: GaParams,
              trace=None, search: GaSearch | None = None) -> ClosestSet:
    """Run the GA for one reference window and return its closest set.

    Stops early once every candidate window has been evaluated (the
    archive can no longer change) or when the archive is full at a round
    boundary. If the archive is still short after the round cap, the
    remaining slots are filled with the closest windows ever evaluated
    regardless of the threshold and the result is flagged as a fallback.

    `search` is this reference's run from `search_block`; without it the
    GA runs here, as a one-row block whose archive is folded live. `trace`
    gets (generation, best fitness, archive size) once per generation.
    """
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
    idx, dst = search.cache.evaluated(search.row)
    gate = dst < p.l2_t
    best = update_best_set(search.archive,
                           [Chromosome(idx[gate], dst[gate], np.nan)],
                           p.l2_t, p.n_c)
    gated = len(best)
    if gated < p.n_c:
        fresh = ~np.isin(idx, best.indices)
        idx, dst = idx[fresh], dst[fresh]
        order = rank_ascending(idx, dst)[:p.n_c - gated]
        indices = np.concatenate([best.indices, idx[order]]).astype(np.int64)
        dists = np.concatenate([best.dists, dst[order]])
    else:
        indices, dists = best.indices, best.dists
    return ClosestSet(ref_idx, indices, dists, search.evaluations,
                      gated=gated)
