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
member leaves it as it is, and the merge is skipped.

Each reference window draws from its own stream (`ref_stream`), one scalar
`integers(0, n_w)` call per gene draw, in a fixed order. Outputs depend on
that order and on the exact bits of the distances and fitness values;
`tests/test_ga.py` pins both with digests of `ga_select` results, of the
generator state after a run of the operators, and of a GA denoise.
"""

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .selection import ClosestSet, rank_ascending


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
    """Memoized per-reference distances; each pair costs one evaluation."""

    def __init__(self, coeffs: np.ndarray, ref_idx: int):
        self.flat = coeffs.reshape(len(coeffs), -1)
        self.ref = self.flat[ref_idx]
        self.values = np.full(len(self.flat), np.nan)
        self.evaluations = 0

    @property
    def n_w(self) -> int:
        return len(self.flat)

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.n_w

    def lookup(self, genes: np.ndarray) -> np.ndarray:
        d = self.values[genes]
        miss = np.isnan(d)
        if np.count_nonzero(miss):
            need = genes[miss]
            if len(need) > 1:
                need = np.unique(need)
            self.values[need] = np.sqrt(
                np.add.reduce((self.flat[need] - self.ref) ** 2, axis=1))
            self.evaluations += len(need)
            d = self.values[genes]
        return d

    def evaluated(self):
        """(indices, distances) of every window evaluated so far."""
        idx = np.flatnonzero(~np.isnan(self.values))
        return idx, self.values[idx]


def ref_stream(seed: int, ref_idx: int) -> np.random.Generator:
    """Independent random stream for one reference window's GA run."""
    return np.random.default_rng(np.random.SeedSequence((seed, ref_idx)))


def _draw_distinct(rng, n_w: int, exclude: set) -> int:
    while True:
        v = int(rng.integers(0, n_w))
        if v not in exclude:
            return v


def init_population(cache: DistanceCache, p: GaParams,
                    rng: np.random.Generator):
    """n_p random chromosomes with distinct genes each."""
    n_w = cache.n_w
    if p.n_c > n_w:
        raise ValueError(f"gene length {p.n_c} exceeds window count {n_w}")
    pop = []
    for _ in range(p.n_p):
        used = {}   # insertion-ordered: the genes in draw order
        for _ in range(p.n_c):
            used[_draw_distinct(rng, n_w, used)] = None
        genes = np.array(list(used), dtype=np.int64)
        dists = cache.lookup(genes)
        pop.append(Chromosome(genes, dists, _mean(dists)))
    return pop


def _mean(dists: np.ndarray) -> float:
    # the same pairwise sum and division as np.mean, without its overhead
    return float(np.add.reduce(dists)) / len(dists)


def fitness(genes: np.ndarray, cache: DistanceCache) -> float:
    """Mean distance of a gene string to the reference window."""
    return _mean(cache.lookup(genes))


_by_fitness = attrgetter("fitness")


def select_parents(population):
    """The fitter half, ascending by fitness; ties keep population order."""
    half = len(population) // 2
    return sorted(population, key=_by_fitness)[:half]


def crossover(pa: Chromosome, pb: Chromosome, p: GaParams,
              rng: np.random.Generator, n_w: int) -> np.ndarray:
    """Double-point crossover: positions c_p1..c_p2 come from parent b.

    Duplicates introduced by the swap are repaired left to right with
    fresh uniform draws until all genes are distinct. Parents are left
    unmodified.
    """
    genes = pa.genes.tolist()
    genes[p.c_p1:p.c_p2 + 1] = pb.genes[p.c_p1:p.c_p2 + 1].tolist()
    used = set()
    for k, g in enumerate(genes):
        if g in used:
            g = genes[k] = _draw_distinct(rng, n_w, used)
        used.add(g)
    return np.array(genes, dtype=np.int64)


def mutation_mask(dists: np.ndarray, l2_t: float) -> np.ndarray:
    """Adaptive mutation points for one child.

    Genes at or above the distance threshold are all mutation points; when
    none is, the single farthest gene (smallest index on ties) is.
    """
    over = dists >= l2_t
    if not np.count_nonzero(over):
        over[dists.argmax()] = True
    return over


def mutate(genes: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
           n_w: int) -> np.ndarray:
    """Redraw each masked gene to a fresh value, keeping all genes distinct.

    Only masked positions change; each new value avoids every current gene
    (including the old value, so a masked gene always changes). When no
    spare values exist the gene is left alone.
    """
    if n_w <= len(genes):
        return genes.copy()
    out = genes.tolist()
    current = set(out)   # kept equal to set(out); genes are distinct
    for k in mask.nonzero()[0].tolist():
        new = _draw_distinct(rng, n_w, current)
        current.discard(out[k])
        current.add(new)
        out[k] = new
    return np.array(out, dtype=np.int64)


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


def ga_select(ref_idx: int, coeffs: np.ndarray, p: GaParams,
              trace=None) -> ClosestSet:
    """Run the GA for one reference window and return its closest set.

    Stops early once every candidate window has been evaluated (the
    archive can no longer change) or when the archive is full at a round
    boundary. If the archive is still short after the round cap, the
    remaining slots are filled with the closest windows ever evaluated
    regardless of the threshold and the result is flagged as a fallback.
    """
    cache = DistanceCache(coeffs, ref_idx)
    rng = ref_stream(p.seed, ref_idx)
    n_w = cache.n_w
    pop = init_population(cache, p, rng)
    best = update_best_set(BestSet(ref_idx), pop, p.l2_t, p.n_c)
    generation = 0
    saturated = False
    for _ in range(p.max_rounds):
        for _ in range(p.g_max):
            parents = select_parents(pop)
            half = len(parents)
            children = []
            premutation = []
            for j in range(half):
                genes = crossover(parents[j], parents[(j + 1) % half],
                                  p, rng, n_w)
                dists = cache.lookup(genes)
                premutation.append(Chromosome(genes, dists, _mean(dists)))
                mask = mutation_mask(dists, p.l2_t)
                genes = mutate(genes, mask, rng, n_w)
                dists = cache.lookup(genes)
                children.append(Chromosome(genes, dists, _mean(dists)))
            pop = parents + children
            # pre-mutation children count as evaluated candidates so the
            # archive never loses a window the search has already priced
            best = update_best_set(best, pop + premutation, p.l2_t, p.n_c)
            generation += 1
            if trace is not None:
                trace(generation, min(c.fitness for c in pop), len(best))
            if cache.exhausted:
                saturated = True
                break
        if saturated or len(best) == p.n_c:
            break

    gated = len(best)
    if gated < p.n_c:
        idx, dst = cache.evaluated()
        fresh = ~np.isin(idx, best.indices)
        idx, dst = idx[fresh], dst[fresh]
        order = rank_ascending(idx, dst)[:p.n_c - gated]
        indices = np.concatenate([best.indices, idx[order]]).astype(np.int64)
        dists = np.concatenate([best.dists, dst[order]])
    else:
        indices, dists = best.indices, best.dists
    return ClosestSet(ref_idx, indices, dists, cache.evaluations,
                      gated=gated)
