import hashlib

import numpy as np
import pytest

import mwdenoise.ga as ga_mod
from mwdenoise import ghm
from mwdenoise.ga import (BestSet, Chromosome, DistanceCache, GaParams,
                          crossover, ga_select, init_population,
                          mutate, mutation_mask, ref_blocks, ref_stream,
                          search_block, select_parents, update_best_set)
from mwdenoise.image_io import add_awgn
from mwdenoise.phantom import ct_phantom
from mwdenoise.pipeline import DenoiseConfig, denoise_image
from mwdenoise.selection import (SelectionParams, distances_from,
                                 exhaustive_select, noise_gate)
from mwdenoise.windows import build_grid, extract_windows

BIG = 1e12


def phantom_coeffs(size=64, sigma=15, seed=0, m=8, s=4):
    img = add_awgn(ct_phantom(size), sigma, seed)
    geom = build_grid(img, m, s)
    F = ghm.build_ghm_matrix(m)
    return ghm.forward_all(extract_windows(img, geom), F)


@pytest.fixture(scope="module")
def coeffs():
    return phantom_coeffs()


def make_chrom(genes, dists):
    genes = np.asarray(genes, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    return Chromosome(genes, dists, float(dists.mean()))


class TestParams:
    def test_defaults_follow_reported_settings(self):
        p = GaParams(l2_t=BIG)
        assert (p.n_c, p.n_p, p.g_max, p.c_p1, p.c_p2) == (16, 10, 100, 5, 12)

    def test_invalid_crossover_points(self):
        with pytest.raises(ValueError):
            GaParams(n_c=4, l2_t=BIG)  # default points 5,12 exceed n_c-1
        with pytest.raises(ValueError):
            GaParams(c_p1=5, c_p2=5, l2_t=BIG)

    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            GaParams(n_p=7, l2_t=BIG)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(n_c=0), "n_c must be >= 1, got 0"),
        (dict(l2_t=0.0), "l2_t must be > 0, got 0.0")])
    def test_selection_checks_inherited(self, kwargs, match):
        # n_c and l2_t are the scan's settings, declared and checked once
        assert isinstance(GaParams(), SelectionParams)
        with pytest.raises(ValueError, match=match):
            GaParams(**kwargs)


class TestInitPopulation:
    def test_shape_range_distinctness(self, coeffs):
        # a Generator keys the one row of a one-reference cache
        cache = DistanceCache(coeffs, 0)
        p = GaParams(l2_t=BIG, seed=1)
        genes, dists = init_population(cache, p, ref_stream(1, 0))
        assert genes.shape == dists.shape == (1, 10, 16)
        assert genes.dtype == np.int64
        for g, d in zip(genes[0], dists[0]):
            assert len(set(g.tolist())) == 16
            assert g.min() >= 0
            assert g.max() < len(coeffs)
            assert d.tobytes() == distances_from(coeffs, 0, g).tobytes()

    def test_deterministic(self, coeffs):
        p = GaParams(l2_t=BIG, seed=4)
        a = init_population(DistanceCache(coeffs, 3), p, ref_stream(4, 3))
        b = init_population(DistanceCache(coeffs, 3), p, ref_stream(4, 3))
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_full_cover_boundary(self):
        coeffs = np.random.default_rng(0).normal(size=(6, 8, 8))
        cache = DistanceCache(coeffs, 0)
        p = GaParams(n_c=6, c_p1=1, c_p2=3, l2_t=BIG)
        genes, _ = init_population(cache, p, ref_stream(0, 0))
        for g in genes[0]:
            assert sorted(g.tolist()) == list(range(6))

    def test_gene_length_exceeds_windows(self):
        coeffs = np.zeros((4, 8, 8))
        cache = DistanceCache(coeffs, 0)
        with pytest.raises(ValueError):
            init_population(cache, GaParams(n_c=6, c_p1=1, c_p2=3, l2_t=BIG),
                            ref_stream(0, 0))


class TestFitness:
    def test_self_gene_contributes_zero(self, coeffs):
        cache = DistanceCache(coeffs, 5)
        d = cache.lookup(np.array([5]))
        assert d[0] == 0.0


class TestSelectParents:
    def test_equal_fitness_keeps_order(self):
        assert select_parents(np.ones(10)).tolist() == [0, 1, 2, 3, 4]

    def test_sorted_ascending(self):
        fits = np.array([10, 1, 7, 3, 9, 2, 8, 4, 6, 5], float)
        assert fits[select_parents(fits)].tolist() == [1, 2, 3, 4, 5]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            # half the trials draw from four values, so fitness ties
            fits = (rng.uniform(size=10) if trial % 2
                    else rng.integers(0, 4, 10).astype(float))
            expect = sorted(range(10), key=lambda i: (fits[i], i))[:5]
            assert select_parents(fits).tolist() == expect


class TestCrossover:
    P = GaParams(l2_t=BIG)

    def test_identical_parents_unchanged(self):
        genes = np.arange(16, dtype=np.int64)
        pa = make_chrom(genes, np.zeros(16))
        child = crossover(pa, pa, self.P, ref_stream(0, 0), 100)
        assert np.array_equal(child, genes)

    def test_segment_comes_from_second_parent(self):
        pa = make_chrom(np.arange(16), np.zeros(16))
        pb = make_chrom(np.arange(100, 116), np.zeros(16))
        child = crossover(pa, pb, self.P, ref_stream(0, 0), 1000)
        assert np.array_equal(child[5:13], pb.genes[5:13])
        assert np.array_equal(child[:5], pa.genes[:5])
        assert np.array_equal(child[13:], pa.genes[13:])

    def test_crossover_rate_half(self):
        pa = make_chrom(np.arange(16), np.zeros(16))
        pb = make_chrom(np.arange(100, 116), np.zeros(16))
        child = crossover(pa, pb, self.P, ref_stream(0, 0), 1000)
        assert int(np.isin(child, pb.genes).sum()) == 8

    def test_collision_repair(self):
        pa_genes = np.arange(16, dtype=np.int64)
        pb_genes = np.arange(16, dtype=np.int64)[::-1].copy()
        pa = make_chrom(pa_genes, np.zeros(16))
        pb = make_chrom(pb_genes, np.zeros(16))
        child = crossover(pa, pb, self.P, ref_stream(0, 0), 50)
        assert len(set(child.tolist())) == 16

    def test_parents_not_modified(self):
        pa = make_chrom(np.arange(16), np.zeros(16))
        pb = make_chrom(np.arange(8, 24), np.zeros(16))
        before = pa.genes.copy(), pb.genes.copy()
        crossover(pa, pb, self.P, ref_stream(0, 0), 100)
        assert np.array_equal(pa.genes, before[0])
        assert np.array_equal(pb.genes, before[1])


class TestMutationMask:
    def test_all_below_threshold_single_argmax(self):
        mask = mutation_mask(np.array([1.0, 4.0, 2.0]), 5.0)
        assert mask.tolist() == [False, True, False]

    def test_all_above_threshold_saturates(self):
        mask = mutation_mask(np.array([9.0, 8.0, 7.0]), 5.0)
        assert mask.all()

    def test_indicator_case(self):
        mask = mutation_mask(np.array([1.0, 9.0, 3.0]), 5.0)
        assert mask.tolist() == [False, True, False]

    def test_tie_goes_to_smallest_index(self):
        mask = mutation_mask(np.array([4.0, 4.0, 1.0]), 10.0)
        assert mask.tolist() == [True, False, False]

    def test_never_empty(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            dists = rng.uniform(0, 10, size=rng.integers(1, 20))
            t = rng.uniform(0, 12)
            mask = mutation_mask(dists, t)
            over = dists >= t
            assert mask.sum() == (over.sum() if over.any() else 1)


class TestMutate:
    def test_empty_mask_unchanged(self):
        genes = np.arange(16, dtype=np.int64)
        out = mutate(genes, np.zeros(16, bool), ref_stream(0, 0), 100)
        assert np.array_equal(out, genes)

    def test_single_point_changes_exactly_one(self):
        genes = np.arange(16, dtype=np.int64)
        mask = np.zeros(16, bool)
        mask[3] = True
        out = mutate(genes, mask, ref_stream(0, 0), 100)
        assert (out != genes).sum() == 1
        assert out[3] != genes[3]
        assert len(set(out.tolist())) == 16

    def test_deterministic_replay(self):
        genes = np.arange(16, dtype=np.int64)
        mask = np.ones(16, bool)
        a = mutate(genes, mask, ref_stream(9, 2), 500)
        b = mutate(genes, mask, ref_stream(9, 2), 500)
        assert np.array_equal(a, b)

    def test_no_spare_values_leaves_genes(self):
        genes = np.arange(8, dtype=np.int64)
        out = mutate(genes, np.ones(8, bool), ref_stream(0, 0), 8)
        assert np.array_equal(out, genes)


def fill_loop(genes, todo, old, draws):
    """`_fill`'s rule one position at a time, in string and position order."""
    out = genes.copy()
    for r, s, q in np.ndindex(genes.shape):
        t = 0
        while todo[r, s, q]:
            v = int(draws(*(np.array([i]) for i in (r, s, q, t)))[0])
            if v not in out[r, s, :q] and v not in old[r, s, q:]:
                out[r, s, q] = v
                break
            t += 1
    return out


class TestFill:
    """The vectorised fill against the plain loop of its rule, on small
    window counts where draws clash often."""

    def test_mutate_matches_loop(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2 ** 63, 6).astype(np.uint64)
        for n_w in (9, 12, 40):
            genes = np.stack([[rng.permutation(n_w)[:8] for _ in range(4)]
                              for _ in range(6)])
            mask = rng.uniform(size=genes.shape) < 0.6
            want = fill_loop(genes, mask, genes,
                             ga_mod._draws_at(keys, ga_mod.MUTATE, 3, n_w))
            assert np.array_equal(mutate(genes, mask, keys, n_w, 3), want)

    @pytest.mark.parametrize("n_w,share,price", [
        (40, 1.0, None),     # every position todo, as in a short row
        (9, 0.6, None),      # n_w = n_c + 1: most draws clash
        (9, 1.0, 3 * 8),     # chunks of 3 entries split every string
        (12, 0.6, 3 * 8)])
    def test_mutate_cases_match_loop(self, monkeypatch, n_w, share, price):
        if price is not None:
            monkeypatch.setattr(ga_mod, "PRICE_ENTRIES", price)
        rng = np.random.default_rng(n_w)
        keys = rng.integers(0, 2 ** 63, 5).astype(np.uint64)
        genes = np.stack([[rng.permutation(n_w)[:8] for _ in range(6)]
                          for _ in range(5)])
        mask = rng.uniform(size=genes.shape) < share
        mask[rng.uniform(size=genes.shape[:2]) < 0.3] = False   # idle strings
        assert mask.any(axis=2).sum() < mask.shape[0] * mask.shape[1]
        want = fill_loop(genes, mask, genes,
                         ga_mod._draws_at(keys, ga_mod.MUTATE, 5, n_w))
        assert np.array_equal(mutate(genes, mask, keys, n_w, 5), want)

    def test_repair_and_init_match_loop(self):
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2 ** 63, 5).astype(np.uint64)
        p = GaParams(n_c=8, c_p1=2, c_p2=5, l2_t=BIG)
        pa, pb = rng.integers(0, 10, (2, 5, 3, 8))
        child = np.array(pa)
        child[..., 2:6] = pb[..., 2:6]
        repeat = np.array([[[v in c[:q] for q, v in enumerate(c.tolist())]
                            for c in row] for row in child])
        want = fill_loop(child, repeat, child,
                         ga_mod._draws_at(keys, ga_mod.REPAIR, 1, 10))
        assert np.array_equal(crossover(pa, pb, p, keys, 10, 1), want)
        cache = DistanceCache(np.zeros((8, 2, 2)), np.zeros(5, int))
        genes, _ = init_population(cache, p, keys)
        empty = np.full(genes.shape, -1)
        draws = ga_mod._draws_at(keys, ga_mod.INIT, 0, 8)
        assert np.array_equal(genes, fill_loop(empty, empty < 0, empty, draws))


class TestUpdateBestSet:
    def test_nothing_passes_gate(self):
        best = BestSet(0, np.array([3], np.int64), np.array([2.0]))
        pop = [make_chrom([5, 6], [9.0, 8.0])]
        out = update_best_set(best, pop, 5.0, 4)
        assert out.indices.tolist() == [3]

    def test_zero_distance_enters_first(self):
        best = BestSet(0, np.array([3], np.int64), np.array([2.0]))
        pop = [make_chrom([0, 6], [0.0, 8.0])]
        out = update_best_set(best, pop, 5.0, 4)
        assert out.indices[0] == 0 and out.dists[0] == 0.0

    def test_hand_merge(self):
        best = BestSet(0, np.array([10, 11], np.int64), np.array([2.0, 7.0]))
        pop = [make_chrom([20, 21], [1.0, 9.0])]
        out = update_best_set(best, pop, 100.0, 3)
        assert out.dists.tolist() == [1.0, 2.0, 7.0]

    def test_merge_never_worsens(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(0, 5))
            bi = rng.choice(100, size=n, replace=False).astype(np.int64)
            bd = np.sort(rng.uniform(0, 10, size=n))
            best = BestSet(0, bi, bd)
            pop = [make_chrom(rng.choice(100, 6, replace=False),
                              rng.uniform(0, 10, 6)) for _ in range(3)]
            out = update_best_set(best, pop, rng.uniform(1, 12), 4)
            assert np.all(np.diff(out.dists) >= 0)
            for k in range(min(len(out), len(best))):
                assert out.dists[k] <= bd[k] + 1e-12


class TestGaSelect:
    def test_constant_image_fills_immediately(self):
        coeffs = np.zeros((50, 8, 8))
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=1.0, seed=0)
        res = ga_select(0, coeffs, p)
        assert len(res) == 4
        assert np.all(res.distances == 0.0)
        assert not res.fallback_used

    def test_deterministic(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=11)
        a = ga_select(3, coeffs, p)
        b = ga_select(3, coeffs, p)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances, b.distances)
        assert a.evaluations == b.evaluations

    def test_memoization_bound(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=5)
        res = ga_select(0, coeffs, p)
        assert res.evaluations <= len(coeffs)

    def test_never_worse_than_initial(self, coeffs):
        for seed in range(5):
            p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=seed)
            cache = DistanceCache(coeffs, 2)
            _, dists = init_population(cache, p, ref_stream(seed, 2))
            best_init = dists.mean(axis=-1).min()
            res = ga_select(2, coeffs, p)
            assert res.distances.mean() <= best_init + 1e-12

    def test_elitism_bound(self, coeffs, monkeypatch):
        # the archive head never lags the cheapest evaluated distance
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=3)
        observed = []
        orig = ga_mod.update_best_set

        def spy(best, population, l2_t, n_c):
            out = orig(best, population, l2_t, n_c)
            observed.append(out.dists[0] if len(out) else np.inf)
            return out

        monkeypatch.setattr(ga_mod, "update_best_set", spy)
        res = ga_select(7, coeffs, p)
        assert res.distances[0] == min(observed)
        assert np.all(np.diff(np.array(observed)) <= 1e-12)

    def test_archive_multiset_monotone(self, coeffs, monkeypatch):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=8)
        archives = []
        orig = ga_mod.update_best_set

        def spy(best, population, l2_t, n_c):
            out = orig(best, population, l2_t, n_c)
            archives.append(out.dists.copy())
            return out

        monkeypatch.setattr(ga_mod, "update_best_set", spy)
        ga_select(12, coeffs, p)
        for prev, cur in zip(archives, archives[1:]):
            for k in range(len(prev)):
                assert cur[k] <= prev[k] + 1e-12

    def test_fallback_fill_when_gate_too_tight(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=1e-9, max_rounds=1,
                     g_max=5, seed=0)
        res = ga_select(0, coeffs, p)
        assert res.fallback_used
        assert len(res) == 4
        assert res.gated < 4
        # fallback members are the closest evaluated, self included
        assert res.indices[res.gated] == 0 or 0.0 in res.distances

    def test_quality_close_to_exhaustive(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=0)
        sp = SelectionParams(n_c=4, l2_t=BIG)
        ratios = []
        for ref in range(0, len(coeffs), 25):
            g = ga_select(ref, coeffs, p)
            e = exhaustive_select(ref, coeffs, sp)
            ratios.append(g.distances.mean() / max(e.distances.mean(), 1e-12))
        assert np.median(ratios) <= 1.25

    def test_trace_callback(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=0)
        records = []
        ga_select(0, coeffs, p,
                  trace=lambda gen, fit, size: records.append((gen, fit, size)))
        assert records and records[0][0] == 1
        assert all(size <= 4 for _, _, size in records)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


GATE15 = noise_gate(15.0, 8)

# (name, ref, window count or None for all, GaParams kwargs, sha256 of the
# result). The digests were recorded when the draws became addressed by a
# counter, and all but `fallback` again when the forward transform became
# F @ w @ F.T matmuls; a change to the draws, the fill rule, the fitness
# bits, the archive merge or the coefficient bits shows up here.
GOLDEN_SELECT = [
    ("short-genes-s11", 3, None,
     dict(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=11),
     "3279301ff53b48a856ea3c7aa1ec3012aac8b048cf8228da576fef7c60183f94"),
    ("short-genes-s2", 120, None,
     dict(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=2),
     "ee57398d3b8c06d1c53f1321710deef9eda75a75f00f0dd9d20fed0a11f26045"),
    ("noise-gate-ref0", 0, None, dict(l2_t=GATE15, seed=0),
     "04954717068c6ccab72c9b256d0318319565ea76b8d544c3301b708add69c9c9"),
    ("noise-gate-ref112", 112, None, dict(l2_t=GATE15, seed=5),
     "e5e6afdd9fe77f7fea2d225ace371b6b650f6247fbd51c8d791adb743d5932ba"),
    ("noise-gate-ref224", 224, None, dict(l2_t=GATE15, seed=9),
     "534b1875d87481911d34b4f591a06723378e99cb2e7eaee2ef31cc6df43c315b"),
    ("fallback", 0, None,
     dict(n_c=4, c_p1=1, c_p2=2, l2_t=1e-9, max_rounds=1, g_max=5, seed=0),
     "32e0e3d6bd5b1a2ff6c6e2493da525a4b5af2308688f67fc778622a0810a4539"),
    ("fallback-partial", 14, None,
     dict(l2_t=0.8 * GATE15, max_rounds=1, g_max=5, seed=1),
     "b92900cb12578feb49086f62dfaaaeccbf484705b04267794daba0ded02ce05f"),
    ("wide-gate", 77, None, dict(l2_t=3.0 * GATE15, seed=7),
     "ce42c9781fa310057936276584fa8beafeedade9b11d3d09e1e029395af7f5fd"),
    ("saturated", 5, 24, dict(n_c=8, c_p1=2, c_p2=5, l2_t=BIG, seed=3),
     "1c48591fc19a525cb079dda3e5e908a3a6bbde78bc96c88e5bce32cb34c0574f"),
    ("all-windows", 2, 6, dict(n_c=6, c_p1=1, c_p2=3, l2_t=BIG, seed=4),
     "b072301d4ccc76d026ec31a7330edb311ba8790665f655ac0857da80669d402f"),
]


def select_digest(ref, n_w, kwargs, coeffs):
    stack = coeffs if n_w is None else coeffs[:n_w]
    res = ga_select(ref, stack, GaParams(**kwargs))
    return res, _sha(res.indices.astype(np.int64),
                     res.distances.astype(np.float64),
                     res.evaluations, res.gated)


def operator_stream():
    """Child genes and final generator state of a fixed sequence of
    crossover and mutate calls over a small window count, where repairs
    and redraws collide often; each call keys its draws with one raw word
    of the generator."""
    rng = ref_stream(21, 4)
    n_w = 40
    start = np.random.default_rng(0)
    pa = make_chrom(start.permutation(n_w)[:16], np.zeros(16))
    pb = make_chrom(start.permutation(n_w)[:16], np.zeros(16))
    children = []
    for i in range(60):
        child = crossover(pa, pb, GaParams(l2_t=BIG), rng, n_w)
        mask = (np.arange(16) + i) % (1 + i % 4) == 0
        child = mutate(child, mask, rng, n_w)
        children.append(child)
        pa, pb = pb, make_chrom(child, np.zeros(16))
    return np.concatenate(children), rng.bit_generator.state["state"]


GOLDEN_OPERATORS = (
    "724e0026eefe45d7944075ff9fc537b597264e090c5f99d5a1dfa39b58c22cc6",
    24466827854800261024913483148469727496)
GOLDEN_DENOISE = (
    "ef0b1be5f6595d96f9612dd97c560b34610ec8be1c52fa3fecefe609d89cabfe",
    50452)


class TestGoldenStream:
    @pytest.mark.parametrize("name,ref,n_w,kwargs,digest", GOLDEN_SELECT,
                             ids=[c[0] for c in GOLDEN_SELECT])
    def test_select_digest(self, coeffs, name, ref, n_w, kwargs, digest):
        res, got = select_digest(ref, n_w, kwargs, coeffs)
        if name.startswith("fallback"):
            assert res.fallback_used
        if n_w is not None:
            assert res.evaluations == n_w
        assert got == digest

    def test_operator_stream(self):
        children, state = operator_stream()
        assert (_sha(children), state["state"]) == GOLDEN_OPERATORS

    def test_denoise_digest(self, monkeypatch):
        # every closest set also holds its reference, as the scan's do
        found = []

        def spy(*args, **kwargs):
            found.append(ga_select(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(ga_mod, "ga_select", spy)
        noisy = add_awgn(ct_phantom(64), 15, 0)
        cfg = DenoiseConfig(m=8, s_size=4, engine="ga", sigma=15.0,
                            threshold_scale=0.25, seed=2)
        out, stats = denoise_image(noisy, cfg)
        assert (_sha(out), stats.distance_evals) == GOLDEN_DENOISE
        assert [s.ref_idx for s in found] == list(range(225))
        assert all(s.ref_idx in s.gated_indices for s in found)


@pytest.mark.parametrize("select", [exhaustive_select, ga_select])
@pytest.mark.parametrize("at_end", [False, True], ids=["-1", "n_w"])
def test_bad_reference_rejected(coeffs, select, at_end):
    # both engines take a GaParams (a SelectionParams) and check the index
    # before any work
    n_w = len(coeffs)
    ref = n_w if at_end else -1
    with pytest.raises(IndexError, match=rf"reference index {ref} out of "
                                         rf"range \[0, {n_w}\)"):
        select(ref, coeffs, GaParams(l2_t=BIG))


def _same_select(a, b):
    assert a.indices.dtype == b.indices.dtype == np.int64
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.distances.tobytes() == b.distances.tobytes()
    assert (a.evaluations, a.gated) == (b.evaluations, b.gated)


class TestRowBatched:
    """The row-batched operators against their one-row calls, row by row:
    a block row keyed by the first raw word of a reference's stream draws
    what a lone call given that stream draws."""

    N_W = 60

    def strings(self, rows, seed=0):
        rng = np.random.default_rng(seed)
        return np.stack([rng.permutation(self.N_W)[:16] for _ in range(rows)])

    @staticmethod
    def keys(seed, rows):
        return np.array([ref_stream(seed, r).bit_generator.random_raw()
                         for r in range(rows)], np.uint64)

    def test_mutate_rows(self):
        rng = np.random.default_rng(1)
        genes = self.strings(30)
        mask = rng.uniform(size=genes.shape) < 0.4
        batched = mutate(genes, mask, self.keys(3, 30), self.N_W)
        for r in range(30):
            alone = mutate(genes[r], mask[r], ref_stream(3, r), self.N_W)
            assert np.array_equal(batched[r], alone)

    def test_mutate_strings_of_a_row(self):
        rng = np.random.default_rng(2)
        genes = self.strings(15).reshape(3, 5, 16)
        mask = rng.uniform(size=genes.shape) < 0.5
        keys = self.keys(4, 3)
        batched = mutate(genes, mask, keys, self.N_W, generation=7)
        for r in range(3):
            alone = mutate(genes[r:r + 1], mask[r:r + 1], keys[r:r + 1],
                           self.N_W, generation=7)
            assert np.array_equal(batched[r], alone[0])

    def test_crossover_rows(self):
        p = GaParams(l2_t=BIG)
        pa, pb = self.strings(40, 5), self.strings(40, 6)
        batched = crossover(pa, pb, p, self.keys(7, 40), self.N_W)
        for r in range(40):
            alone = crossover(pa[r], pb[r], p, ref_stream(7, r), self.N_W)
            assert np.array_equal(batched[r], alone)
            assert len(set(batched[r].tolist())) == 16

    def test_init_population_rows(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG)
        refs = [0, 17, 140]
        genes, dists = init_population(DistanceCache(coeffs, refs), p,
                                       self.keys(5, 3))
        for r, ref in enumerate(refs):
            alone = init_population(DistanceCache(coeffs, ref), p,
                                    ref_stream(5, r))
            assert genes[r].tobytes() == alone[0][0].tobytes()
            assert dists[r].tobytes() == alone[1][0].tobytes()

    def test_mask_and_parents_rows(self):
        rng = np.random.default_rng(8)
        dists = rng.uniform(0, 10, (50, 16))
        mask = mutation_mask(dists, 8.0)
        for r in range(50):
            assert np.array_equal(mask[r], mutation_mask(dists[r], 8.0))
        fits = rng.integers(0, 4, (50, 10)).astype(float)   # many ties
        order = select_parents(fits)
        for r in range(50):
            assert np.array_equal(order[r], select_parents(fits[r]))

    def test_lookup_rows(self, coeffs):
        refs = [0, 17, 140]
        block = DistanceCache(coeffs, refs)
        genes = self.strings(3) * 3
        d = block.lookup(genes, np.arange(3))
        for r, ref in enumerate(refs):
            alone = DistanceCache(coeffs, ref)
            assert d[r].tobytes() == alone.lookup(genes[r]).tobytes()
            assert block.evaluations[r] == alone.evaluations[0]


class TestBlockSearch:
    @pytest.mark.parametrize("name,ref,n_w,kwargs,digest", GOLDEN_SELECT,
                             ids=[c[0] for c in GOLDEN_SELECT])
    def test_block_equals_standalone(self, coeffs, name, ref, n_w, kwargs,
                                     digest):
        # every reference of the stack, searched in one block and then
        # finished, against its own standalone run
        stack = coeffs if n_w is None else coeffs[:n_w]
        p = GaParams(**kwargs)
        searches = search_block(stack, np.arange(len(stack)), p)
        assert [s.ref_idx for s in searches] == list(range(len(stack)))
        for s in searches:
            _same_select(ga_select(s.ref_idx, stack, p, search=s),
                         ga_select(s.ref_idx, stack, p))

    def test_trace_replayed_per_reference(self, coeffs):
        p = GaParams(l2_t=GATE15, seed=3)
        searches = search_block(coeffs, [4, 90, 200], p, record=True)
        for s in searches:
            replayed, alone = [], []
            ga_select(s.ref_idx, coeffs, p, search=s,
                      trace=lambda *rec: replayed.append(rec))
            ga_select(s.ref_idx, coeffs, p,
                      trace=lambda *rec: alone.append(rec))
            assert replayed == alone
            assert [r[0] for r in replayed] == \
                list(range(1, len(replayed) + 1))

    def test_empty_block(self, coeffs):
        p = GaParams(l2_t=GATE15, seed=3)
        assert search_block(coeffs, [], p) == []
        assert search_block(coeffs, np.arange(0), p, record=True,
                            live=True) == []

    def test_search_of_another_reference_rejected(self, coeffs):
        p = GaParams(n_c=4, c_p1=1, c_p2=2, l2_t=BIG, seed=0)
        s = search_block(coeffs, [3], p)[0]
        with pytest.raises(ValueError, match="reference 3"):
            ga_select(4, coeffs, p, search=s)

    def test_blocks_cover_in_order(self, monkeypatch):
        monkeypatch.setattr(ga_mod, "GA_BLOCK_ENTRIES", 60 * 225)
        blocks = ref_blocks(225)
        assert len(blocks) == 4 and len({len(b) for b in blocks}) > 1
        assert np.array_equal(np.concatenate(blocks), np.arange(225))
        assert [len(b) for b in ref_blocks(3)] == [3]
        for budget in (225, 100):   # one row's cache, then less than that
            monkeypatch.setattr(ga_mod, "GA_BLOCK_ENTRIES", budget)
            blocks = ref_blocks(225)
            assert [len(b) for b in blocks] == [1] * 225
            assert np.array_equal(np.concatenate(blocks), np.arange(225))

    def test_block_rows_at_96_and_512(self):
        # m=8, s=4 at 96 (n_w = 529): one block; m=16, s=8 at 512
        # (n_w = 3969): no cache over budget, no block under 128 rows
        assert [len(b) for b in ref_blocks(529)] == [529]
        sizes = [len(b) for b in ref_blocks(3969)]
        assert max(sizes) * 3969 <= ga_mod.GA_BLOCK_ENTRIES
        assert min(sizes) >= 128

    def test_denoise_independent_of_block_size(self, monkeypatch):
        noisy = add_awgn(ct_phantom(64), 15, 0)
        cfg = DenoiseConfig(m=8, s_size=4, engine="ga", sigma=15.0,
                            threshold_scale=0.25, seed=2)
        monkeypatch.setattr(ga_mod, "GA_BLOCK_ENTRIES", 60 * 225)
        sizes = [len(b) for b in ref_blocks(225)]
        assert len(sizes) >= 3 and len(set(sizes)) > 1
        out, stats = denoise_image(noisy, cfg)
        assert (_sha(out), stats.distance_evals) == GOLDEN_DENOISE


class TestParity:
    def test_full_search_equals_scan(self):
        # a GA run that priced every window gates exactly the scan's set,
        # with the same distance bits; half the images repeat one 8x8
        # block, so windows tie
        rng = np.random.default_rng(12)
        F = ghm.build_ghm_matrix(8)
        checked = 0
        for case in range(40):
            size = int(rng.integers(16, 29))
            if case % 2:
                block = rng.integers(0, 256, (8, 8))
                img = np.tile(block, (4, 4))[:size, :size].astype(np.uint8)
            else:
                img = rng.integers(0, 256, (size, size)).astype(np.uint8)
            wins = extract_windows(img, build_grid(img, 8, 4))
            coeffs = ghm.forward_all(wins, F)
            n_w = len(coeffs)
            d = np.concatenate([distances_from(coeffs, r) for r in range(n_w)])
            d = d[d > 0]
            l2_t = (np.inf, float(np.median(d)),
                    max(float(np.quantile(d, 0.05)), 1e-9))[case % 3]
            n_c = int(rng.integers(3, min(8, n_w) + 1))
            p = GaParams(n_c=n_c, c_p1=1, c_p2=2, l2_t=l2_t, seed=case)
            sp = SelectionParams(n_c=n_c, l2_t=l2_t)
            for s in search_block(coeffs, np.arange(n_w), p):
                if s.evaluations < n_w:
                    continue
                g = ga_select(s.ref_idx, coeffs, p, search=s)
                e = exhaustive_select(s.ref_idx, coeffs, sp)
                assert g.gated_indices.tobytes() == e.indices.tobytes()
                assert g.distances[:g.gated].tobytes() == e.distances.tobytes()
                checked += 1
        assert checked >= 500
