import re
from collections import namedtuple
from itertools import accumulate, combinations, permutations

import numpy as np
import pytest

import codedseq.codec as codec_module
from codedseq.codec import (
    InfeasibleConfiguration,
    InsufficientResults,
    Layout,
    WorkerMatrix,
    decode_prefix,
    dump_rows,
    encode_all,
    make_generator,
    make_layout,
    support_product,
    worker_multiply,
)
from codedseq.feasibility import Configuration, check_feasible, row_count_s


def random_source(cfg, m, seed):
    """The stacked (h_L, m) source; level i is rows h_(i-1):h_i."""
    return np.random.default_rng(seed).standard_normal((sum(cfg.k), m))


def level_bounds(cfg):
    """(first, end) source rows of each level, from the cumulative ranks."""
    h = (0, *accumulate(cfg.k))
    return list(zip(h, h[1:]))


def roundtrip_max_error(cfg, m=10, seed=0):
    """Max relative decode error over every worker subset of every size."""
    A = random_source(cfg, m, seed)
    workers = encode_all(A, cfg)
    rng = np.random.default_rng(seed + 1)
    z = rng.standard_normal(m)
    results = [worker_multiply(w, z) for w in workers]
    worst = 0.0
    for ell in range(1, cfg.L + 1):
        for subset in combinations(range(cfg.L), ell):
            decoded = decode_prefix([results[i] for i in subset])
            assert decoded.shape == (list(accumulate(cfg.k))[ell - 1],)
            for a, b in level_bounds(cfg)[:ell]:
                block, truth = decoded[a:b], A[a:b] @ z
                if truth.size:
                    err = np.abs(block - truth).max() / max(1.0, np.abs(truth).max())
                    worst = max(worst, float(err))
    return worst


Tag = namedtuple("Tag", "level block row systematic")


def row_tags(cfg):
    """Each worker's Tag per stored row, in storage order, derived from the
    homes and slots of the layout's blocks."""
    placed = [{} for _ in range(cfg.L)]
    for blocks in make_layout(cfg).levels:
        for b in blocks:
            for r, (w, slot) in enumerate(zip(b.homes, b.slots)):
                assert slot not in placed[w]
                placed[w][slot] = Tag(b.level, b.index, r, r < b.rows_in)
    for slots in placed:
        assert sorted(slots) == list(range(len(slots)))
    return [[slots[s] for s in range(len(slots))] for slots in placed]


def pool_decode(results, cfg):
    """Reference decoder: pools rows per block from the tags and LU-solves
    each block on its lowest-indexed received rows."""
    tags = row_tags(cfg)
    pool = {}
    for res in results:
        assert len(res.y) == len(tags[res.worker_id - 1])
        for value, tag in zip(res.y, tags[res.worker_id - 1]):
            pool.setdefault((tag.level, tag.block), []).append((tag.row, value))
    decoded = []
    for level in range(1, len(results) + 1):
        nfull, rem = divmod(cfg.k[level - 1], level)
        pieces = []
        for j in range(nfull + (1 if rem else 0)):
            rows_in = level if j < nfull else rem
            rows_out = cfg.L if j < nfull else cfg.L - level + rem
            idx, y = zip(*sorted(pool[(level, j)])[:rows_in])
            gen = make_generator(rows_in, rows_out)
            pieces.append(np.linalg.solve(gen[list(idx)], np.array(y)))
        decoded.append(np.concatenate(pieces) if pieces else np.empty(0))
    return decoded


def level_blocks(cfg, level):
    return [(b.start, b.rows_in) for b in make_layout(cfg).levels[level - 1]]


def sweep_configs(L, count=60, seed=0):
    """Random level counts, each with the smallest n its row budget allows."""
    rng = np.random.default_rng(seed + L)
    for _ in range(count):
        k = tuple(int(v) for v in rng.integers(0, 2 * L + 1, size=L))
        total = sum(row_count_s(i, k_i, L) for i, k_i in enumerate(k, 1))
        yield Configuration(L=L, n=max(1, -(-total // L)), k=k)


class TestLayout:
    def test_remainder_split(self):
        assert level_blocks(Configuration(L=2, n=2, k=(0, 3)), 2) == [(0, 2), (2, 1)]

    def test_exact_split(self):
        assert level_blocks(Configuration(L=3, n=1, k=(0, 0, 3)), 3) == [(0, 3)]

    def test_single_row_high_level(self):
        cfg = Configuration(L=4, n=1, k=(0, 0, 0, 1))
        assert level_blocks(cfg, 4) == [(0, 1)]
        assert make_layout(cfg).levels[3][0].rows_out == 1

    def test_empty_level(self):
        assert level_blocks(Configuration(L=2, n=2, k=(1, 0)), 2) == []

    @pytest.mark.parametrize("L", range(1, 7))
    def test_geometry_matches_row_budget(self, L):
        for cfg in sweep_configs(L):
            layout = make_layout(cfg)
            tags = row_tags(cfg)
            budget = check_feasible(cfg)
            for level, blocks in enumerate(layout.levels, start=1):
                assert sum(b.rows_out for b in blocks) == budget.s[level - 1]
                first = layout.offsets[level - 1]
                starts = [b.start for b in blocks]
                assert starts == list(range(first, first + cfg.k[level - 1], level))
                assert sum(b.rows_in for b in blocks) == cfg.k[level - 1]
                for b in blocks:
                    assert len(set(b.homes)) == len(b.homes) == b.rows_out
                    for r, (w, slot) in enumerate(zip(b.homes, b.slots)):
                        tag = tags[w][slot]
                        assert (tag.level, tag.block, tag.row) == (level, b.index, r)
            loads = [len(t) for t in tags]
            assert list(np.diff(layout.starts)) == loads
            assert max(loads) - min(loads) <= 1
            assert max(loads) == -(-budget.total // L) <= cfg.n

    def test_decode_matrix_built_once_per_responder_set(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 0), cfg)
        layout = make_layout(cfg)
        Layout.decoder.cache_clear()
        z = np.random.default_rng(3).standard_normal(7)
        decode_prefix([worker_multiply(workers[i], z) for i in (3, 1)])
        first = layout.decoder((2, 4))
        decode_prefix([worker_multiply(workers[i], z) for i in (1, 3)])
        info = Layout.decoder.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        assert layout.decoder((2, 4)) is first

    @pytest.mark.parametrize("key, message", [
        ((1, 1, 2), "worker results must come from distinct workers, got (1, 1, 2)"),
        ((1, 2, 3, 4, 4), "distinct workers"),
        ((2, 1, 3), "worker ids must be ascending, got (2, 1, 3)"),
        ((0, 1, 2), "worker ids must lie in 1..4, got (0, 1, 2)"),
        ((5,), "worker ids must lie in 1..4, got (5,)"),
    ], ids=["repeat", "repeat-of-five", "unsorted", "id-0", "id-5"])
    def test_decoder_refuses_malformed_keys_and_caches_nothing(self, key, message):
        layout = make_layout(Configuration(L=4, n=3, k=(0, 3, 3, 1)))
        layout.decoder((1, 2, 3))
        before = Layout.decoder.cache_info().currsize
        with pytest.raises(ValueError, match=re.escape(message)):
            layout.decoder(key)
        assert Layout.decoder.cache_info().currsize == before

    def test_decode_cache_is_bounded_and_rebuilds_bit_equal(self):
        cfg = Configuration(L=12, n=1, k=(0,) * 5 + (6,) + (0,) * 6)
        layout = make_layout(cfg)
        sets = list(combinations(range(1, 13), 6))
        assert len(sets) > codec_module.DECODER_CACHE_SIZE
        Layout.decoder.cache_clear()
        first = layout.decoder(sets[0])
        for responders in sets[1:]:
            layout.decoder(responders)
        info = Layout.decoder.cache_info()
        assert (info.misses, info.currsize) == (len(sets), codec_module.DECODER_CACHE_SIZE)
        rebuilt = layout.decoder(sets[0])
        assert Layout.decoder.cache_info().misses == len(sets) + 1  # sets[0] was evicted
        assert rebuilt is not first and rebuilt.tobytes() == first.tobytes()


class TestGenerator:
    def test_square_is_identity(self):
        gen = make_generator(2, 2)
        np.testing.assert_array_equal(gen, np.eye(2))

    def test_repetition_like(self):
        gen = make_generator(1, 3)
        assert gen[0, 0] == 1.0
        assert all(gen[r, 0] != 0.0 for r in range(3))

    @pytest.mark.parametrize("rows_in, rows_out", [
        (i, o) for o in range(1, 13) for i in range(1, o + 1)])
    def test_all_square_submatrices_invertible(self, rows_in, rows_out):
        # every square submatrix of [I; C] is, up to sign, a minor of the
        # Cauchy block C, so none is singular; check it on every code with at
        # most 12 coded rows, by singular values and, for (2, 4), determinants
        gen = make_generator(rows_in, rows_out)
        for rows in combinations(range(rows_out), rows_in):
            sv = np.linalg.svd(gen[list(rows)], compute_uv=False)
            assert sv[-1] > 1e-10 * max(sv[0], 1.0), rows
            if (rows_in, rows_out) == (2, 4):
                assert abs(np.linalg.det(gen[list(rows)])) > 1e-12

    def test_systematic_prefix(self):
        for rows_in, rows_out in [(1, 4), (2, 5), (3, 5), (4, 6)]:
            gen = make_generator(rows_in, rows_out)
            np.testing.assert_array_equal(
                gen[:rows_in], np.eye(rows_in)
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_generator(0, 2)
        with pytest.raises(ValueError):
            make_generator(3, 2)


class TestEncode:
    def test_reference_example_structure(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 0), cfg)
        tags = row_tags(cfg)
        assert [len(w.rows) for w in workers] == [len(t) for t in tags] == [3, 3, 3, 3]
        # full blocks of levels 2 and 3: exactly one coded row in every worker
        for level, block in [(2, 0), (3, 0)]:
            for w in tags:
                hits = [t for t in w if (t.level, t.block) == (level, block)]
                assert len(hits) == 1
        # level-2 remainder: one row in each of exactly 3 distinct workers
        carriers = [
            w
            for w in range(cfg.L)
            if sum(1 for t in tags[w] if (t.level, t.block) == (2, 1)) == 1
        ]
        assert len(carriers) == 3
        # level-4 single row lives in exactly one worker (the least loaded)
        quads = [w + 1 for w in range(cfg.L) if any(t.level == 4 for t in tags[w])]
        assert quads == [4]

    def test_capacity_and_total(self):
        cfg = Configuration(L=5, n=5, k=(1, 2, 3, 4, 5))
        budget = check_feasible(cfg)
        assert budget.feasible
        workers = encode_all(random_source(cfg, 6, 3), cfg)
        assert all(len(w.rows) <= cfg.n for w in workers)
        assert sum(len(w.rows) for w in workers) == budget.total

    def test_infeasible_configuration_rejected(self):
        cfg = Configuration(L=2, n=1, k=(2, 0))
        with pytest.raises(InfeasibleConfiguration):
            encode_all(random_source(cfg, 3, 0), cfg)

    def test_shape_mismatch_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        src = random_source(Configuration(L=2, n=2, k=(2, 1)), 3, 0)
        with pytest.raises(ValueError):
            encode_all(src, cfg)

    def test_one_dimensional_source_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        with pytest.raises(ValueError, match="does not stack"):
            encode_all(np.ones(2), cfg)

    def test_rows_are_immutable(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 0), cfg)
        with pytest.raises(ValueError):
            workers[0].rows[0, 0] = 7.0

    def test_workers_are_slices_of_one_stacked_matrix(self):
        cfg = Configuration(L=5, n=5, k=(1, 2, 3, 4, 5))
        A = random_source(cfg, 6, 3)
        workers = encode_all(A, cfg)
        W = workers[0].rows.base
        assert W is not None and W.flags.c_contiguous and not W.flags.writeable
        starts = make_layout(cfg).starts
        assert W.shape == (starts[-1], 6)
        for w in workers:
            assert w.rows.base is W and np.shares_memory(w.rows, W)
            assert w.layout is make_layout(cfg)
            # worker w's rows begin at row starts[w - 1] of the stack
            a, b = starts[w.worker_id - 1], starts[w.worker_id]
            assert w.rows.shape == (b - a, 6)
            assert w.rows.ctypes.data == W.ctypes.data + a * W.strides[0]
        # each stored row is its coded row of its block
        for w, tags in zip(workers, row_tags(cfg)):
            for slot, t in enumerate(tags):
                blk = make_layout(cfg).levels[t.level - 1][t.block]
                coded = blk.generator @ A[blk.start : blk.start + blk.rows_in]
                np.testing.assert_array_equal(w.rows[slot], coded[t.row])


class TestWorkerMultiply:
    def test_zero_vector(self):
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        res = worker_multiply(workers[0], np.zeros(5))
        np.testing.assert_array_equal(res.y, np.zeros(len(workers[0].rows)))

    def test_one_hot_selects_column(self):
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        z = np.zeros(5)
        z[3] = 1.0
        res = worker_multiply(workers[1], z)
        np.testing.assert_allclose(res.y, workers[1].rows[:, 3])

    def test_matches_dense_multiply(self):
        cfg = Configuration(L=3, n=3, k=(1, 2, 3))
        workers = encode_all(random_source(cfg, 6, 2), cfg)
        z = np.random.default_rng(5).standard_normal(6)
        for w in workers:
            np.testing.assert_allclose(worker_multiply(w, z).y, w.rows @ z)

    def test_dimension_mismatch(self):
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        with pytest.raises(ValueError):
            worker_multiply(workers[0], np.zeros(4))

    @pytest.mark.parametrize("z", [[3, -1, 0, 2, 5], np.array([3, -1, 0, 2, 5]),
                                   np.array([3, -1, 0, 2, 5], dtype=np.float32)],
                             ids=["list", "int-array", "float32-array"])
    def test_converts_other_vectors_to_float(self, z):
        # only a float64 ndarray is multiplied as it is
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        want = workers[1].rows @ np.array([3.0, -1.0, 0.0, 2.0, 5.0])
        res = worker_multiply(workers[1], z)
        assert res.y.dtype == np.float64
        np.testing.assert_array_equal(res.y, want)

    @pytest.mark.parametrize("z", [np.zeros((5, 1)), np.zeros((1, 5)), np.zeros(6),
                                   [0.0] * 4, np.float64(1.0)],
                             ids=["column", "row", "long", "short-list", "scalar"])
    def test_refuses_a_vector_of_the_wrong_shape(self, z):
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        with pytest.raises(ValueError, match="does not match worker matrix with 5 columns"):
            worker_multiply(workers[0], z)


class GatherSpy(np.ndarray):
    """A matrix that records whether a product gathered some of its columns."""

    gathered = False

    def __getitem__(self, key):
        self.gathered = True
        return np.asarray(self)[key]


def spy(shape, seed):
    A = np.random.default_rng(seed).standard_normal(shape).view(GatherSpy)
    A.gathered = False
    return A


def sparse_vector(cols, nonzeros, seed):
    rng = np.random.default_rng(seed)
    z = np.zeros(cols)
    z[rng.choice(cols, size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
    return z


def assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


class TestSupportProduct:
    # 15 x 4369 is one entry short of the size gate, 16 x 4096 exactly at it
    @pytest.mark.parametrize("shape", [(38, 500), (6, 600), (40, 600), (15, 4369)])
    def test_below_size_gate_is_plain_product(self, shape):
        A = spy(shape, 0)
        z = sparse_vector(shape[1], 3, 1)
        got = support_product(A, z)
        assert not A.gathered
        np.testing.assert_array_equal(np.asarray(got), np.asarray(A) @ z)

    def test_dense_support_is_plain_product(self):
        # 16 * 313 > 5000: the column gather would cost more than it saves
        A = spy((40, 5000), 2)
        z = sparse_vector(5000, 313, 3)
        got = support_product(A, z)
        assert not A.gathered
        np.testing.assert_array_equal(np.asarray(got), np.asarray(A) @ z)

    @pytest.mark.parametrize(
        "shape, nonzeros", [((40, 5000), 312), ((16, 4096), 256), ((16, 4096), 1)]
    )
    def test_gates_are_inclusive(self, shape, nonzeros):
        A = spy(shape, 4)
        z = sparse_vector(shape[1], nonzeros, 5)
        got = support_product(A, z)
        assert A.gathered
        assert_close(np.asarray(got), np.asarray(A) @ z)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_supports_match_product(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = [(40, 5000), (150, 5000), (64, 1024), (60, 1500)][seed % 4]
        A = rng.standard_normal((rows, cols))
        z = sparse_vector(cols, int(rng.integers(1, cols // 16 + 1)), seed + 100)
        got = support_product(A, z)
        assert got.shape == (rows,)
        assert_close(got, A @ z)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_vector_gives_zeros(self, zero):
        A = np.random.default_rng(6).standard_normal((40, 5000))
        got = support_product(A, np.full(5000, zero))
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, np.zeros(40))

    def test_nan_on_support_propagates(self):
        A = np.random.default_rng(7).standard_normal((40, 5000))
        z = sparse_vector(5000, 9, 8)
        z[np.flatnonzero(z)[4]] = np.nan
        assert np.isnan(support_product(A, z)).all()

    def test_negative_zeros_are_off_support(self):
        # counted as nonzeros, the 4,991 entries of -0.0 would fail the
        # density gate and force the full product
        A = spy((40, 5000), 9)
        z = sparse_vector(5000, 9, 10)
        z[z == 0] = -0.0
        got = support_product(A, z)
        assert A.gathered
        assert_close(np.asarray(got), np.asarray(A) @ z)

    def test_size_gate_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(codec_module, "SUPPORT_MIN_ENTRIES", np.iinfo(np.int64).max)
        A = spy((40, 5000), 11)
        z = sparse_vector(5000, 9, 12)
        got = support_product(A, z)
        assert not A.gathered
        np.testing.assert_array_equal(np.asarray(got), np.asarray(A) @ z)

    def test_wide_worker_matches_rows_product(self):
        # the bigf layout: each worker (n = 40) stores 38-39 coded rows of 5,000
        cfg = Configuration(L=4, n=40, k=(0, 0, 10, 140))
        A = random_source(cfg, 5000, 13)
        workers = encode_all(A, cfg)
        assert [w.rows.shape for w in workers] == [(39, 5000)] * 2 + [(38, 5000)] * 2
        z = sparse_vector(5000, 9, 14)
        results = []
        for w in workers:
            rows = w.rows.view(GatherSpy)
            rows.gathered = False
            res = worker_multiply(WorkerMatrix(w.worker_id, rows, w.layout), z)
            assert rows.gathered
            assert_close(np.asarray(res.y), w.rows @ z)
            results.append(res)
        decoded = decode_prefix(results)
        for a, b in level_bounds(cfg):
            if b > a:
                assert_close(decoded[a:b], A[a:b] @ z, rtol=1e-10)


class TestDecode:
    # The (L, L/2) code of k_(L/2) = L, decoded from L/2 responders: every set
    # for L <= 10, 400 sampled sets and the parity-only set beyond.  Over seeds
    # 0-3 the worst relative error grows with the generator's conditioning,
    # from about 5e-15 at L = 4 to 2e-6 at L = 16; from L = 14 on it already
    # exceeds the benchmark's 1e-8 matvec gate (solver.matvec_rel_err_max).
    @pytest.mark.parametrize("L,bound", [(4, 1e-13), (6, 1e-12), (8, 1e-11),
                                         (10, 1e-9), (12, 3e-8), (16, 3e-5)])
    def test_decode_error_bound_against_L(self, L, bound):
        cfg = Configuration(L=L, n=4, k=tuple(L if i == L // 2 else 0
                                              for i in range(1, L + 1)))
        rng = np.random.default_rng(0)
        A = rng.standard_normal((L, 30))
        z = rng.standard_normal(30)
        results = [worker_multiply(w, z) for w in encode_all(A, cfg)]
        if L <= 10:
            subsets = list(combinations(range(L), L // 2))
        else:
            subsets = [rng.choice(L, L // 2, replace=False) for _ in range(400)]
            subsets.append(range(L // 2, L))  # workers L/2+1..L hold parity rows only
        truth = A @ z
        worst = max(np.abs(decode_prefix([results[i] for i in S]) - truth).max()
                    for S in subsets) / np.abs(truth).max()
        assert worst <= bound

    def test_reference_example_pair_recovers_level_two(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        A = random_source(cfg, 7, 0)
        workers = encode_all(A, cfg)
        z = np.random.default_rng(9).standard_normal(7)
        results = [worker_multiply(w, z) for w in workers]
        decoded = decode_prefix([results[2], results[3]])
        assert decoded.shape == (3,)  # level 1 is empty, level 2 is rows 0..2
        np.testing.assert_allclose(decoded, A[:3] @ z, atol=1e-10)

    def test_reference_example_full_set(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        A = random_source(cfg, 7, 0)
        workers = encode_all(A, cfg)
        z = np.random.default_rng(11).standard_normal(7)
        decoded = decode_prefix([worker_multiply(w, z) for w in workers])
        for a, b in level_bounds(cfg)[1:]:
            np.testing.assert_allclose(decoded[a:b], A[a:b] @ z, atol=1e-9)

    def test_all_subsets_reference_example(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        assert roundtrip_max_error(cfg, m=7, seed=0) < 1e-9

    @pytest.mark.parametrize(
        "k",
        [
            (1,),
            (2, 3),
            (0, 4, 2),
            (2, 3, 5, 7),
            (1, 2, 3, 4, 5),
            (8, 8, 8, 8, 8),
            (4, 0, 0, 8, 0, 12, 0, 16),
        ],
    )
    def test_roundtrip_various_configs(self, k):
        L = len(k)
        total = sum(row_count_s(i, k_i, L) for i, k_i in enumerate(k, 1))
        n = max(1, -(-total // L))
        cfg = Configuration(L=L, n=n, k=k)
        assert roundtrip_max_error(cfg, m=10, seed=L) <= 1e-8

    @pytest.mark.parametrize(
        "cfg",
        [
            Configuration(L=4, n=3, k=(0, 3, 3, 1)),
            Configuration(L=5, n=5, k=(1, 2, 3, 4, 5)),
        ],
    )
    def test_matches_reference_decoder(self, cfg):
        workers = encode_all(random_source(cfg, 6, 5), cfg)
        z = np.random.default_rng(8).standard_normal(6)
        results = [worker_multiply(w, z) for w in workers]
        for ell in range(1, cfg.L + 1):
            for subset in combinations(range(cfg.L), ell):
                picked = [results[i] for i in subset]
                np.testing.assert_allclose(
                    decode_prefix(picked), np.concatenate(pool_decode(picked, cfg)),
                    rtol=1e-12, atol=1e-12,
                )

    def test_subset_independence(self):
        cfg = Configuration(L=4, n=5, k=(1, 3, 4, 2))
        workers = encode_all(random_source(cfg, 8, 7), cfg)
        z = np.random.default_rng(13).standard_normal(8)
        results = [worker_multiply(w, z) for w in workers]
        outs = []
        for subset in combinations(range(4), 2):
            outs.append(decode_prefix([results[i] for i in subset]))
        for other in outs[1:]:
            np.testing.assert_allclose(outs[0], other, rtol=1e-8, atol=1e-10)

    def test_linearity(self):
        cfg = Configuration(L=3, n=3, k=(1, 2, 2))
        workers = encode_all(random_source(cfg, 6, 21), cfg)
        rng = np.random.default_rng(22)
        z1, z2 = rng.standard_normal(6), rng.standard_normal(6)
        alpha = 1.7
        subset = [workers[0], workers[2]]
        dec_comb = decode_prefix([worker_multiply(w, alpha * z1 + z2) for w in subset])
        dec1 = decode_prefix([worker_multiply(w, z1) for w in subset])
        dec2 = decode_prefix([worker_multiply(w, z2) for w in subset])
        np.testing.assert_allclose(dec_comb, alpha * dec1 + dec2, rtol=1e-9, atol=1e-10)

    def test_full_response_uses_systematic_rows_verbatim(self):
        # divisible config: every block's systematic rows live in the first
        # workers, so decoding with all workers copies their outputs exactly
        cfg = Configuration(L=4, n=2, k=(0, 2, 0, 4))
        workers = encode_all(random_source(cfg, 5, 4), cfg)
        z = np.random.default_rng(6).standard_normal(5)
        results = [worker_multiply(w, z) for w in workers]
        decoded = decode_prefix(results)
        sys_rows = {}
        for res, tags in zip(results, row_tags(cfg)):
            for value, tag in zip(res.y, tags):
                if tag.systematic:
                    sys_rows[(tag.level, tag.block, tag.row)] = value
        np.testing.assert_array_equal(
            decoded[:2], np.array([sys_rows[(2, 0, 0)], sys_rows[(2, 0, 1)]])
        )

    def test_no_results_rejected(self):
        with pytest.raises(ValueError, match="need at least one worker result"):
            decode_prefix([])

    def test_more_results_than_workers_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        results = [worker_multiply(w, np.zeros(3)) for w in workers]
        with pytest.raises(ValueError, match="got 3 results for a cluster of 2 workers"):
            decode_prefix(results + results[:1])

    def test_duplicate_workers_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        res = worker_multiply(workers[0], np.zeros(3))
        with pytest.raises(ValueError):
            decode_prefix([res, res])

    def test_unknown_worker_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        res = worker_multiply(workers[1], np.zeros(3))
        with pytest.raises(ValueError):
            decode_prefix([type(res)(worker_id=3, y=res.y, layout=res.layout)])

    @pytest.mark.parametrize("bad", [0, 5])
    def test_worker_id_out_of_range_rejected(self, bad):
        # ids 0 and L+1, next to valid results on either side
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 1), cfg)
        results = [worker_multiply(w, np.ones(7)) for w in workers]
        forged = type(results[0])(worker_id=bad, y=results[0].y, layout=results[0].layout)
        with pytest.raises(ValueError, match="worker ids must lie in 1..4"):
            decode_prefix([results[1], forged, results[2]])

    def test_result_order_does_not_matter(self):
        cfg = Configuration(L=4, n=5, k=(1, 3, 4, 2))
        workers = encode_all(random_source(cfg, 8, 3), cfg)
        z = np.random.default_rng(4).standard_normal(8)
        results = [worker_multiply(w, z) for w in workers]
        for ell in (2, 3, 4):
            for subset in combinations(results, ell):
                want = decode_prefix(list(subset))
                for order in permutations(subset):
                    assert decode_prefix(list(order)).tobytes() == want.tobytes()

    def test_insufficient_rows_detected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        z = np.random.default_rng(2).standard_normal(3)
        res = worker_multiply(workers[0], z)
        # strip the level-1 row to fake an encoder bug
        keep = [i for i, t in enumerate(row_tags(cfg)[0]) if t.level != 1]
        broken = type(res)(worker_id=res.worker_id, y=res.y[keep], layout=res.layout)
        with pytest.raises(InsufficientResults):
            decode_prefix([broken])

    def test_result_of_another_configuration_detected(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        other = Configuration(L=4, n=3, k=(0, 4, 0, 4))
        # same row count on every worker, so only the provenance differs
        assert make_layout(cfg).starts == make_layout(other).starts
        z = np.random.default_rng(2).standard_normal(7)
        A = random_source(other, 7, 1)
        mine = [worker_multiply(w, z) for w in encode_all(random_source(cfg, 7, 1), cfg)]
        foreign = [worker_multiply(w, z) for w in encode_all(A, other)]
        for ell in range(2, cfg.L + 1):
            for first, rest in ((mine, foreign), (foreign, mine)):
                with pytest.raises(InsufficientResults):
                    decode_prefix([first[0], *rest[1:ell]])
            # one layout's results decode under that layout
            h = make_layout(other).offsets[ell]
            np.testing.assert_allclose(decode_prefix(foreign[:ell]), A[:h] @ z,
                                       rtol=1e-10, atol=1e-10)


def refusal_case(case):
    """Results of L = 4 workers holding one defect, listed with ascending ids,
    the error decode_prefix must raise and its message."""
    cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
    z = np.random.default_rng(2).standard_normal(7)
    good = [worker_multiply(w, z) for w in encode_all(random_source(cfg, 7, 1), cfg)]
    forge = type(good[0])
    if case == "duplicate":
        return [good[0], good[1], good[1], good[3]], ValueError, "distinct workers"
    if case in ("id-0", "id-5"):
        bad = forge(worker_id=int(case[-1]), y=good[0].y, layout=good[0].layout)
        results = [bad, *good[1:3]] if case == "id-0" else [*good[1:3], bad]
        return results, ValueError, "worker ids must lie in 1..4"
    if case == "mixed-layouts":
        # same row count on every worker, so only the provenance differs
        other = Configuration(L=4, n=3, k=(0, 4, 0, 4))
        foreign = [worker_multiply(w, z) for w in encode_all(random_source(other, 7, 1), other)]
        # the first result listed sets the layout, so either worker can be named
        return ([good[0], foreign[1], good[2]], InsufficientResults,
                "does not hold the coded rows the layout places there")
    short = forge(worker_id=3, y=good[2].y[:-1], layout=good[2].layout)
    return [good[0], good[1], short], InsufficientResults, "worker 3:"


class TestDecodeRefusalsInAnyOrder:
    """decode_prefix skips its sort when the ids come ascending, as
    simulate_wait gives them; every check must still run on that path."""

    @pytest.mark.parametrize("order", ["ascending", "shuffled"])
    @pytest.mark.parametrize(
        "case", ["duplicate", "id-0", "id-5", "mixed-layouts", "wrong-rows"])
    def test_refused(self, case, order):
        results, error, message = refusal_case(case)
        if order == "shuffled":
            results = results[1:] + results[:1]  # rotated, so not ascending
            ids = [r.worker_id for r in results]
            assert ids != sorted(ids)
        with pytest.raises(error, match=message):
            decode_prefix(results)

    def test_ascending_and_shuffled_results_decode_alike(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        layout = make_layout(cfg)
        z = np.random.default_rng(2).standard_normal(7)
        results = [worker_multiply(w, z) for w in encode_all(random_source(cfg, 7, 1), cfg)]
        chosen = [results[0], results[2], results[3]]
        Layout.decoder.cache_clear()
        want = decode_prefix(chosen)
        for order in permutations(chosen):
            assert decode_prefix(order).tobytes() == want.tobytes()
        # one key, in ascending order: all six orders hit the first decode's entry
        info = Layout.decoder.cache_info()
        assert (info.hits, info.misses, info.currsize) == (6, 1, 1)
        layout.decoder((1, 3, 4))
        assert Layout.decoder.cache_info().hits == 7


class TestDump:
    def test_rows_cover_budget_and_parse(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 0), cfg)
        records = list(dump_rows(cfg))
        total = sum(row_count_s(i, k, cfg.L) for i, k in enumerate(cfg.k, 1))
        assert len(records) == total
        for *_, coefficients in records:
            coeffs = [float(v) for v in coefficients.split()]
            assert coeffs  # at least one coefficient per coded row

    def test_reference_example_rows_in_storage_order(self):
        # worker_id, level, block, row, systematic of the README example
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        assert [rec[:5] for rec in dump_rows(cfg)] == [
            (1, 2, 0, 0, 1), (1, 2, 1, 0, 1), (1, 3, 0, 0, 1),
            (2, 2, 0, 1, 1), (2, 2, 1, 1, 0), (2, 3, 0, 1, 1),
            (3, 2, 0, 2, 0), (3, 2, 1, 2, 0), (3, 3, 0, 2, 1),
            (4, 2, 0, 3, 0), (4, 3, 0, 3, 0), (4, 4, 0, 0, 1),
        ]

    def test_coefficients_are_the_generator_rows(self):
        cfg = Configuration(L=5, n=5, k=(1, 2, 3, 4, 5))
        layout = make_layout(cfg)
        for _, level, block, row, _, coefficients in dump_rows(cfg):
            blk = layout.levels[level - 1][block]
            coeffs = [float(v) for v in coefficients.split()]
            assert coeffs == list(blk.generator[row])
