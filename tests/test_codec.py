from itertools import combinations

import numpy as np
import pytest

import codedseq.codec as codec_module
from codedseq.codec import (
    InfeasibleConfiguration,
    InsufficientResults,
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
    h = (0, *cfg.cumulative_ranks())
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
            decoded = decode_prefix([results[i] for i in subset], cfg)
            assert decoded.shape == (cfg.cumulative_ranks()[ell - 1],)
            for a, b in level_bounds(cfg)[:ell]:
                block, truth = decoded[a:b], A[a:b] @ z
                if truth.size:
                    err = np.abs(block - truth).max() / max(1.0, np.abs(truth).max())
                    worst = max(worst, float(err))
    return worst


def pool_decode(results, cfg):
    """Reference decoder: pools rows per block from the tags and LU-solves
    each block on its lowest-indexed received rows."""
    pool = {}
    for res in results:
        for value, tag in zip(res.y, res.tags):
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
            pieces.append(np.linalg.solve(gen.coefficients[list(idx)], np.array(y)))
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
                        tag = layout.tags[w][slot]
                        assert (tag.level, tag.block, tag.row) == (level, b.index, r)
            assert all(len(tags) <= cfg.n for tags in layout.tags)

    def test_decode_matrix_built_once_per_responder_set(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 0), cfg)
        layout = make_layout(cfg)
        layout.decoders.clear()
        z = np.random.default_rng(3).standard_normal(7)
        decode_prefix([worker_multiply(workers[i], z) for i in (3, 1)], cfg)
        first = layout.decoders[(2, 4)]
        decode_prefix([worker_multiply(workers[i], z) for i in (1, 3)], cfg)
        assert list(layout.decoders) == [(2, 4)]
        assert layout.decoders[(2, 4)] is first


class TestGenerator:
    def test_square_is_identity(self):
        gen = make_generator(2, 2)
        np.testing.assert_array_equal(gen.coefficients, np.eye(2))

    def test_repetition_like(self):
        gen = make_generator(1, 3)
        assert gen.coefficients[0, 0] == 1.0
        assert all(gen.coefficients[r, 0] != 0.0 for r in range(3))

    def test_all_square_submatrices_invertible(self):
        # independent re-check by direct determinants
        gen = make_generator(2, 4)
        for rows in combinations(range(4), 2):
            det = np.linalg.det(gen.coefficients[list(rows)])
            assert abs(det) > 1e-12

    def test_systematic_prefix(self):
        for rows_in, rows_out in [(1, 4), (2, 5), (3, 5), (4, 6)]:
            gen = make_generator(rows_in, rows_out)
            np.testing.assert_array_equal(
                gen.coefficients[:rows_in], np.eye(rows_in)
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
        assert [len(w.tags) for w in workers] == [3, 3, 3, 3]
        # full blocks of levels 2 and 3: exactly one coded row in every worker
        for level, block in [(2, 0), (3, 0)]:
            for w in workers:
                hits = [t for t in w.tags if (t.level, t.block) == (level, block)]
                assert len(hits) == 1
        # level-2 remainder: one row in each of exactly 3 distinct workers
        carriers = [
            w.worker_id
            for w in workers
            if sum(1 for t in w.tags if (t.level, t.block) == (2, 1)) == 1
        ]
        assert len(carriers) == 3
        # level-4 single row lives in exactly one worker (the least loaded)
        quads = [w.worker_id for w in workers if any(t.level == 4 for t in w.tags)]
        assert quads == [4]

    def test_capacity_and_total(self):
        cfg = Configuration(L=5, n=5, k=(1, 2, 3, 4, 5))
        budget = check_feasible(cfg)
        assert budget.feasible
        workers = encode_all(random_source(cfg, 6, 3), cfg)
        assert all(len(w.tags) <= cfg.n for w in workers)
        assert sum(len(w.tags) for w in workers) == budget.total

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


class TestWorkerMultiply:
    def test_zero_vector(self):
        cfg = Configuration(L=2, n=2, k=(1, 2))
        workers = encode_all(random_source(cfg, 5, 1), cfg)
        res = worker_multiply(workers[0], np.zeros(5))
        np.testing.assert_array_equal(res.y, np.zeros(len(workers[0].tags)))

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
            res = worker_multiply(WorkerMatrix(w.worker_id, rows, w.tags), z)
            assert rows.gathered
            assert_close(np.asarray(res.y), w.rows @ z)
            results.append(res)
        decoded = decode_prefix(results, cfg)
        for a, b in level_bounds(cfg):
            if b > a:
                assert_close(decoded[a:b], A[a:b] @ z, rtol=1e-10)


class TestDecode:
    def test_reference_example_pair_recovers_level_two(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        A = random_source(cfg, 7, 0)
        workers = encode_all(A, cfg)
        z = np.random.default_rng(9).standard_normal(7)
        results = [worker_multiply(w, z) for w in workers]
        decoded = decode_prefix([results[2], results[3]], cfg)
        assert decoded.shape == (3,)  # level 1 is empty, level 2 is rows 0..2
        np.testing.assert_allclose(decoded, A[:3] @ z, atol=1e-10)

    def test_reference_example_full_set(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        A = random_source(cfg, 7, 0)
        workers = encode_all(A, cfg)
        z = np.random.default_rng(11).standard_normal(7)
        decoded = decode_prefix([worker_multiply(w, z) for w in workers], cfg)
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
                    decode_prefix(picked, cfg), np.concatenate(pool_decode(picked, cfg)),
                    rtol=1e-12, atol=1e-12,
                )

    def test_subset_independence(self):
        cfg = Configuration(L=4, n=5, k=(1, 3, 4, 2))
        workers = encode_all(random_source(cfg, 8, 7), cfg)
        z = np.random.default_rng(13).standard_normal(8)
        results = [worker_multiply(w, z) for w in workers]
        outs = []
        for subset in combinations(range(4), 2):
            outs.append(decode_prefix([results[i] for i in subset], cfg))
        for other in outs[1:]:
            np.testing.assert_allclose(outs[0], other, rtol=1e-8, atol=1e-10)

    def test_linearity(self):
        cfg = Configuration(L=3, n=3, k=(1, 2, 2))
        workers = encode_all(random_source(cfg, 6, 21), cfg)
        rng = np.random.default_rng(22)
        z1, z2 = rng.standard_normal(6), rng.standard_normal(6)
        alpha = 1.7
        subset = [workers[0], workers[2]]
        dec_comb = decode_prefix(
            [worker_multiply(w, alpha * z1 + z2) for w in subset], cfg
        )
        dec1 = decode_prefix([worker_multiply(w, z1) for w in subset], cfg)
        dec2 = decode_prefix([worker_multiply(w, z2) for w in subset], cfg)
        np.testing.assert_allclose(dec_comb, alpha * dec1 + dec2, rtol=1e-9, atol=1e-10)

    def test_full_response_uses_systematic_rows_verbatim(self):
        # divisible config: every block's systematic rows live in the first
        # workers, so decoding with all workers copies their outputs exactly
        cfg = Configuration(L=4, n=2, k=(0, 2, 0, 4))
        workers = encode_all(random_source(cfg, 5, 4), cfg)
        z = np.random.default_rng(6).standard_normal(5)
        results = [worker_multiply(w, z) for w in workers]
        decoded = decode_prefix(results, cfg)
        sys_rows = {}
        for res in results:
            for value, tag in zip(res.y, res.tags):
                if tag.systematic:
                    sys_rows[(tag.level, tag.block, tag.row)] = value
        np.testing.assert_array_equal(
            decoded[:2], np.array([sys_rows[(2, 0, 0)], sys_rows[(2, 0, 1)]])
        )

    def test_duplicate_workers_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        res = worker_multiply(workers[0], np.zeros(3))
        with pytest.raises(ValueError):
            decode_prefix([res, res], cfg)

    def test_unknown_worker_rejected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        res = worker_multiply(workers[1], np.zeros(3))
        with pytest.raises(ValueError):
            decode_prefix([type(res)(worker_id=3, y=res.y, tags=res.tags)], cfg)

    def test_insufficient_rows_detected(self):
        cfg = Configuration(L=2, n=2, k=(1, 1))
        workers = encode_all(random_source(cfg, 3, 1), cfg)
        z = np.random.default_rng(2).standard_normal(3)
        res = worker_multiply(workers[0], z)
        # strip the level-1 row to fake an encoder bug
        keep = [i for i, t in enumerate(res.tags) if t.level != 1]
        broken = type(res)(
            worker_id=res.worker_id,
            y=res.y[keep],
            tags=tuple(res.tags[i] for i in keep),
        )
        with pytest.raises(InsufficientResults):
            decode_prefix([broken], cfg)


class TestDump:
    def test_rows_cover_budget_and_parse(self):
        cfg = Configuration(L=4, n=3, k=(0, 3, 3, 1))
        workers = encode_all(random_source(cfg, 7, 0), cfg)
        records = list(dump_rows(workers, cfg))
        total = sum(row_count_s(i, k, cfg.L) for i, k in enumerate(cfg.k, 1))
        assert len(records) == total
        for rec in records:
            coeffs = [float(v) for v in rec["coefficients"].split()]
            assert coeffs  # at least one coefficient per coded row
