// The tentpole seam: LinearOperator + SolverBackend with the factorization
// cache keyed by (operator, shift), and the sparse LU underneath it.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "circuits/nltl.hpp"
#include "circuits/power_grid.hpp"
#include "circuits/rf_receiver.hpp"
#include "la/lu.hpp"
#include "la/operator.hpp"
#include "la/schur.hpp"
#include "la/solver_backend.hpp"
#include "la/vector_ops.hpp"
#include "sparse/splu.hpp"
#include "test_helpers.hpp"

namespace atmor {
namespace {

using la::Complex;
using la::Matrix;
using la::Vec;
using la::ZVec;

Matrix random_sparse_stable(int n, double density, util::Rng& rng) {
    Matrix a(n, n);
    const int per_row = std::max(1, static_cast<int>(density * n));
    for (int i = 0; i < n; ++i) {
        for (int t = 0; t < per_row; ++t) a(i, rng.uniform_int(0, n - 1)) = rng.gaussian();
        a(i, i) -= 4.0 + per_row;  // diagonally dominant => stable, well conditioned
    }
    return a;
}

TEST(SparseLu, MatchesDenseLuOnRandomSparseMatrix) {
    util::Rng rng(42);
    const int n = 40;
    const Matrix a = random_sparse_stable(n, 0.1, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const Vec b = test::random_vector(n, rng);

    const Vec x_sparse = sparse::splu(s).solve(b);
    const Vec x_dense = la::solve(a, b);
    EXPECT_LT(la::dist2(x_sparse, x_dense), 1e-10);
}

TEST(SparseLu, ShiftedRealFactorisation) {
    util::Rng rng(43);
    const int n = 30;
    const Matrix a = random_sparse_stable(n, 0.15, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const Vec b = test::random_vector(n, rng);
    const double sigma = 0.7;

    // Reference: dense (sigma I - A) solve.
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += sigma;
    const Vec ref = la::solve(shifted, b);

    const Vec x = sparse::splu_shifted(s, sigma).solve(b);
    EXPECT_LT(la::dist2(x, ref), 1e-10);
}

TEST(SparseLu, ComplexShiftMatchesSchur) {
    util::Rng rng(44);
    const int n = 25;
    const Matrix a = test::random_stable_matrix(n, rng);
    const sparse::CsrMatrix s = sparse::CsrMatrix::from_dense(a);
    const ZVec b = test::random_zvector(n, rng);
    const Complex sigma(0.4, 1.3);

    const ZVec ref = la::ComplexSchur(a).solve_shifted(sigma, b);
    const ZVec x = sparse::splu_shifted(s, sigma).solve(b);
    EXPECT_LT(la::dist2(x, ref), 1e-9);
}

TEST(SparseLu, RequiresPivotingOnZeroDiagonal) {
    // [[0 1], [1 0]] has a structurally zero diagonal: natural-order LU
    // without pivoting would break down immediately.
    sparse::CooBuilder coo(2, 2);
    coo.add(0, 1, 1.0);
    coo.add(1, 0, 1.0);
    const sparse::CsrMatrix s(coo);
    const Vec x = sparse::splu(s).solve(Vec{3.0, 5.0});
    EXPECT_DOUBLE_EQ(x[0], 5.0);
    EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(SparseLu, SingularMatrixThrows) {
    sparse::CooBuilder coo(3, 3);
    coo.add(0, 0, 1.0);
    coo.add(1, 1, 1.0);  // column/row 2 empty => structurally singular
    const sparse::CsrMatrix s(coo);
    EXPECT_THROW(sparse::splu(s), util::InternalError);
}

TEST(SparseLu, BandedSystemHasNoFill) {
    // Tridiagonal: minimum degree eliminates from the ends of the path, so
    // LU stays tridiagonal (no fill-in) -- the structural bet the
    // sparse-first pipeline makes on MNA ladders.
    const int n = 200;
    sparse::CooBuilder coo(n, n);
    for (int i = 0; i < n; ++i) {
        coo.add(i, i, 4.0);
        if (i > 0) coo.add(i, i - 1, -1.0);
        if (i + 1 < n) coo.add(i, i + 1, -1.0);
    }
    const sparse::CsrMatrix s(coo);
    const sparse::SpLu lu = sparse::splu(s);
    EXPECT_LE(lu.factor_nnz(), 4 * n);  // L: diag + subdiag, U: diag + superdiag
    EXPECT_GT(lu.pivot_ratio(), 0.1);
}

/// Diagonally dominant matrix on a random pattern built to stress the
/// ordering: `components` disconnected blocks of random unsymmetric
/// couplings, every seventh node isolated (diagonal only), and one node
/// coupled to all others in both its row and its column.
sparse::CsrMatrix stress_pattern(int n, int components, int per_node, util::Rng& rng) {
    sparse::CooBuilder coo(n, n);
    const int dense_node = n > 2 ? rng.uniform_int(0, n - 1) : -1;
    for (int i = 0; i < n; ++i) coo.add(i, i, 2.0 * per_node + n + 1.0);
    auto isolated = [&](int v) { return v % 7 == 3 && v != dense_node; };
    for (int i = 0; i < n; ++i) {
        if (isolated(i)) continue;
        const int block = i % components;
        for (int t = 0; t < per_node; ++t) {
            const int j = block + components * rng.uniform_int(0, (n - 1 - block) / components);
            if (j != i && !isolated(j)) coo.add(i, j, rng.gaussian());
        }
    }
    if (dense_node >= 0)
        for (int j = 0; j < n; ++j)
            if (j != dense_node) {
                coo.add(dense_node, j, 1.0);
                coo.add(j, dense_node, -1.0);
            }
    return sparse::CsrMatrix(coo);
}

bool is_permutation_of_n(const std::vector<int>& q, int n) {
    if (static_cast<int>(q.size()) != n) return false;
    std::vector<int> sorted = q;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> iota(static_cast<std::size_t>(n));
    std::iota(iota.begin(), iota.end(), 0);
    return sorted == iota;
}

TEST(SparseLu, AmdOrderIsAPermutationOnRandomPatterns) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng rng(seed);
        for (int n : {1, 2, 3, 17, 64, 150, 300}) {
            // Sparse couplings, and dense enough ones (12 per node) that the
            // quotient graph outgrows its elbow room and is compacted.
            for (int per_node : {2, 12}) {
                const int components = std::max(1, std::min(n, 1 + static_cast<int>(seed)));
                const sparse::CsrMatrix a = stress_pattern(n, components, per_node, rng);
                const sparse::Csc<double> c = sparse::csc_of(a);
                const std::vector<int> q = sparse::amd_order(c);
                ASSERT_TRUE(is_permutation_of_n(q, n)) << "seed " << seed << " n " << n;
                EXPECT_EQ(q, sparse::amd_order(c)) << "the order must be deterministic";
                // The order plugs into the factorisation: solve and compare.
                const Vec b = test::random_vector(n, rng);
                const Vec x = sparse::splu(a).solve(b);
                EXPECT_LT(la::dist2(a.matvec(x), b), 1e-10 * (1.0 + la::norm2(b)))
                    << "seed " << seed << " n " << n;
            }
        }
    }
}

TEST(SparseLu, AmdOrderSurvivesQuotientGraphCompaction) {
    // A 6x6x6 seven-point stencil: its elements outgrow the quotient
    // graph's elbow room, so the ordering compacts its storage mid-run.
    const int m = 6;
    const int n = m * m * m;
    auto id = [m](int a, int b, int c) { return (a * m + b) * m + c; };
    sparse::CooBuilder coo(n, n);
    for (int a = 0; a < m; ++a)
        for (int b = 0; b < m; ++b)
            for (int c = 0; c < m; ++c) {
                const int i = id(a, b, c);
                coo.add(i, i, 7.0);
                for (int j : {a + 1 < m ? id(a + 1, b, c) : -1, b + 1 < m ? id(a, b + 1, c) : -1,
                              c + 1 < m ? id(a, b, c + 1) : -1})
                    if (j >= 0) {
                        coo.add(i, j, -1.0);
                        coo.add(j, i, -1.0);
                    }
            }
    const sparse::CsrMatrix a(coo);
    ASSERT_TRUE(is_permutation_of_n(sparse::amd_order(sparse::csc_of(a)), n));
    const sparse::SpLu lu = sparse::splu(a);
    // A band ordering holds ~m^2 entries per row in each factor (~2 n m^2).
    EXPECT_LT(lu.factor_nnz(), n * m * m);
    util::Rng rng(11);
    const Vec b = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(a.matvec(lu.solve(b)), b), 1e-12 * la::norm2(b));
}

TEST(SparseLu, AmdOrderEliminatesTheDenseRowLast) {
    // An arrow matrix: the hub touches every node, every other node only the
    // hub. Any order that eliminates the hub early fills the whole matrix.
    const int n = 120;
    sparse::CooBuilder coo(n, n);
    const int hub = 37;
    for (int i = 0; i < n; ++i) {
        coo.add(i, i, 4.0);
        if (i != hub) {
            coo.add(i, hub, 1.0);
            coo.add(hub, i, 1.0);
        }
    }
    const sparse::CsrMatrix a(coo);
    const std::vector<int> q = sparse::amd_order(sparse::csc_of(a));
    ASSERT_TRUE(is_permutation_of_n(q, n));
    EXPECT_EQ(q.back(), hub);
    EXPECT_LE(sparse::splu(a).factor_nnz(), 4 * n);  // L: 2 per column, U: diag + hub column
}

TEST(SparseLu, PowerGridMeshFillsLessThanHalfTheBandOrdering) {
    // The 72x72 mesh with 8 clamps (n = 5192): a 2-D stencil, where a band
    // ordering holds ~72 columns of fill per row (514,700 nonzeros in L + U)
    // and minimum degree about a third of that.
    circuits::PowerGridOptions opt;
    opt.rows = 72;
    opt.cols = 72;
    opt.clamps = 8;
    opt.pitch_resistance = 0.02;
    opt.decap = 0.2;
    opt.load_conductance = 0.02;
    const volterra::Qldae q = circuits::power_grid(opt).to_qldae();
    ASSERT_EQ(q.order(), 5192);
    const sparse::CsrMatrix& g1 = *q.g1_csr();
    const Complex sigma(0.0, 0.7);
    const sparse::ZSpLu lu = sparse::splu_shifted(g1, sigma);
    EXPECT_LE(lu.factor_nnz(), 260000);

    util::Rng rng(7);
    const ZVec b = test::random_zvector(q.order(), rng);
    const ZVec x = lu.solve(b);
    ZVec r = g1.matvec(x);
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = sigma * x[i] - r[i] - b[i];
    EXPECT_LE(la::norm2(r) / la::norm2(b), 1e-12);
}

TEST(SparseLu, LadderFillStaysNearTheBandOrdering) {
    // MNA ladders factor fill-free under a band ordering (547 nonzeros in
    // L + U for the current-source NLTL-35, 770 for the RF receiver); the
    // minimum-degree order must not give that away.
    circuits::NltlOptions nltl;
    nltl.stages = 35;
    const volterra::Qldae line = circuits::current_source_line(nltl).to_qldae();
    ASSERT_TRUE(line.is_sparse());
    EXPECT_LE(sparse::splu_shifted(*line.g1_csr(), 1.0).factor_nnz(), 547 * 5 / 4);

    const volterra::Qldae rf = circuits::rf_receiver();
    ASSERT_TRUE(rf.is_sparse());
    EXPECT_LE(sparse::splu_shifted(*rf.g1_csr(), 1.0).factor_nnz(), 770 * 5 / 4);
}

TEST(Operator, DenseAndSparseAgree) {
    util::Rng rng(45);
    const Matrix a = random_sparse_stable(12, 0.2, rng);
    const la::DenseOperator dop{a};
    const la::SparseOperator sop{sparse::CsrMatrix::from_dense(a)};
    const Vec x = test::random_vector(12, rng);
    EXPECT_LT(la::dist2(dop.apply(x), sop.apply(x)), 1e-13);
    EXPECT_TRUE(sop.is_sparse());
    EXPECT_FALSE(dop.is_sparse());
    EXPECT_NE(dop.id(), sop.id());
}

TEST(Operator, ShiftedViewAppliesResolventLhs) {
    util::Rng rng(46);
    const Matrix a = test::random_stable_matrix(8, rng);
    auto base = la::make_dense_operator(a);
    const Complex s(0.5, 0.25);
    const la::ShiftedOperator shifted(base, s);
    const ZVec x = test::random_zvector(8, rng);
    ZVec ref = la::matvec_rc(a, x);
    for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = s * x[i] - ref[i];
    EXPECT_LT(la::dist2(shifted.apply(x), ref), 1e-13);
}

class BackendCase : public ::testing::TestWithParam<int> {};

std::shared_ptr<la::SolverBackend> make_backend(int which) {
    switch (which) {
        case 0: return std::make_shared<la::DenseLuBackend>();
        case 1: return std::make_shared<la::SparseLuBackend>();
        default: return std::make_shared<la::SchurBackend>();
    }
}

TEST_P(BackendCase, ShiftedSolveMatchesOneShotDense) {
    util::Rng rng(47);
    const int n = 20;
    const Matrix a = test::random_stable_matrix(n, rng);
    auto sp = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    auto backend = make_backend(GetParam());
    const Complex sigma(0.3, 0.9);
    const ZVec b = test::random_zvector(n, rng);

    const ZVec x = backend->solve_shifted(*sp, sigma, b);
    const ZVec ref = la::ComplexSchur(a).solve_shifted(sigma, b);
    EXPECT_LT(la::dist2(x, ref), 1e-9);

    // Real-shift real solve agrees with dense one-shot la::solve.
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += 2.0;
    const Vec rb = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(backend->solve_shifted(*sp, 2.0, rb), la::solve(shifted, rb)), 1e-9);

    // Plain solve A x = b.
    EXPECT_LT(la::dist2(backend->solve(*sp, rb), la::solve(a, rb)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendCase, ::testing::Values(0, 1, 2));

TEST(SolverCache, HitAndMissSemantics) {
    util::Rng rng(48);
    const int n = 15;
    auto op1 = la::make_dense_operator(test::random_stable_matrix(n, rng));
    auto op2 = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend;
    const ZVec b = test::random_zvector(n, rng);
    const Complex s1(1.0, 0.0), s2(2.0, 0.5);

    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 0);

    // Same (operator, shift): cache hit, no new factorisation.
    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 1);

    // New shift on the same operator: miss.
    (void)backend.solve_shifted(*op1, s2, b);
    EXPECT_EQ(backend.stats().factorizations, 2);

    // Different operator, same shift: miss.
    (void)backend.solve_shifted(*op2, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 3);

    // All three cached entries replay as hits.
    (void)backend.solve_shifted(*op1, s2, b);
    (void)backend.solve_shifted(*op2, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 3);
    EXPECT_EQ(backend.stats().cache_hits, 3);
    EXPECT_EQ(backend.stats().solves, 6);

    backend.clear_cache();
    (void)backend.solve_shifted(*op1, s1, b);
    EXPECT_EQ(backend.stats().factorizations, 4);
}

TEST(SolverCache, EvictionIsFifoAndHandlesStayValid) {
    util::Rng rng(49);
    const int n = 10;
    auto op = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend(2);  // tiny cache
    const ZVec b = test::random_zvector(n, rng);

    auto f1 = backend.factorization(*op, Complex(1.0, 0.0));
    (void)backend.factorization(*op, Complex(2.0, 0.0));
    EXPECT_EQ(backend.cached_count(), 2u);
    (void)backend.factorization(*op, Complex(3.0, 0.0));  // evicts shift 1
    EXPECT_EQ(backend.cached_count(), 2u);

    // Shift 1 was evicted => re-factoring it is a miss...
    const long before = backend.stats().factorizations;
    (void)backend.factorization(*op, Complex(1.0, 0.0));
    EXPECT_EQ(backend.stats().factorizations, before + 1);
    // ...but the handle we kept still solves correctly.
    const ZVec x = f1->solve(b);
    const ZVec ref = backend.solve_shifted(*op, Complex(1.0, 0.0), b);
    EXPECT_LT(la::dist2(x, ref), 1e-12);
}

TEST(SolverCache, CorrectnessAgainstOneShotSolveAfterManyReplays) {
    // Factor once, solve many: every replayed solve must equal the one-shot
    // la::solve answer, or the cache is silently corrupting the pipeline.
    util::Rng rng(50);
    const int n = 18;
    const Matrix a = random_sparse_stable(n, 0.2, rng);
    auto op = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    la::SparseLuBackend backend;
    Matrix shifted = a;
    shifted *= -1.0;
    for (int i = 0; i < n; ++i) shifted(i, i) += 1.5;

    for (int t = 0; t < 20; ++t) {
        const Vec b = test::random_vector(n, rng);
        EXPECT_LT(la::dist2(backend.solve_shifted(*op, 1.5, b), la::solve(shifted, b)), 1e-9);
    }
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.stats().cache_hits, 19);
}

TEST(SolverCache, FactorizeBypassesCache) {
    // Throwaway operators (per-refactor Newton Jacobians) must not occupy
    // cache slots their never-recurring ids can't hit again.
    util::Rng rng(52);
    const int n = 8;
    auto op = la::make_dense_operator(test::random_stable_matrix(n, rng));
    la::DenseLuBackend backend;
    auto f = backend.factorize(*op, Complex(1.0, 0.0));
    EXPECT_EQ(backend.stats().factorizations, 1);
    EXPECT_EQ(backend.cached_count(), 0u);
    const Vec b = test::random_vector(n, rng);
    EXPECT_LT(la::dist2(f->solve(b), backend.solve_shifted(*op, 1.0, b)), 1e-12);
}

TEST(Factorization, PivotRatioFlagsNearSingularShift) {
    // A = diag(1, 2): shift 1 + 1e-14 is numerically on top of an eigenvalue.
    la::Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 1) = 2.0;
    auto op = la::make_sparse_operator(sparse::CsrMatrix::from_dense(a));
    la::SparseLuBackend sparse_backend;
    EXPECT_LT(sparse_backend.factorization(*op, Complex(1.0 + 1e-14, 0.0))->pivot_ratio(),
              1e-12);
    EXPECT_GT(sparse_backend.factorization(*op, Complex(3.0, 0.0))->pivot_ratio(), 1e-3);
    la::SchurBackend schur_backend;
    EXPECT_LT(schur_backend.factorization(*op, Complex(1.0 + 1e-14, 0.0))->pivot_ratio(),
              1e-12);
}

TEST(SchurBackend, OneSchurManyShifts) {
    util::Rng rng(51);
    const int n = 16;
    const Matrix a = test::random_stable_matrix(n, rng);
    auto op = la::make_dense_operator(a);
    la::SchurBackend backend;
    const ZVec b = test::random_zvector(n, rng);
    for (int k = 1; k <= 5; ++k)
        (void)backend.solve_shifted(*op, Complex(0.1 * k, 0.2 * k), b);
    EXPECT_EQ(backend.schur_count(), 1);  // one O(n^3) factorisation total
}

}  // namespace
}  // namespace atmor
