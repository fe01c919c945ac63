#include "volterra/associated.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>

#include "la/sylvester.hpp"
#include "la/vector_ops.hpp"
#include "tensor/kronecker.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace atmor::volterra {

using la::Complex;
using la::ZMatrix;
using la::ZVec;

namespace {

/// Assignment (a | {b, c}) of inputs to the H1 (x) H2 factor structure of H3,
/// deduplicated over the unordered pair {b, c} with multiplicity weights.
struct Assignment {
    int a;
    int b;
    int c;  // b <= c
    double weight;
};

std::vector<Assignment> dedup_assignments(int i, int j, int k) {
    std::map<std::tuple<int, int, int>, double> acc;
    const std::array<std::array<int, 3>, 3> raw = {{{i, j, k}, {j, i, k}, {k, i, j}}};
    for (const auto& r : raw) {
        const int b = std::min(r[1], r[2]);
        const int c = std::max(r[1], r[2]);
        acc[{r[0], b, c}] += 1.0;
    }
    std::vector<Assignment> out;
    out.reserve(acc.size());
    for (const auto& [key, w] : acc)
        out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), w});
    return out;
}

/// All 6 permutations of a triple.
std::array<std::array<int, 3>, 6> permutations3(int i, int j, int k) {
    return {{{i, j, k}, {i, k, j}, {j, i, k}, {j, k, i}, {k, i, j}, {k, j, i}}};
}

/// G2's coupling of an n^3 block W held in Schur coordinates (slice c = W_c,
/// column-major n x n), evaluated only at G2's stored entries (row, i, j):
/// row c of the result is F(:, c), F(row, c) = sum v Z(j,:) W_c Z(i,:)^T.
/// Per slice: one product of W_c with Z's rows at G2's distinct i, then a
/// dot per entry -- n^3 * #distinct(i) + n^2 * nnz in all. Slices are
/// independent, so they fan out over the pool (same answer at any width).
ZMatrix g2_coupling(const sparse::SparseTensor3& g2, const ZMatrix& z, const ZVec& w) {
    const int n = z.rows();
    const auto nz = static_cast<std::size_t>(n);
    std::vector<int> slot(nz, -1), rows_i;
    for (const auto& e : g2.entries())
        if (slot[static_cast<std::size_t>(e.i)] < 0) {
            slot[static_cast<std::size_t>(e.i)] = static_cast<int>(rows_i.size());
            rows_i.push_back(e.i);
        }
    ZMatrix ft(n, n);
    util::ThreadPool::global().parallel_for(0, n, [&](long c) {
        const Complex* wc = w.data() + static_cast<std::size_t>(c) * nz * nz;
        ZVec q(rows_i.size() * nz);  // column s: W_c Z(rows_i[s], :)^T
        for (std::size_t s = 0; s < rows_i.size(); ++s) {
            const Complex* zi = z.row_ptr(rows_i[s]);
            for (std::size_t b = 0; b < nz; ++b)
                la::simd::zaxpy(zi[b], wc + b * nz, q.data() + s * nz, nz);
        }
        Complex* f = ft.row_ptr(static_cast<int>(c));
        for (const auto& e : g2.entries()) {
            const auto s = static_cast<std::size_t>(slot[static_cast<std::size_t>(e.i)]);
            f[e.row] += e.value * la::dotu(z.row_ptr(e.j), q.data() + s * nz, nz);
        }
    });
    return ft;
}

/// G3 (Z (x) Z (x) Z) w for an n^3 block w in Schur coordinates, evaluated
/// only at G3's stored entries (row, i, j, k): per distinct i one slice
/// contraction with Z(i,:), per distinct (i, j) one column contraction with
/// Z(j,:), then a dot with Z(k,:) per entry. The i-groups fan out over the
/// pool; their partial sums are added in group order.
ZVec g3_at_entries(const sparse::SparseTensor4& g3, const ZMatrix& z, const ZVec& w) {
    const auto nz = static_cast<std::size_t>(z.rows());
    const auto& es = g3.entries();
    std::vector<std::size_t> order(es.size());
    for (std::size_t e = 0; e < es.size(); ++e) order[e] = e;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return std::tie(es[x].i, es[x].j) < std::tie(es[y].i, es[y].j);
    });
    std::vector<std::size_t> starts;
    for (std::size_t p = 0; p < order.size(); ++p)
        if (p == 0 || es[order[p]].i != es[order[p - 1]].i) starts.push_back(p);
    starts.push_back(order.size());

    std::vector<ZVec> part(starts.size() - 1, ZVec(nz));
    util::ThreadPool::global().parallel_for(0, static_cast<long>(part.size()), [&](long g) {
        const auto lo = starts[static_cast<std::size_t>(g)];
        const auto hi = starts[static_cast<std::size_t>(g) + 1];
        const Complex* zi = z.row_ptr(es[order[lo]].i);
        ZVec slab(nz * nz), q(nz);
        for (std::size_t c = 0; c < nz; ++c)
            la::simd::zaxpy(zi[c], w.data() + c * nz * nz, slab.data(), nz * nz);
        for (std::size_t p = lo; p < hi; ++p) {
            const auto& e = es[order[p]];
            if (p == lo || e.j != es[order[p - 1]].j) {
                std::fill(q.begin(), q.end(), Complex(0));
                const Complex* zj = z.row_ptr(e.j);
                for (std::size_t b = 0; b < nz; ++b)
                    la::simd::zaxpy(zj[b], slab.data() + b * nz, q.data(), nz);
            }
            part[static_cast<std::size_t>(g)][static_cast<std::size_t>(e.row)] +=
                e.value * la::dotu(z.row_ptr(e.k), q.data(), nz);
        }
    });
    ZVec out(nz);
    for (const ZVec& pg : part) la::axpy(Complex(1), pg, out);
    return out;
}

}  // namespace

AssociatedTransform::AssociatedTransform(Qldae sys, std::shared_ptr<la::SolverBackend> backend)
    : sys_(std::move(sys)), backend_(std::move(backend)) {
    if (!backend_) backend_ = la::make_resolvent_backend(sys_.g1_op());
}

void AssociatedTransform::ensure_schur() const {
    std::lock_guard<std::mutex> lock(lazy_mutex_);
    if (schur_) return;
    // Reuse the backend's factors when it is Schur-based (dense default), so
    // the O(n^3) decomposition happens exactly once per system.
    if (auto* sb = dynamic_cast<la::SchurBackend*>(backend_.get()))
        schur_ = sb->schur_for(sys_.g1_op());
    else
        schur_ = std::make_shared<const la::ComplexSchur>(sys_.g1());
    ks2_ = std::make_shared<tensor::KronSum2Solver>(schur_);
}

const std::shared_ptr<const la::ComplexSchur>& AssociatedTransform::schur_g1() const {
    ensure_schur();
    return schur_;
}

const std::shared_ptr<tensor::KronSum2Solver>& AssociatedTransform::kron_sum2() const {
    ensure_schur();
    return ks2_;
}

la::ZVec AssociatedTransform::resolvent(Complex s, const ZVec& rhs) const {
    return backend_->solve_shifted(sys_.g1_op(), s, rhs);
}

ZVec AssociatedTransform::sym_lift(int i, int j) const {
    const la::Vec bi = sys_.b_col(i);
    const la::Vec bj = sys_.b_col(j);
    la::Vec w = tensor::kron(bi, bj);
    la::axpy(1.0, tensor::kron(bj, bi), w);
    la::scale(0.5, w);
    return la::complexify(w);
}

ZVec AssociatedTransform::d0(int i, int j) const {
    ZVec v(static_cast<std::size_t>(sys_.order()), Complex(0));
    if (!sys_.has_bilinear()) return v;
    la::Vec w = sys_.apply_d1(i, sys_.b_col(j));
    la::axpy(1.0, sys_.apply_d1(j, sys_.b_col(i)), w);
    la::scale(0.5, w);
    return la::complexify(w);
}

ZVec AssociatedTransform::btilde2(int i, int j) const {
    const ZVec head = d0(i, j);
    const ZVec tail = sym_lift(i, j);
    ZVec out;
    out.reserve(head.size() + tail.size());
    out.insert(out.end(), head.begin(), head.end());
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

// ---------------------------------------------------------------------------
// Pointwise evaluation
// ---------------------------------------------------------------------------

ZMatrix AssociatedTransform::h1(Complex s) const {
    const int n = sys_.order(), m = sys_.inputs();
    // All m input columns in one blocked solve (single factor pass).
    ZMatrix b(n, m);
    for (int i = 0; i < m; ++i) b.set_col(i, la::complexify(sys_.b_col(i)));
    return backend_->solve_shifted(sys_.g1_op(), s, b);
}

ZMatrix AssociatedTransform::a2h2(Complex s) const {
    const int n = sys_.order(), m = sys_.inputs();
    ZMatrix out(n, m * m);
    if (!sys_.has_quadratic() && !sys_.has_bilinear()) return out;
    for (int i = 0; i < m; ++i) {
        for (int j = i; j < m; ++j) {
            ZVec g = d0(i, j);
            if (sys_.has_quadratic()) {
                const ZVec w = kron_sum2()->solve(s, sym_lift(i, j));
                la::axpy(Complex(1), sys_.g2().apply_lifted(w), g);
            }
            const ZVec col = resolvent(s, g);
            out.set_col(i * m + j, col);
            if (i != j) out.set_col(j * m + i, col);
        }
    }
    return out;
}

ZMatrix AssociatedTransform::a3h3(Complex s) const {
    // The zeroth moment about s is the value at s.
    return a3h3_moments(1, s)[0];
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

std::vector<ZMatrix> AssociatedTransform::h1_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "h1_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    std::vector<ZMatrix> out;
    out.reserve(static_cast<std::size_t>(count));
    // The whole m-column B block rides the resolvent chain together: one
    // factor pass per moment order instead of m.
    ZMatrix cur(n, m);
    for (int i = 0; i < m; ++i) cur.set_col(i, la::complexify(sys_.b_col(i)));
    for (int j = 0; j < count; ++j) {
        cur = backend_->solve_shifted(sys_.g1_op(), sigma0, cur);
        ZMatrix mj = cur;
        if (j % 2 == 1) mj *= Complex(-1);
        out.push_back(std::move(mj));
    }
    return out;
}

std::vector<ZMatrix> AssociatedTransform::compose_with_leading_resolvent(
    const std::vector<ZMatrix>& inner, Complex sigma0) const {
    // Given g(s) = sum_c inner[c] (s-sigma0)^c, return the Taylor coefficients
    // of (sI - G1)^{-1} g(s): m_j = sum_{c<=j} (-1)^{j-c} R^{j-c+1} inner[c].
    const int count = static_cast<int>(inner.size());
    const int n = sys_.order();
    const int cols = count > 0 ? inner[0].cols() : 0;
    std::vector<ZMatrix> out(static_cast<std::size_t>(count), ZMatrix(n, cols));
    for (int c = 0; c < count; ++c) {
        // All columns of inner_c ride the resolvent chain as one block.
        ZMatrix cur = inner[static_cast<std::size_t>(c)];
        for (int j = c; j < count; ++j) {
            cur = backend_->solve_shifted(sys_.g1_op(), sigma0, cur);  // R^{j-c+1} inner_c
            const Complex sign = ((j - c) % 2 == 1) ? Complex(-1) : Complex(1);
            ZMatrix& oj = out[static_cast<std::size_t>(j)];
            for (int r = 0; r < n; ++r) {
                const Complex* cr = cur.row_ptr(r);
                Complex* orow = oj.row_ptr(r);
                for (int col = 0; col < cols; ++col) orow[col] += sign * cr[col];
            }
        }
    }
    return out;
}

std::vector<ZMatrix> AssociatedTransform::a2h2_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "a2h2_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    std::vector<ZMatrix> inner(static_cast<std::size_t>(count), ZMatrix(n, m * m));
    if (count == 0 || (!sys_.has_quadratic() && !sys_.has_bilinear()))
        return std::vector<ZMatrix>(static_cast<std::size_t>(count), ZMatrix(n, m * m));

    for (int i = 0; i < m; ++i) {
        for (int j = i; j < m; ++j) {
            // c = 0 constant part.
            const ZVec dd = d0(i, j);
            auto add_col = [&](int c, const ZVec& v) {
                inner[static_cast<std::size_t>(c)].set_col(i * m + j, v);
                if (i != j) inner[static_cast<std::size_t>(c)].set_col(j * m + i, v);
            };
            if (!sys_.has_quadratic()) {
                add_col(0, dd);
                continue;
            }
            ZVec w = sym_lift(i, j);
            for (int c = 0; c < count; ++c) {
                w = kron_sum2()->solve(sigma0, w);
                ZVec g = sys_.g2().apply_lifted(w);
                if (c % 2 == 1) la::scale(Complex(-1), g);
                if (c == 0) la::axpy(Complex(1), dd, g);
                // accumulate into existing (zero) column
                ZVec cur = inner[static_cast<std::size_t>(c)].col(i * m + j);
                la::axpy(Complex(1), g, cur);
                add_col(c, cur);
            }
        }
    }
    return compose_with_leading_resolvent(inner, sigma0);
}

std::vector<ZMatrix> AssociatedTransform::a3h3_moments(int count, Complex sigma0) const {
    ATMOR_REQUIRE(count >= 0, "a3h3_moments: negative count");
    const int n = sys_.order(), m = sys_.inputs();
    const auto nz = static_cast<std::size_t>(n);
    std::vector<ZMatrix> inner(static_cast<std::size_t>(count), ZMatrix(n, m * m * m));
    const bool g2_part = sys_.has_quadratic();
    const bool d1_part = sys_.has_bilinear();
    const bool g3_part = sys_.has_cubic();
    if (count == 0 || (!g2_part && !d1_part && !g3_part)) return inner;

    // Everything below runs in the Schur coordinates of G1 = Z T Z^H; the
    // inputs enter them once, bhat_i = Z^H b_i.
    const la::ComplexSchur* schur = (g2_part || g3_part) ? schur_g1().get() : nullptr;
    std::vector<ZVec> bhat;
    ZMatrix tt, zbar, ztr;
    if (schur != nullptr) {
        for (int i = 0; i < m; ++i)
            bhat.push_back(schur->to_schur_basis(la::complexify(sys_.b_col(i))));
        tt = la::transpose(schur->t());
        zbar = la::conjugate(schur->z());
        ztr = la::transpose(schur->z());
    }
    const auto sign = [](int c) { return (c % 2 == 1) ? Complex(-1) : Complex(1); };

    // One G1 (+) Gt2 chain, u_c = (sigma0 I - G1 (+) Gt2)^{-(c+1)} (b_a (x) b~2),
    // as X = [X1; X2] in C^{(n+n^2) x n} with vec(X) = u. Only X1 leaves
    // Schur coordinates; the Gt2 (+) G1 term of H~3 reads it transposed, so
    // cols[c] += w (-1)^c G2 (vec X1 + vec X1^T).
    const auto g2_chain = [&](const Assignment& as, std::vector<ZVec>& cols) {
        const ZVec& ba = bhat[static_cast<std::size_t>(as.a)];
        const ZVec& bb = bhat[static_cast<std::size_t>(as.b)];
        const ZVec& bc = bhat[static_cast<std::size_t>(as.c)];
        // X2 = b~ b_a^T: slice s of the n^3 block is ba[s] sym(bc bb^T).
        ZVec low(nz * nz * nz);
        for (std::size_t s = 0; s < nz; ++s)
            for (std::size_t b = 0; b < nz; ++b)
                for (std::size_t a = 0; a < nz; ++a)
                    low[(s * nz + b) * nz + a] = ba[s] * 0.5 * (bc[a] * bb[b] + bb[a] * bc[b]);
        // X1 = d0 b_a^T, kept as Y1^T (row-major), i.e. column-major Y1.
        const ZVec dhat = schur->to_schur_basis(d0(as.b, as.c));
        ZMatrix y1t(n, n);
        for (int col = 0; col < n; ++col)
            for (int row = 0; row < n; ++row)
                y1t(col, row) =
                    dhat[static_cast<std::size_t>(row)] * ba[static_cast<std::size_t>(col)];
        const Complex w(as.weight / 3.0, 0.0);
        for (int c = 0; c < count; ++c) {
            tensor::kron_sum3_sweep(schur->t(), sigma0, low.data());
            // Up block right-hand side: previous Y1 plus Z^H (G2 X2 conj(Z)),
            // added transposed as (G2 X2 conj(Z))^T conj(Z).
            y1t += la::matmul(g2_coupling(sys_.g2(), schur->z(), low), zbar);
            la::tri_sylvester_sweep(tt, schur->t(), sigma0, y1t.data());
            const ZMatrix x1t = la::matmul(schur->z(), la::matmul(y1t, ztr));  // X1^T
            ZVec vsym(nz * nz);  // vec(X1) + vec(X1^T)
            for (int r = 0; r < n; ++r)
                for (int q = 0; q < n; ++q)
                    vsym[static_cast<std::size_t>(r) * nz + static_cast<std::size_t>(q)] =
                        x1t(r, q) + x1t(q, r);
            la::axpy(w * sign(c), sys_.g2().apply_lifted(vsym),
                     cols[static_cast<std::size_t>(c)]);
        }
    };

    // G3 (sigma0 I - (+)^3 G1)^{-(c+1)} sym(b_i (x) b_j (x) b_k), the same sweep.
    const auto g3_chain = [&](int i, int j, int k, std::vector<ZVec>& cols) {
        ZVec gamma(nz * nz * nz);
        for (const auto& perm : permutations3(i, j, k)) {
            const ZVec& x = bhat[static_cast<std::size_t>(perm[0])];
            const ZVec& y = bhat[static_cast<std::size_t>(perm[1])];
            const ZVec& z = bhat[static_cast<std::size_t>(perm[2])];
            for (std::size_t s = 0; s < nz; ++s)
                for (std::size_t b = 0; b < nz; ++b)
                    for (std::size_t a = 0; a < nz; ++a)
                        gamma[(s * nz + b) * nz + a] += x[s] * y[b] * z[a] / 6.0;
        }
        for (int c = 0; c < count; ++c) {
            tensor::kron_sum3_sweep(schur->t(), sigma0, gamma.data());
            la::axpy(sign(c), g3_at_entries(sys_.g3(), schur->z(), gamma),
                     cols[static_cast<std::size_t>(c)]);
        }
    };

    for (int i = 0; i < m; ++i) {
        for (int j = i; j < m; ++j) {
            for (int k = j; k < m; ++k) {
                std::vector<ZVec> cols(static_cast<std::size_t>(count), ZVec(nz, Complex(0)));
                for (const auto& as : dedup_assignments(i, j, k)) {
                    if (d1_part)
                        la::axpy(Complex(as.weight / 3.0, 0.0),
                                 sys_.apply_d1(as.a, d0(as.b, as.c)), cols[0]);
                    if (g2_part) g2_chain(as, cols);
                }
                if (g3_part) g3_chain(i, j, k, cols);
                for (int c = 0; c < count; ++c)
                    for (const auto& perm : permutations3(i, j, k))
                        inner[static_cast<std::size_t>(c)].set_col(
                            (perm[0] * m + perm[1]) * m + perm[2],
                            cols[static_cast<std::size_t>(c)]);
            }
        }
    }
    return compose_with_leading_resolvent(inner, sigma0);
}

}  // namespace atmor::volterra
