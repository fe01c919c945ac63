#include "sparse/splu.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <type_traits>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace atmor::sparse {

namespace {

/// xi[0..k) -= m * xj[0..k) on the elementwise simd kernels (see la/lu.cpp:
/// add-of-negated-multiplier is bit-identical to the subtract form, keeping
/// the blocked-solve == single-solve exactness pins).
template <class T>
inline void row_sub(T* xi, T m, const T* xj, int k) {
    if constexpr (std::is_same_v<T, double>)
        la::simd::axpy(-m, xj, xi, static_cast<std::size_t>(k));
    else
        la::simd::zaxpy(-m, xj, xi, static_cast<std::size_t>(k));
}

/// Shared CSC assembly of (shift*I - A); the diagonal slot is always emitted.
template <class T>
Csc<T> build_shifted_csc(const CsrMatrix& a, T shift) {
    ATMOR_REQUIRE(a.rows() == a.cols(), "shifted_csc: matrix must be square");
    const int n = a.rows();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& vals = a.values();

    Csc<T> out;
    out.n = n;
    out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    // Count off-diagonal entries per column; every column also gets one
    // diagonal slot carrying shift - A_jj.
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            if (j != i) ++out.col_ptr[static_cast<std::size_t>(j) + 1];
        }
    for (int j = 0; j < n; ++j) ++out.col_ptr[static_cast<std::size_t>(j) + 1];  // diagonal
    for (int j = 0; j < n; ++j)
        out.col_ptr[static_cast<std::size_t>(j) + 1] += out.col_ptr[static_cast<std::size_t>(j)];

    const std::size_t nnz = static_cast<std::size_t>(out.col_ptr[static_cast<std::size_t>(n)]);
    out.row_idx.resize(nnz);
    out.values.resize(nnz);
    std::vector<int> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
    std::vector<T> diag(static_cast<std::size_t>(n), shift);
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            const double v = vals[static_cast<std::size_t>(k)];
            if (j == i) {
                diag[static_cast<std::size_t>(i)] -= v;
            } else {
                const int slot = next[static_cast<std::size_t>(j)]++;
                out.row_idx[static_cast<std::size_t>(slot)] = i;
                out.values[static_cast<std::size_t>(slot)] = T(-v);
            }
        }
    for (int j = 0; j < n; ++j) {
        const int slot = next[static_cast<std::size_t>(j)]++;
        out.row_idx[static_cast<std::size_t>(slot)] = j;
        out.values[static_cast<std::size_t>(slot)] = diag[static_cast<std::size_t>(j)];
    }
    return out;
}

}  // namespace

Csc<double> shifted_csc(const CsrMatrix& a, double shift) {
    return build_shifted_csc<double>(a, shift);
}

Csc<la::Complex> shifted_csc(const CsrMatrix& a, la::Complex shift) {
    return build_shifted_csc<la::Complex>(a, shift);
}

Csc<double> csc_of(const CsrMatrix& a) {
    ATMOR_REQUIRE(a.rows() == a.cols(), "csc_of: matrix must be square");
    const int n = a.rows();
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const auto& vals = a.values();
    Csc<double> out;
    out.n = n;
    out.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    for (int k = 0; k < a.nnz(); ++k) ++out.col_ptr[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]) + 1];
    for (int j = 0; j < n; ++j)
        out.col_ptr[static_cast<std::size_t>(j) + 1] += out.col_ptr[static_cast<std::size_t>(j)];
    out.row_idx.resize(static_cast<std::size_t>(a.nnz()));
    out.values.resize(static_cast<std::size_t>(a.nnz()));
    std::vector<int> next(out.col_ptr.begin(), out.col_ptr.end() - 1);
    for (int i = 0; i < n; ++i)
        for (int k = rp[static_cast<std::size_t>(i)]; k < rp[static_cast<std::size_t>(i) + 1];
             ++k) {
            const int j = ci[static_cast<std::size_t>(k)];
            const int slot = next[static_cast<std::size_t>(j)]++;
            out.row_idx[static_cast<std::size_t>(slot)] = i;
            out.values[static_cast<std::size_t>(slot)] = vals[static_cast<std::size_t>(k)];
        }
    return out;
}

template <class T>
SparseLu<T>::SparseLu(const Csc<T>& a) {
    ATMOR_REQUIRE(a.n >= 1, "SparseLu: empty matrix");
    ATMOR_REQUIRE(static_cast<int>(a.col_ptr.size()) == a.n + 1, "SparseLu: bad col_ptr");
    n_ = a.n;
    q_ = amd_order(a);
    // Permuted matrix B[i, j] = A[q[i], q[j]] (counting-sort rebuild).
    std::vector<int> qi(static_cast<std::size_t>(n_));
    for (int k = 0; k < n_; ++k) qi[static_cast<std::size_t>(q_[static_cast<std::size_t>(k)])] = k;
    Csc<T> b;
    b.n = n_;
    b.col_ptr.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (int jo = 0; jo < n_; ++jo) {
        const int jn = qi[static_cast<std::size_t>(jo)];
        b.col_ptr[static_cast<std::size_t>(jn) + 1] +=
            a.col_ptr[static_cast<std::size_t>(jo) + 1] - a.col_ptr[static_cast<std::size_t>(jo)];
    }
    for (int j = 0; j < n_; ++j)
        b.col_ptr[static_cast<std::size_t>(j) + 1] += b.col_ptr[static_cast<std::size_t>(j)];
    b.row_idx.resize(a.row_idx.size());
    b.values.resize(a.values.size());
    std::vector<int> next(b.col_ptr.begin(), b.col_ptr.end() - 1);
    for (int jo = 0; jo < n_; ++jo) {
        const int jn = qi[static_cast<std::size_t>(jo)];
        for (int p = a.col_ptr[static_cast<std::size_t>(jo)];
             p < a.col_ptr[static_cast<std::size_t>(jo) + 1]; ++p) {
            const int slot = next[static_cast<std::size_t>(jn)]++;
            b.row_idx[static_cast<std::size_t>(slot)] =
                qi[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(p)])];
            b.values[static_cast<std::size_t>(slot)] = a.values[static_cast<std::size_t>(p)];
        }
    }
    factor(b);
    src_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i)
        src_[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])] =
            q_[static_cast<std::size_t>(i)];
}

template <class T>
void SparseLu<T>::factor(const Csc<T>& a) {
    const int n = n_;
    lp_.assign(static_cast<std::size_t>(n) + 1, 0);
    up_.assign(static_cast<std::size_t>(n) + 1, 0);
    pinv_.assign(static_cast<std::size_t>(n), -1);
    li_.reserve(a.row_idx.size());
    lx_.reserve(a.values.size());
    ui_.reserve(a.row_idx.size());
    ux_.reserve(a.values.size());

    std::vector<T> x(static_cast<std::size_t>(n), T(0));
    std::vector<char> mark(static_cast<std::size_t>(n), 0);
    std::vector<int> xi(static_cast<std::size_t>(n));
    std::vector<int> stack(static_cast<std::size_t>(n));
    std::vector<int> pstack(static_cast<std::size_t>(n));

    for (int k = 0; k < n; ++k) {
        // --- Reach: nonzero pattern of L \ A(:,k), topological order in
        // xi[top..n). DFS over the column graph of the L computed so far.
        int top = n;
        for (int p = a.col_ptr[static_cast<std::size_t>(k)];
             p < a.col_ptr[static_cast<std::size_t>(k) + 1]; ++p) {
            const int root = a.row_idx[static_cast<std::size_t>(p)];
            if (mark[static_cast<std::size_t>(root)]) continue;
            int head = 0;
            stack[0] = root;
            while (head >= 0) {
                const int v = stack[static_cast<std::size_t>(head)];
                if (!mark[static_cast<std::size_t>(v)]) {
                    mark[static_cast<std::size_t>(v)] = 1;
                    pstack[static_cast<std::size_t>(head)] =
                        (pinv_[static_cast<std::size_t>(v)] < 0)
                            ? 0
                            : lp_[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(v)])];
                }
                bool descended = false;
                const int colv = pinv_[static_cast<std::size_t>(v)];
                if (colv >= 0) {
                    const int pend = lp_[static_cast<std::size_t>(colv) + 1];
                    int& pp = pstack[static_cast<std::size_t>(head)];
                    while (pp < pend) {
                        const int w = li_[static_cast<std::size_t>(pp)];
                        ++pp;
                        if (!mark[static_cast<std::size_t>(w)]) {
                            stack[static_cast<std::size_t>(++head)] = w;
                            descended = true;
                            break;
                        }
                    }
                }
                if (!descended) {
                    xi[static_cast<std::size_t>(--top)] = v;
                    --head;
                }
            }
        }

        // --- Numeric sparse triangular solve x = L \ A(:,k).
        for (int p = a.col_ptr[static_cast<std::size_t>(k)];
             p < a.col_ptr[static_cast<std::size_t>(k) + 1]; ++p)
            x[static_cast<std::size_t>(a.row_idx[static_cast<std::size_t>(p)])] =
                a.values[static_cast<std::size_t>(p)];
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            const int coli = pinv_[static_cast<std::size_t>(i)];
            if (coli < 0) continue;
            const T xi_val = x[static_cast<std::size_t>(i)];
            if (xi_val == T(0)) continue;
            for (int q = lp_[static_cast<std::size_t>(coli)] + 1;
                 q < lp_[static_cast<std::size_t>(coli) + 1]; ++q)
                x[static_cast<std::size_t>(li_[static_cast<std::size_t>(q)])] -=
                    lx_[static_cast<std::size_t>(q)] * xi_val;
        }

        // --- Partial pivoting over the not-yet-pivotal rows.
        int ipiv = -1;
        double pivmag = -1.0;
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            if (pinv_[static_cast<std::size_t>(i)] < 0) {
                const double t = std::abs(x[static_cast<std::size_t>(i)]);
                if (t > pivmag) {
                    pivmag = t;
                    ipiv = i;
                }
            } else {
                ui_.push_back(pinv_[static_cast<std::size_t>(i)]);
                ux_.push_back(x[static_cast<std::size_t>(i)]);
            }
        }
        ATMOR_CHECK(ipiv >= 0 && pivmag > 0.0,
                    "SparseLu: matrix is numerically singular at column " << k);
        const T pivot = x[static_cast<std::size_t>(ipiv)];
        pinv_[static_cast<std::size_t>(ipiv)] = k;
        li_.push_back(ipiv);
        lx_.push_back(T(1));
        for (int p = top; p < n; ++p) {
            const int i = xi[static_cast<std::size_t>(p)];
            if (pinv_[static_cast<std::size_t>(i)] < 0) {
                li_.push_back(i);
                lx_.push_back(x[static_cast<std::size_t>(i)] / pivot);
            }
            x[static_cast<std::size_t>(i)] = T(0);
            mark[static_cast<std::size_t>(i)] = 0;
        }
        ui_.push_back(k);
        ux_.push_back(pivot);
        lp_[static_cast<std::size_t>(k) + 1] = static_cast<int>(li_.size());
        up_[static_cast<std::size_t>(k) + 1] = static_cast<int>(ui_.size());
    }

    // Remap L's row indices from original to pivot order (CSparse fixup), so
    // the solve phase works on a proper lower triangle.
    for (auto& i : li_) i = pinv_[static_cast<std::size_t>(i)];
}

template <class T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
    ATMOR_REQUIRE(static_cast<int>(b.size()) == n_, "SparseLu::solve: size mismatch");
    const int n = n_;
    std::vector<T> x(static_cast<std::size_t>(n));
    // Compose the fill-reducing order with the pivot permutation on the way
    // in: permuted row i carries original entry b[q_[i]].
    for (int i = 0; i < n; ++i)
        x[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])] =
            b[static_cast<std::size_t>(q_[static_cast<std::size_t>(i)])];
    // L y = P b (unit diagonal stored first in each column).
    for (int j = 0; j < n; ++j) {
        const T xj = x[static_cast<std::size_t>(j)];
        if (xj == T(0)) continue;
        for (int p = lp_[static_cast<std::size_t>(j)] + 1;
             p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
            x[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
                lx_[static_cast<std::size_t>(p)] * xj;
    }
    // U x = y (diagonal stored last in each column).
    for (int j = n - 1; j >= 0; --j) {
        x[static_cast<std::size_t>(j)] /= ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1] - 1)];
        const T xj = x[static_cast<std::size_t>(j)];
        if (xj == T(0)) continue;
        for (int p = up_[static_cast<std::size_t>(j)];
             p < up_[static_cast<std::size_t>(j) + 1] - 1; ++p)
            x[static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)])] -=
                ux_[static_cast<std::size_t>(p)] * xj;
    }
    // Back to the original index space.
    std::vector<T> out(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k)
        out[static_cast<std::size_t>(q_[static_cast<std::size_t>(k)])] =
            x[static_cast<std::size_t>(k)];
    return out;
}

template <class T>
la::DenseMatrix<T> SparseLu<T>::solve(const la::DenseMatrix<T>& b) const {
    ATMOR_REQUIRE(b.rows() == n_, "SparseLu::solve: block row mismatch");
    const int n = n_;
    const int k = b.cols();
    // Working storage is laid out in OUTPUT index order (pivot-space row j at
    // storage row q_[j]), so the result needs no final permute pass: x IS the
    // answer when the substitution finishes. Row-major, so every factor entry
    // applies across a contiguous k-wide row.
    la::DenseMatrix<T> x(n, k);
    for (int j = 0; j < n; ++j) {
        const T* src = b.row_ptr(src_[static_cast<std::size_t>(j)]);
        T* dst = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int c = 0; c < k; ++c) dst[c] = src[c];
    }
    // L Y = P B: one traversal of L's entries, each applied across the block.
    for (int j = 0; j < n; ++j) {
        const T* xj = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int p = lp_[static_cast<std::size_t>(j)] + 1;
             p < lp_[static_cast<std::size_t>(j) + 1]; ++p) {
            T* xi = x.row_ptr(
                q_[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])]);
            row_sub(xi, lx_[static_cast<std::size_t>(p)], xj, k);
        }
    }
    // U X = Y.
    for (int j = n - 1; j >= 0; --j) {
        const T d = ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1] - 1)];
        T* xj = x.row_ptr(q_[static_cast<std::size_t>(j)]);
        for (int c = 0; c < k; ++c) xj[c] /= d;
        for (int p = up_[static_cast<std::size_t>(j)];
             p < up_[static_cast<std::size_t>(j) + 1] - 1; ++p) {
            T* xi = x.row_ptr(
                q_[static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)])]);
            row_sub(xi, ux_[static_cast<std::size_t>(p)], xj, k);
        }
    }
    return x;
}

template <class T>
double SparseLu<T>::pivot_ratio() const {
    double lo = 0.0, hi = 0.0;
    for (int j = 0; j < n_; ++j) {
        const double d =
            std::abs(ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1] - 1)]);
        if (j == 0) {
            lo = hi = d;
        } else {
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        }
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

template class SparseLu<double>;
template class SparseLu<la::Complex>;

SpLu splu(const CsrMatrix& a) { return SpLu(csc_of(a)); }

SpLu splu_shifted(const CsrMatrix& a, double shift) { return SpLu(shifted_csc(a, shift)); }

ZSpLu splu_shifted(const CsrMatrix& a, la::Complex shift) {
    return ZSpLu(shifted_csc(a, shift));
}

}  // namespace atmor::sparse
