#include "la/sylvester.hpp"

#include <cmath>

#include "la/vector_ops.hpp"
#include "util/check.hpp"

namespace atmor::la {

void tri_sylvester_sweep(const ZMatrix& t1t, const ZMatrix& t2, Complex sigma, Complex* y,
                         bool symmetric) {
    const int m = t1t.rows(), p = t2.rows();
    ATMOR_REQUIRE(t1t.square() && t2.square(), "tri_sylvester_sweep: factors must be square");
    ATMOR_REQUIRE(!symmetric || m == p, "tri_sylvester_sweep: symmetric needs T1 = T2");
    const auto len = [](int k) { return static_cast<std::size_t>(k); };
    // Column j couples only to columns k > j through (Y T2^T)_{:,j} =
    // sum_k y_k T2(j,k); solve descending. A symmetric solve keeps rows
    // i >= j of column j: Y(i,k) for k <= i sits in column k, and for k > i
    // it is Y(k,i), row k of the already solved column i.
    for (int j = p - 1; j >= 0; --j) {
        const int lo = symmetric ? j : 0;
        Complex* yj = y + len(j) * len(m);
        const Complex* t2j = t2.row_ptr(j);
        for (int k = j + 1; k < p; ++k) {
            const int r0 = symmetric ? k : 0;  // rows r0.. of column k
            if (t2j[k] != Complex(0))
                simd::zaxpy(t2j[k], y + len(k) * len(m) + len(r0), yj + r0, len(m - r0));
        }
        if (symmetric)
            for (int i = j + 1; i + 1 < m; ++i)
                yj[i] += dotu(t2j + i + 1, y + len(i) * len(m) + len(i) + 1, len(m - i - 1));
        // ((sigma - T2(j,j)) I - T1) y_j = rhs_j, column-oriented: once y_i is
        // known, T1(lo..i, i) y_i (row i of T1^T) feeds the rows above it.
        const Complex shift = sigma - t2j[j];
        for (int i = m - 1; i >= lo; --i) {
            // The diagonal's own coupling Y(j,k) = Y(k,j), k > j, is final now.
            if (symmetric && i == j) yj[j] += dotu(t2j + j + 1, yj + j + 1, len(m - j - 1));
            const Complex d = shift - t1t(i, i);
            ATMOR_CHECK(std::norm(d) > 0.0,
                        "tri_sylvester_sweep: singular pencil (sigma hits eigenvalue sum)");
            yj[i] /= d;
            simd::zaxpy(yj[i], t1t.row_ptr(i) + lo, yj + lo, len(i - lo));
        }
    }
    if (symmetric)
        for (int j = 0; j < m; ++j)
            for (int i = j + 1; i < m; ++i)
                y[len(i) * len(m) + len(j)] = y[len(j) * len(m) + len(i)];
}

ZMatrix tri_sylvester_shifted(const ZMatrix& t1, const ZMatrix& t2, Complex sigma, ZMatrix c) {
    ATMOR_REQUIRE(t1.square() && t2.square(), "tri_sylvester_shifted: factors must be square");
    ATMOR_REQUIRE(c.rows() == t1.rows() && c.cols() == t2.rows(),
                  "tri_sylvester_shifted: C shape mismatch");
    // A row-major Y^T is the column-major Y the sweep works on.
    ZMatrix yt = transpose(c);
    tri_sylvester_sweep(transpose(t1), t2, sigma, yt.data());
    return transpose(yt);
}

ZMatrix tri_sylvester_sum(const ZMatrix& t1, const ZMatrix& t2, ZMatrix c) {
    const int m = t1.rows(), p = t2.rows();
    ATMOR_REQUIRE(t1.square() && t2.square(), "tri_sylvester_sum: factors must be square");
    ATMOR_REQUIRE(c.rows() == m && c.cols() == p, "tri_sylvester_sum: C shape mismatch");

    // (Y T2)_{:,j} = sum_{k <= j} y_k T2(k,j): ascending columns.
    for (int j = 0; j < p; ++j) {
        for (int k = 0; k < j; ++k) {
            const Complex w = t2(k, j);
            if (w == Complex(0)) continue;
            for (int i = 0; i < m; ++i) c(i, j) -= w * c(i, k);
        }
        // (T1 + T2(j,j) I) y_j = rhs_j.
        const Complex shift = t2(j, j);
        for (int i = m - 1; i >= 0; --i) {
            Complex acc = c(i, j);
            for (int k = i + 1; k < m; ++k) acc -= t1(i, k) * c(k, j);
            const Complex d = t1(i, i) + shift;
            ATMOR_CHECK(std::abs(d) > 0.0, "tri_sylvester_sum: singular pencil");
            c(i, j) = acc / d;
        }
    }
    return c;
}

ZMatrix resolvent_kron_sum_solve(const ComplexSchur& schur_a, Complex sigma, const ZMatrix& c) {
    const int n = schur_a.dim();
    ATMOR_REQUIRE(c.rows() == n && c.cols() == n, "resolvent_kron_sum_solve: C must be n x n");
    const ZMatrix& t = schur_a.t();
    const ZMatrix& z = schur_a.z();
    // sigma X - A X - X A^T = C, A = Z T Z^H  =>  with Y = Z^H X conj(Z):
    // sigma Y - T Y - Y T^T = Z^H C conj(Z).
    const ZMatrix zbar = conjugate(z);
    ZMatrix rhs = matmul(adjoint(z), matmul(c, zbar));
    ZMatrix y = tri_sylvester_shifted(t, t, sigma, std::move(rhs));
    // X = Z Y Z^T.
    return matmul(z, matmul(y, transpose(z)));
}

Matrix solve_sylvester(const Matrix& a, const Matrix& b, const Matrix& c) {
    ATMOR_REQUIRE(a.square() && b.square(), "solve_sylvester: A, B must be square");
    ATMOR_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
                  "solve_sylvester: C shape mismatch");
    const ComplexSchur sa(a);
    const ComplexSchur sb(b);
    // A X + X B = C => T_A Y + Y T_B = U^H C W, Y = U^H X W.
    ZMatrix rhs = matmul(adjoint(sa.z()), matmul(complexify(c), sb.z()));
    ZMatrix y = tri_sylvester_sum(sa.t(), sb.t(), std::move(rhs));
    return real_part(matmul(sa.z(), matmul(y, adjoint(sb.z()))));
}

Matrix solve_lyapunov(const Matrix& a, const Matrix& q) {
    ATMOR_REQUIRE(a.square() && q.rows() == a.rows() && q.cols() == a.cols(),
                  "solve_lyapunov: shape mismatch");
    const ComplexSchur sa(a);
    // A P + P A^T = Q is the sigma = 0 case of the kron-sum resolvent with C = -Q.
    ZMatrix c = complexify(q);
    c *= Complex(-1.0, 0.0);
    const ZMatrix zbar = conjugate(sa.z());
    ZMatrix rhs = matmul(adjoint(sa.z()), matmul(c, zbar));
    ZMatrix y = tri_sylvester_shifted(sa.t(), sa.t(), Complex(0), std::move(rhs));
    return real_part(matmul(sa.z(), matmul(y, transpose(sa.z()))));
}

Matrix controllability_gramian(const Matrix& a, const Matrix& b) {
    ATMOR_REQUIRE(b.rows() == a.rows(), "controllability_gramian: B rows mismatch");
    Matrix q(a.rows(), a.rows());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.rows(); ++j) {
            double s = 0.0;
            for (int k = 0; k < b.cols(); ++k) s += b(i, k) * b(j, k);
            q(i, j) = -s;
        }
    return solve_lyapunov(a, q);
}

}  // namespace atmor::la
