// Free-function vector arithmetic on std::vector<double> / std::vector<complex>.
//
// The double and complex primitives route through the la/simd kernel layer
// (vectorized by default, scalar when the ATMOR_SCALAR_KERNELS escape hatch
// is active). axpy/scale stay bit-identical across kernel tiers; dot/norm2
// are reassociated reductions pinned only by tolerance.
#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "la/simd.hpp"
#include "util/check.hpp"

namespace atmor::la {

inline std::vector<double>& axpy(double alpha, const std::vector<double>& x,
                                 std::vector<double>& y) {
    ATMOR_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
    simd::axpy(alpha, x.data(), y.data(), x.size());
    return y;
}

inline std::vector<std::complex<double>>& axpy(std::complex<double> alpha,
                                               const std::vector<std::complex<double>>& x,
                                               std::vector<std::complex<double>>& y) {
    ATMOR_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
    simd::zaxpy(alpha, x.data(), y.data(), x.size());
    return y;
}

inline std::vector<double>& scale(double alpha, std::vector<double>& x) {
    simd::scale(alpha, x.data(), x.size());
    return x;
}

inline std::vector<std::complex<double>>& scale(std::complex<double> alpha,
                                                std::vector<std::complex<double>>& x) {
    for (auto& v : x) v *= alpha;
    return x;
}

template <class T>
std::vector<T> scaled(T alpha, std::vector<T> x) {
    scale(alpha, x);
    return x;
}

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
    ATMOR_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    return simd::dot(a.data(), b.data(), a.size());
}

/// Hermitian inner product <a, b> = sum conj(a_i) b_i.
inline std::complex<double> dot(const std::vector<std::complex<double>>& a,
                                const std::vector<std::complex<double>>& b) {
    ATMOR_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    std::complex<double> s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
    return s;
}

/// Bilinear (unconjugated) sum x[i] y[i] over raw complex storage; the fold
/// is reassociated for vectorisation, so it is pinned only by tolerance.
inline std::complex<double> dotu(const std::complex<double>* x, const std::complex<double>* y,
                                 std::size_t n) {
    const double* xd = reinterpret_cast<const double*>(x);
    const double* yd = reinterpret_cast<const double*>(y);
    double re = 0.0, im = 0.0;
#pragma omp simd reduction(+ : re, im)
    for (std::size_t i = 0; i < n; ++i) {
        re += xd[2 * i] * yd[2 * i] - xd[2 * i + 1] * yd[2 * i + 1];
        im += xd[2 * i] * yd[2 * i + 1] + xd[2 * i + 1] * yd[2 * i];
    }
    return {re, im};
}

inline double norm2(const std::vector<double>& a) {
    return std::sqrt(simd::nrm2sq(a.data(), a.size()));
}

inline double norm2(const std::vector<std::complex<double>>& a) {
    // Interleaved re/im doubles: ||a||_2^2 is the same flat sum of squares.
    return std::sqrt(simd::nrm2sq(reinterpret_cast<const double*>(a.data()), 2 * a.size()));
}

template <class T>
double norm_inf(const std::vector<T>& a) {
    double m = 0.0;
    for (const auto& v : a) m = std::max(m, std::abs(v));
    return m;
}

template <class T>
std::vector<T> add(std::vector<T> a, const std::vector<T>& b) {
    ATMOR_REQUIRE(a.size() == b.size(), "add: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
}

template <class T>
std::vector<T> sub(std::vector<T> a, const std::vector<T>& b) {
    ATMOR_REQUIRE(a.size() == b.size(), "sub: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
    return a;
}

/// Euclidean distance ||a - b||_2.
template <class T>
double dist2(const std::vector<T>& a, const std::vector<T>& b) {
    ATMOR_REQUIRE(a.size() == b.size(), "dist2: size mismatch");
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += std::norm(std::complex<double>(a[i] - b[i]));
    return std::sqrt(s);
}

/// Unit basis vector e_i of length n.
inline std::vector<double> unit_vector(int n, int i) {
    ATMOR_REQUIRE(i >= 0 && i < n, "unit_vector: index out of range");
    std::vector<double> e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(i)] = 1.0;
    return e;
}

}  // namespace atmor::la
