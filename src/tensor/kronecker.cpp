#include "tensor/kronecker.hpp"

#include "util/check.hpp"

namespace atmor::tensor {

la::Matrix kron(const la::Matrix& a, const la::Matrix& b) {
    la::Matrix k(a.rows() * b.rows(), a.cols() * b.cols());
    for (int i = 0; i < a.rows(); ++i)
        for (int j = 0; j < a.cols(); ++j) {
            const double aij = a(i, j);
            if (aij == 0.0) continue;
            for (int p = 0; p < b.rows(); ++p)
                for (int q = 0; q < b.cols(); ++q)
                    k(i * b.rows() + p, j * b.cols() + q) = aij * b(p, q);
        }
    return k;
}

la::Matrix kron_sum(const la::Matrix& a, const la::Matrix& b) {
    ATMOR_REQUIRE(a.square() && b.square(), "kron_sum: factors must be square");
    la::Matrix k = kron(a, la::Matrix::identity(b.rows()));
    k += kron(la::Matrix::identity(a.rows()), b);
    return k;
}

la::Vec kron(const la::Vec& x, const la::Vec& y) {
    la::Vec out(x.size() * y.size());
    std::size_t idx = 0;
    for (double xi : x)
        for (double yj : y) out[idx++] = xi * yj;
    return out;
}

la::ZVec kron(const la::ZVec& x, const la::ZVec& y) {
    la::ZVec out(x.size() * y.size());
    std::size_t idx = 0;
    for (const auto& xi : x)
        for (const auto& yj : y) out[idx++] = xi * yj;
    return out;
}

la::Vec kron3(const la::Vec& x, const la::Vec& y, const la::Vec& z) {
    return kron(kron(x, y), z);
}

la::Vec vec_of(const la::Matrix& m) {
    la::Vec w(static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()));
    std::size_t idx = 0;
    for (int c = 0; c < m.cols(); ++c)
        for (int r = 0; r < m.rows(); ++r) w[idx++] = m(r, c);
    return w;
}

la::ZVec vec_of(const la::ZMatrix& m) {
    la::ZVec w(static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()));
    std::size_t idx = 0;
    for (int c = 0; c < m.cols(); ++c)
        for (int r = 0; r < m.rows(); ++r) w[idx++] = m(r, c);
    return w;
}

la::Matrix unvec(const la::Vec& w, int rows, int cols) {
    ATMOR_REQUIRE(static_cast<int>(w.size()) == rows * cols, "unvec: size mismatch");
    la::Matrix m(rows, cols);
    std::size_t idx = 0;
    for (int c = 0; c < cols; ++c)
        for (int r = 0; r < rows; ++r) m(r, c) = w[idx++];
    return m;
}

la::ZMatrix unvec(const la::ZVec& w, int rows, int cols) {
    ATMOR_REQUIRE(static_cast<int>(w.size()) == rows * cols, "unvec: size mismatch");
    la::ZMatrix m(rows, cols);
    std::size_t idx = 0;
    for (int c = 0; c < cols; ++c)
        for (int r = 0; r < rows; ++r) m(r, c) = w[idx++];
    return m;
}

}  // namespace atmor::tensor
