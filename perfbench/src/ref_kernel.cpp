#include "ref_kernel.hpp"

#include <chrono>
#include <complex>
#include <vector>

namespace perfbench {

namespace {

constexpr int kDim = 48;
constexpr int kStream = 1 << 15;  // 256 KiB of doubles: L2-resident stream

// One unit: Gaussian elimination of a diagonally dominant complex matrix
// (the shape of the library's dense Schur/LU work) and one pass over a
// buffer the size of a per-core L2.
double one_unit(std::vector<std::complex<double>>& a, std::vector<double>& stream, int salt) {
    for (int i = 0; i < kDim; ++i)
        for (int j = 0; j < kDim; ++j)
            a[static_cast<std::size_t>(i * kDim + j)] =
                std::complex<double>(1.0 / (1 + i + j + salt), (i == j) ? kDim : 0.25 / (1 + j));
    for (int k = 0; k < kDim; ++k) {
        const std::complex<double> inv = 1.0 / a[static_cast<std::size_t>(k * kDim + k)];
        for (int i = k + 1; i < kDim; ++i) {
            const std::complex<double> f = a[static_cast<std::size_t>(i * kDim + k)] * inv;
            for (int j = k; j < kDim; ++j)
                a[static_cast<std::size_t>(i * kDim + j)] -=
                    f * a[static_cast<std::size_t>(k * kDim + j)];
        }
    }
    double acc = 0.0;
    for (int i = 0; i < kStream; ++i) {
        stream[static_cast<std::size_t>(i)] = stream[static_cast<std::size_t>(i)] * 0.5 + 1.0;
        acc += stream[static_cast<std::size_t>(i)];
    }
    return acc + std::abs(a[static_cast<std::size_t>(kDim * kDim - 1)]);
}

}  // namespace

double ref_work(int units) {
    std::vector<std::complex<double>> a(static_cast<std::size_t>(kDim * kDim));
    std::vector<double> stream(static_cast<std::size_t>(kStream), 1.0);
    double sum = 0.0;
    for (int u = 0; u < units; ++u) sum += one_unit(a, stream, u & 7);
    return sum;
}

double ref_seconds(int units) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile double sink = ref_work(units);
    (void)sink;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
