// Unit tests of the benchmark's statistics helpers and reference normaliser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ref_kernel.hpp"
#include "stats.hpp"

namespace {

using perfbench::Normaliser;
using perfbench::percentile;

TEST(Percentile, NearestRankOnRawSamples) {
    const std::vector<double> v = {5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(v, 50), 3);
    EXPECT_EQ(percentile(v, 20), 1);
    EXPECT_EQ(percentile(v, 21), 2);
    EXPECT_EQ(percentile(v, 100), 5);
    EXPECT_EQ(percentile({7.5}, 99), 7.5);
}

TEST(Percentile, EvenCountMedianIsASample) {
    // Nearest rank never interpolates: the median of an even count is the
    // lower middle sample, so every reported percentile is a measured value.
    EXPECT_EQ(perfbench::median({4, 1, 3, 2}), 2);
}

TEST(Percentile, ExactWhereHistogramBucketsAreNot) {
    // Samples 10% apart stay distinguishable (histogram buckets 15.5% wide
    // would merge them).
    std::vector<double> v(100, 1.0);
    for (int i = 50; i < 100; ++i) v[static_cast<std::size_t>(i)] = 1.1;
    EXPECT_EQ(percentile(v, 50), 1.0);
    EXPECT_EQ(percentile(v, 51), 1.1);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

/// A reference clock that replays a scripted sequence of kernel times.
struct ScriptedRef {
    std::vector<double>* times;
    std::size_t* next;
    double operator()() const { return (*times)[(*next)++]; }
};

TEST(Normaliser, CancelsAHostSlowdownSharedWithTheKernel) {
    std::vector<double> refs = {1.0, 1.0, 2.0, 2.0};
    std::size_t next = 0;
    Normaliser<ScriptedRef> norm(ScriptedRef{&refs, &next}, 1.0);
    // Host at nominal speed: 3 s of work reads 3 s.
    norm.mark();
    EXPECT_DOUBLE_EQ(norm.close(3.0), 3.0);
    // Host twice as slow for the kernel and the work alike: same reading.
    norm.mark();
    EXPECT_DOUBLE_EQ(norm.close(6.0), 3.0);
    EXPECT_DOUBLE_EQ(norm.last_scale(), 0.5);
    EXPECT_EQ(norm.refs().size(), 4u);
}

TEST(Normaliser, UsesTheMeanOfTheBracket) {
    std::vector<double> refs = {1.0, 3.0};
    std::size_t next = 0;
    Normaliser<ScriptedRef> norm(ScriptedRef{&refs, &next}, 2.0);
    norm.mark();
    EXPECT_DOUBLE_EQ(norm.close(4.0), 4.0 * 2.0 / 2.0);
    EXPECT_DOUBLE_EQ(norm.scale_for(1.0, 3.0), 1.0);
}

TEST(Normaliser, RejectsNonPositiveNominal) {
    std::vector<double> refs;
    std::size_t next = 0;
    EXPECT_THROW(Normaliser<ScriptedRef>(ScriptedRef{&refs, &next}, 0.0),
                 std::invalid_argument);
}

TEST(RefKernel, IsDeterministicWork) {
    EXPECT_EQ(perfbench::ref_work(3), perfbench::ref_work(3));
    EXPECT_GT(perfbench::ref_seconds(1), 0.0);
}

}  // namespace
