#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "bench_stats.h"

namespace ngb {
namespace bench {
namespace {

TEST(BenchStats, QuantileInterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 3, 2, 4}), 3);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.25), 1.75);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 1.0), 4);
    EXPECT_DOUBLE_EQ(quantile({7}, 0.99), 7);
    EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(BenchStats, PercentileNeedsTenSamplesBeyondIt)
{
    EXPECT_TRUE(supportsPercentile(1000, 99));
    EXPECT_FALSE(supportsPercentile(999, 99));
    EXPECT_TRUE(supportsPercentile(200, 95));
    EXPECT_FALSE(supportsPercentile(199, 95));
    EXPECT_TRUE(supportsPercentile(20, 50));
    EXPECT_FALSE(supportsPercentile(19, 50));
    EXPECT_TRUE(supportsPercentile(10000, 99.9));
    EXPECT_FALSE(supportsPercentile(9999, 99.9));
    EXPECT_FALSE(supportsPercentile(0, 50));
}

TEST(BenchStats, GeomeanOfPositiveValues)
{
    EXPECT_NEAR(geomean({1, 100}), 10, 1e-12);
    EXPECT_NEAR(geomean({2, 8, 4}), 4, 1e-12);
    EXPECT_EQ(geomean({}), 0);
    EXPECT_EQ(geomean({3, 0}), 0);
    EXPECT_EQ(geomean({3, -1}), 0);
}

TEST(BenchStats, GoodputCountsRejectedAndFailedRequestsAsMisses)
{
    // A rejected or failed request carries no latency (0 here), which
    // would sit under any limit if it were counted.
    std::vector<Outcome> outcomes = {
        {true, 10},   // within 25 ms
        {true, 25},   // on the limit: within
        {true, 30},   // too slow
        {false, 0},   // rejected at admission
        {false, 0},   // failed
    };
    EXPECT_DOUBLE_EQ(goodputRps(outcomes, 25, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(goodputRps(outcomes, 25, 2.0), 1.0);
    EXPECT_EQ(goodputRps(outcomes, 25, 0), 0);
    EXPECT_EQ(goodputRps({{false, 0}, {false, 0}}, 1e9, 1.0), 0);
}

std::vector<Tensor>
someOutputs()
{
    return {Tensor::randn(Shape({4, 16}), 7, 1.0f)};
}

TEST(BenchStats, VerifierAcceptsIdenticalOutputsUnderEveryCheck)
{
    std::vector<Tensor> a = someOutputs(), b = someOutputs();
    EXPECT_EQ(compareOutputs(Check::Bits, a, b), "");
    EXPECT_EQ(compareOutputs(Check::Close, a, b), "");
    EXPECT_EQ(compareOutputs(Check::Quant, a, b), "");
}

TEST(BenchStats, VerifierCatchesADoctoredTensor)
{
    std::vector<Tensor> want = someOutputs();

    // One ulp on one element: only the bit-exact check may object.
    std::vector<Tensor> ulp = {want[0].clone()};
    float x = ulp[0].flatAt(5);
    ulp[0].flatSet(5, std::nextafter(x, std::numeric_limits<float>::max()));
    EXPECT_NE(compareOutputs(Check::Bits, ulp, want), "");
    EXPECT_EQ(compareOutputs(Check::Close, ulp, want), "");
    EXPECT_EQ(compareOutputs(Check::Quant, ulp, want), "");

    // A real defect on one element: the element-wise check catches it.
    std::vector<Tensor> wrong = {want[0].clone()};
    wrong[0].flatSet(9, wrong[0].flatAt(9) + 1.0f);
    EXPECT_NE(compareOutputs(Check::Bits, wrong, want), "");
    EXPECT_NE(compareOutputs(Check::Close, wrong, want), "");

    // A whole tensor gone wrong: even the relative-L2 check catches it.
    std::vector<Tensor> zeroed = {Tensor::zeros(Shape({4, 16}))};
    EXPECT_NE(compareOutputs(Check::Quant, zeroed, want), "");

    // A NaN never matches a number.
    std::vector<Tensor> nan = {want[0].clone()};
    nan[0].flatSet(0, std::numeric_limits<float>::quiet_NaN());
    EXPECT_NE(compareOutputs(Check::Bits, nan, want), "");
    EXPECT_NE(compareOutputs(Check::Close, nan, want), "");
    EXPECT_NE(compareOutputs(Check::Quant, nan, want), "");

    // A missing output is a mismatch, not a pass.
    EXPECT_NE(compareOutputs(Check::Bits, {}, want), "");
}

}  // namespace
}  // namespace bench
}  // namespace ngb
