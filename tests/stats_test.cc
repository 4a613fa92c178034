/**
 * @file
 * Unit tests for the shared sample statistics (common/stats.h) — the
 * percentile/median/CoV layer under the loadgens' latency reports and
 * the pareto/transcode sweeps' repeat noise estimates. The small-N
 * cases are the point: the old per-loadgen percentile() truncated the
 * rank, so p99 of a small sample set could land on the same element
 * as p50.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace hdvb {
namespace {

TEST(Stats, PercentileEmptyAndSingle)
{
    EXPECT_EQ(percentile_sorted({}, 0.5), 0.0);
    EXPECT_EQ(percentile_sorted({}, 0.99), 0.0);
    const std::vector<double> one = {7.5};
    EXPECT_EQ(percentile_sorted(one, 0.0), 7.5);
    EXPECT_EQ(percentile_sorted(one, 0.5), 7.5);
    EXPECT_EQ(percentile_sorted(one, 0.99), 7.5);
    EXPECT_EQ(percentile_sorted(one, 1.0), 7.5);
}

TEST(Stats, PercentileNearestRank)
{
    // N=10, values 1..10. Nearest rank: ceil(q*N)-1.
    std::vector<double> v;
    for (int i = 1; i <= 10; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile_sorted(v, 0.50), 5.0);   // ceil(5)-1 = idx 4
    EXPECT_EQ(percentile_sorted(v, 0.95), 10.0);  // ceil(9.5)-1 = idx 9
    EXPECT_EQ(percentile_sorted(v, 0.99), 10.0);
    EXPECT_EQ(percentile_sorted(v, 1.00), 10.0);
    EXPECT_EQ(percentile_sorted(v, 0.10), 1.0);
    EXPECT_EQ(percentile_sorted(v, 0.11), 2.0);
    // q clamped, not UB.
    EXPECT_EQ(percentile_sorted(v, -1.0), 1.0);
    EXPECT_EQ(percentile_sorted(v, 2.0), 10.0);
}

TEST(Stats, PercentileSmallNDoesNotCollapse)
{
    // The old truncated-rank version computed index = trunc(q*N),
    // which for exact multiples selected the element *above* the
    // requested rank (p50 of {1,2} was 2), and for tail percentiles
    // of tiny sets could disagree with the nearest-rank definition.
    const std::vector<double> two = {1.0, 2.0};
    EXPECT_EQ(percentile_sorted(two, 0.50), 1.0);  // lower middle
    EXPECT_EQ(percentile_sorted(two, 0.51), 2.0);
    EXPECT_EQ(percentile_sorted(two, 0.99), 2.0);

    // Adversarial: a heavy outlier in a 4-sample set must be p99 but
    // not p50.
    const std::vector<double> skew = {1.0, 1.0, 1.0, 1000.0};
    EXPECT_EQ(percentile_sorted(skew, 0.50), 1.0);
    EXPECT_EQ(percentile_sorted(skew, 0.75), 1.0);
    EXPECT_EQ(percentile_sorted(skew, 0.76), 1000.0);
    EXPECT_EQ(percentile_sorted(skew, 0.99), 1000.0);
}

TEST(Stats, PercentileTiedValues)
{
    const std::vector<double> tied = {3.0, 3.0, 3.0, 3.0, 3.0};
    EXPECT_EQ(percentile_sorted(tied, 0.01), 3.0);
    EXPECT_EQ(percentile_sorted(tied, 0.50), 3.0);
    EXPECT_EQ(percentile_sorted(tied, 0.99), 3.0);
}

TEST(Stats, MedianEvenOddEmpty)
{
    EXPECT_EQ(median_sorted({}), 0.0);
    EXPECT_EQ(median_sorted({4.0}), 4.0);
    EXPECT_EQ(median_sorted({1.0, 3.0}), 2.0);  // midpoint when even
    EXPECT_EQ(median_sorted({1.0, 2.0, 9.0}), 2.0);
    EXPECT_EQ(median_sorted({1.0, 2.0, 3.0, 100.0}), 2.5);
}

TEST(Stats, MeanAndStddev)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_EQ(mean({2.0, 4.0}), 3.0);
    EXPECT_EQ(sample_stddev({}), 0.0);
    EXPECT_EQ(sample_stddev({5.0}), 0.0);  // N-1 would divide by zero
    // {2,4,4,4,5,5,7,9}: mean 5, sample variance 32/7.
    const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(sample_stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, CoefficientOfVariation)
{
    EXPECT_EQ(coefficient_of_variation({}), 0.0);
    EXPECT_EQ(coefficient_of_variation({42.0}), 0.0);
    EXPECT_EQ(coefficient_of_variation({5.0, 5.0, 5.0}), 0.0);
    // Zero mean: CoV undefined, reported as 0 rather than inf.
    EXPECT_EQ(coefficient_of_variation({-1.0, 1.0}), 0.0);
    const std::vector<double> v = {90.0, 100.0, 110.0};
    EXPECT_NEAR(coefficient_of_variation(v), 10.0 / 100.0, 1e-12);
}

TEST(Stats, SummarizeSortsOnce)
{
    // Unsorted input; every derived statistic must agree with the
    // sorted view.
    const SampleSummary s = summarize({5.0, 1.0, 3.0, 2.0, 4.0});
    EXPECT_EQ(s.count, 5u);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 5.0);
    EXPECT_EQ(s.mean, 3.0);
    EXPECT_EQ(s.median, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
    EXPECT_NEAR(s.cov, std::sqrt(2.5) / 3.0, 1e-12);

    const SampleSummary empty = summarize({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.median, 0.0);
    EXPECT_EQ(empty.cov, 0.0);
}

TEST(Stats, SortSamples)
{
    std::vector<double> v = {3.0, 1.0, 2.0};
    sort_samples(&v);
    EXPECT_EQ(v, (std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace hdvb
