/**
 * @file
 * Shared sample statistics for the measurement pipeline: nearest-rank
 * percentiles, median, and coefficient of variation. Both loadgens
 * used to carry private `percentile()` copies that truncated the rank
 * (p99 of a small sample collapsed toward p50) and re-sorted a
 * by-value copy on every call; the loadgens' percentiles and the
 * pareto/transcode sweeps' repeat medians and CoVs need one audited
 * implementation instead.
 *
 * Convention: callers sort a sample set once (sort_samples) and then
 * query the *_sorted accessors as often as they like; summarize() does
 * the sort internally for one-shot use.
 */
#ifndef HDVB_COMMON_STATS_H
#define HDVB_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace hdvb {

/** Sorts @p samples ascending in place (the precondition of every
 * *_sorted accessor below). */
void sort_samples(std::vector<double> *samples);

/**
 * Nearest-rank percentile of an ascending-sorted sample set: the
 * element at index ceil(q * N) - 1, clamped to [0, N-1]. Unlike the
 * old truncated-rank versions this never lands *above* the requested
 * rank — percentile_sorted(v, 0.5) of an even-sized set is the lower
 * middle element, and q=1.0 is exactly the maximum. Empty input
 * returns 0.0; @p q outside [0,1] is clamped.
 */
double percentile_sorted(const std::vector<double> &sorted, double q);

/** Median of an ascending-sorted sample set: midpoint of the two
 * middle elements when N is even, the middle element when odd. Empty
 * input returns 0.0. */
double median_sorted(const std::vector<double> &sorted);

/** Arithmetic mean; 0.0 on empty input. */
double mean(const std::vector<double> &samples);

/** Sample standard deviation (N-1 denominator); 0.0 for N < 2. */
double sample_stddev(const std::vector<double> &samples);

/**
 * Coefficient of variation: sample stddev over |mean|, the
 * dimensionless run-to-run noise estimate the pareto and transcode
 * sweeps publish next to each median. 0.0 for N < 2 (no spread
 * information) or a zero mean (undefined).
 */
double coefficient_of_variation(const std::vector<double> &samples);

/** One-shot summary of an unsorted sample set. */
struct SampleSummary {
    size_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double median = 0.0;
    double stddev = 0.0;  ///< sample stddev (N-1)
    double cov = 0.0;     ///< stddev / |mean|
};

/** Sorts a by-value copy of @p samples once and derives every summary
 * statistic from it. */
SampleSummary summarize(std::vector<double> samples);

}  // namespace hdvb

#endif  // HDVB_COMMON_STATS_H
