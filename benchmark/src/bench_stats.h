#ifndef NGB_BENCHMARK_BENCH_STATS_H
#define NGB_BENCHMARK_BENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

/**
 * @file
 * The statistics and output checks the end-to-end benchmark reports
 * with. Kept apart from the workloads so the unit test can pin them.
 */

namespace ngb {
namespace bench {

/**
 * The @p q quantile (0..1) of @p v, linearly interpolated between
 * order statistics. Empty input gives 0.
 */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * True when a sample of @p n holds at least ten values beyond the
 * @p percentile (0..100): the rule for which tail percentile a sample
 * can report.
 */
bool supportsPercentile(size_t n, double percentile);

/** Geometric mean of positive values; 0 when empty or any value <= 0. */
double geomean(const std::vector<double> &v);

/** What happened to one attempted request. */
struct Outcome {
    bool served = false;  ///< false: rejected at admission or failed
    double latencyMs = 0; ///< meaningful only when served
};

/**
 * Requests served within @p limitMs, per second of @p seconds (0 when
 * seconds <= 0). A request that was rejected or failed misses every
 * latency limit, so it never counts.
 */
double goodputRps(const std::vector<Outcome> &outcomes, double limitMs,
                  double seconds);

/** How a request's outputs must match the outputs it is checked against. */
enum class Check {
    Bits,   ///< bit-for-bit (same graph, same backend, serial oracle)
    Close,  ///< element-wise float tolerance (another backend, f32)
    Quant,  ///< relative L2 per output (int8 against the float graph)
};

/** Empty when @p got matches @p want under @p check, else why not. */
std::string compareOutputs(Check check, const std::vector<Tensor> &got,
                           const std::vector<Tensor> &want);

}  // namespace bench
}  // namespace ngb

#endif  // NGB_BENCHMARK_BENCH_STATS_H
