#ifndef NGB_BENCHMARK_WORKLOADS_H
#define NGB_BENCHMARK_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "span_log.h"

namespace ngb {
namespace bench {

/** One reported number: printed as "name value unit". */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;  ///< length of the measured window(s)
};

struct RunResult {
    /** End-to-end metrics except setup_s, which the caller adds from
     *  several set-ups (see measureSetup). */
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;     ///< the traced run's ledger
    std::vector<Metric> diagnostics;  ///< per-model rows, phase detail
    std::vector<std::string> warnings;
    std::vector<std::string> errors;  ///< failures and mismatches

    int64_t attempted = 0;
    int64_t failed = 0;  ///< failed + rejected + output mismatches
    double setupS = 0;   ///< this process's own set-up time

    /** The serving session itself failed: its remaining requests
     *  count as failed and the process must exit nonzero. */
    bool fatal = false;
};

/** The four workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Pool threads @p workload runs with (the caller participates). */
int poolThreads(const std::string &workload);

/**
 * Build every engine of @p workload and warm it up, exactly as
 * runWorkload does before measuring, and return the wall seconds from
 * the first Engine constructor to the end of warm-up. Run in a fresh
 * process, so that tile tuning is paid again.
 */
double measureSetup(const std::string &workload);

/**
 * Set up, measure for opt.seconds, check outputs and compute every
 * metric of @p opt.workload. @p spans records the benchmark's spans
 * and selects the traced requests when enabled.
 */
RunResult runWorkload(const RunOptions &opt, SpanLog &spans);

}  // namespace bench
}  // namespace ngb

#endif  // NGB_BENCHMARK_WORKLOADS_H
