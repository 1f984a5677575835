#include "bench_stats.h"

#include <algorithm>
#include <cmath>

#include "runtime/request_util.h"

namespace ngb {
namespace bench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

bool
supportsPercentile(size_t n, double percentile)
{
    // Round before comparing: 1000 * (1 - 0.99) is 9.9999... in binary.
    double beyond = static_cast<double>(n) * (1.0 - percentile / 100.0);
    return std::round(beyond * 1e6) / 1e6 >= 10.0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
goodputRps(const std::vector<Outcome> &outcomes, double limitMs,
           double seconds)
{
    if (!(seconds > 0))
        return 0;
    int64_t good = 0;
    for (const Outcome &o : outcomes)
        good += o.served && o.latencyMs <= limitMs ? 1 : 0;
    return static_cast<double>(good) / seconds;
}

std::string
compareOutputs(Check check, const std::vector<Tensor> &got,
               const std::vector<Tensor> &want)
{
    switch (check) {
      case Check::Bits: return bitDifference(got, want);
      case Check::Close: return closeDifference(got, want);
      case Check::Quant: return quantDifference(got, want);
    }
    return "unknown check";
}

}  // namespace bench
}  // namespace ngb
