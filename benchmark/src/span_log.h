#ifndef NGB_BENCHMARK_SPAN_LOG_H
#define NGB_BENCHMARK_SPAN_LOG_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ngb {
namespace bench {

/**
 * The benchmark's own spans, kept in memory for the traced run and
 * written once at exit as a Chrome/Perfetto trace. Each span sits
 * around one call the benchmark makes into a layer of the library
 * (an Engine constructor, Engine::run, RequestQueue::push, a request's
 * completion): name, start, end, the span that caused it, and the id
 * of the request it belongs to. Spans inside the library are not
 * recorded here.
 *
 * A disabled log records nothing and every call returns at once.
 * Thread-safe: the serve workload records from its generator and
 * batcher threads.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Track ids the trace names: one per benchmark thread. */
    enum Track : int { kMain = 0, kGenerator = 1, kBatcher = 2 };

    /**
     * Record a span with known bounds. Returns its index (the parent
     * handle for later spans), or -1 when the log is disabled. A span
     * that may overlap others on its track without nesting, such as one
     * request's lifetime, is @p async: it is written as a begin/end
     * pair keyed by its request id.
     */
    int add(const std::string &name, Track track, Clock::time_point start,
            Clock::time_point end, int parent = -1, uint64_t requestId = 0,
            bool async = false);

    /** Open a span that ends at close(); -1 when disabled. */
    int open(const std::string &name, Track track, int parent = -1,
             uint64_t requestId = 0);
    void close(int span);

    size_t size() const;

    /** Write every span through obs::ChromeTraceWriter; false on I/O
     *  failure. */
    bool write(const std::string &path) const;

  private:
    struct Span {
        std::string name;
        Track track = kMain;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        uint64_t requestId = 0;
        bool async = false;
    };

    double sinceEpochUs(Clock::time_point tp) const
    {
        return std::chrono::duration<double, std::micro>(tp - epoch_)
            .count();
    }

    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;  ///< guarded by mutex_
};

/** RAII open/close of one span on a (possibly disabled) log. */
class ScopedBenchSpan
{
  public:
    ScopedBenchSpan(SpanLog &log, const std::string &name,
                    SpanLog::Track track, int parent = -1,
                    uint64_t requestId = 0)
        : log_(log), index_(log.open(name, track, parent, requestId))
    {
    }
    ~ScopedBenchSpan() { log_.close(index_); }

    ScopedBenchSpan(const ScopedBenchSpan &) = delete;
    ScopedBenchSpan &operator=(const ScopedBenchSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanLog &log_;
    int index_;
};

}  // namespace bench
}  // namespace ngb

#endif  // NGB_BENCHMARK_SPAN_LOG_H
