#include "span_log.h"

#include <fstream>

#include "obs/chrome_trace.h"

namespace ngb {
namespace bench {

int
SpanLog::add(const std::string &name, Track track, Clock::time_point start,
             Clock::time_point end, int parent, uint64_t requestId,
             bool async)
{
    if (!enabled_)
        return -1;
    Span s{name,   track,     sinceEpochUs(start), sinceEpochUs(end),
           parent, requestId, async};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

int
SpanLog::open(const std::string &name, Track track, int parent,
              uint64_t requestId)
{
    Clock::time_point now = Clock::now();
    return add(name, track, now, now, parent, requestId);
}

void
SpanLog::close(int span)
{
    if (!enabled_ || span < 0)
        return;
    double now = sinceEpochUs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(span)].endUs = now;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    {
        obs::ChromeTraceWriter w(os);
        const int pid = 1;
        w.processName(pid, "ngb_benchmark");
        w.threadName(pid, kMain, "main");
        w.threadName(pid, kGenerator, "generator");
        w.threadName(pid, kBatcher, "batcher");
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            obs::JsonDict args;
            args.add("span", static_cast<int64_t>(i));
            args.add("parent", static_cast<int64_t>(s.parent));
            args.add("request", s.requestId);
            const int tid = static_cast<int>(s.track);
            if (s.async) {
                w.asyncBegin(s.name, "bench", pid, tid, s.requestId,
                             s.startUs, args);
                w.asyncEnd(s.name, "bench", pid, tid, s.requestId, s.endUs);
            } else {
                w.completeEvent(s.name, "bench", pid, tid, s.startUs,
                                s.endUs - s.startUs, args);
            }
        }
    }
    return static_cast<bool>(os);
}

}  // namespace bench
}  // namespace ngb
