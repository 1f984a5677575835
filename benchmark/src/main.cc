// ngb_benchmark: the repository's end-to-end benchmark, one workload per
// process. See benchmark/README.md for the workloads and metrics.

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "obs/json_util.h"
#include "platform/cpu_features.h"
#include "span_log.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace ngb::bench;

/**
 * Set-ups measured per run: this many fresh child processes, each
 * paying tile tuning again, plus the measuring process itself.
 * setup_s is their median.
 */
constexpr int kSetupChildren = 4;

/**
 * Watchdogs: a run that has not finished this long after it started is
 * hung (a deadlocked pool waits forever), so it ends with a message and
 * a nonzero exit instead of blocking its caller. A set-up child gets
 * its own, since alarms do not survive fork.
 */
constexpr unsigned kRunSlackSeconds = 120;
constexpr unsigned kSetupChildSeconds = 60;

extern "C" void
onWatchdog(int)
{
    static const char msg[] =
        "ngb_benchmark: watchdog fired, the run is hung\n";
    ssize_t ignored = write(STDERR_FILENO, msg, sizeof msg - 1);
    (void)ignored;
    _exit(3);
}

void
usage()
{
    std::cerr << "usage: ngb_benchmark --workload NAME --seed N --seconds S"
                 " [--trace 0|1] [--trace-out FILE]\n  workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
}

struct Args {
    RunOptions run;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "ngb_benchmark: " << flag << " needs a value\n";
            return false;
        }
        const std::string value = argv[++i];
        try {
            size_t used = 0;
            if (flag == "--workload") {
                a.run.workload = value;
                haveWorkload = true;
            } else if (flag == "--seed") {
                if (value.empty() || value[0] == '-')
                    throw std::invalid_argument(value);
                a.run.seed = std::stoull(value, &used);
                haveSeed = used == value.size();
            } else if (flag == "--seconds") {
                a.run.seconds = std::stod(value, &used);
                haveSeconds = used == value.size() && a.run.seconds > 0 &&
                              a.run.seconds <= 3600;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    throw std::invalid_argument(value);
                a.trace = value == "1";
            } else if (flag == "--trace-out") {
                a.traceOut = value;
            } else {
                std::cerr << "ngb_benchmark: unknown flag " << flag << '\n';
                return false;
            }
        } catch (const std::exception &) {
            std::cerr << "ngb_benchmark: bad value for " << flag << ": "
                      << value << '\n';
            return false;
        }
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == a.run.workload;
    if (!haveWorkload || !known)
        std::cerr << "ngb_benchmark: --workload must name a workload\n";
    if (!haveSeed)
        std::cerr << "ngb_benchmark: --seed must be a whole number\n";
    if (!haveSeconds)
        std::cerr << "ngb_benchmark: --seconds must be in (0, 3600]\n";
    return haveWorkload && known && haveSeed && haveSeconds;
}

/** Names of the NGB_* variables in the environment. */
std::vector<std::string>
ngbVariables()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "NGB_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    return names;
}

/**
 * Set @p workload up in a forked child and return its set-up seconds,
 * or a negative value when the child failed. Called before this
 * process starts any thread, so the fork is safe.
 */
double
setupInChild(const std::string &workload)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1;
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        close(fds[0]);
        alarm(kSetupChildSeconds);
        double s = -1;
        try {
            s = measureSetup(workload);
        } catch (const std::exception &ex) {
            std::cerr << "ngb_benchmark: set-up failed: " << ex.what() << '\n';
        }
        bool sent = write(fds[1], &s, sizeof s) == sizeof s;
        _exit(sent && s >= 0 ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    ssize_t got;
    do {
        got = read(fds[0], &s, sizeof s);
    } while (got < 0 && errno == EINTR);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1;
    return s;
}

/** Every digit of @p v (the result line reports values as measured). */
std::string
allDigits(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    const std::vector<std::string> env = ngbVariables();
    if (!env.empty()) {
        std::cerr << "ngb_benchmark: refusing to run with";
        for (const std::string &name : env)
            std::cerr << ' ' << name;
        std::cerr << " set: the benchmark fixes every engine setting "
                     "itself, and these would change what it measures\n";
        return 2;
    }
    std::signal(SIGALRM, onWatchdog);
    alarm(static_cast<unsigned>(args.run.seconds) + kRunSlackSeconds);
    ngb::platform::setActiveIsaName("auto");

    const unsigned nproc = std::thread::hardware_concurrency();
    const RunOptions &opt = args.run;
    std::cout << "# ngb_benchmark workload=" << opt.workload
              << " seed=" << opt.seed << " seconds=" << opt.seconds
              << " trace=" << (args.trace ? 1 : 0) << '\n'
              << "# git_sha=" << NGB_BENCH_GIT_SHA
              << " machine=" << ngb::platform::machineTag()
              << " isa=" << ngb::platform::isaName(ngb::platform::activeIsa())
              << " nproc=" << nproc
              << " pool_threads=" << poolThreads(opt.workload)
              << " backend=simd fuse=on arena=on intraop=off scale=8\n";
    if (nproc < 4) {
        const std::string warn =
            "WARNING: only " + std::to_string(nproc) +
            " hardware threads; the workloads assume 4, so their threads "
            "will time-slice and the numbers are not comparable";
        std::cout << "# " << warn << '\n';
        std::cerr << "ngb_benchmark: " << warn << '\n';
    }

    std::vector<double> setups;
    for (int i = 0; i < kSetupChildren; ++i) {
        double s = setupInChild(opt.workload);
        if (s >= 0)
            setups.push_back(s);
        else
            std::cerr << "ngb_benchmark: a set-up child failed\n";
    }

    SpanLog spans(args.trace);
    RunResult r;
    try {
        r = runWorkload(opt, spans);
    } catch (const std::exception &ex) {
        std::cerr << "ngb_benchmark: " << ex.what() << '\n';
        return 1;
    }
    setups.push_back(r.setupS);
    std::cout << "# setup_s samples:";
    for (double s : setups)
        std::cout << ' ' << s;
    std::cout << '\n';
    r.endToEnd.push_back({"setup_s", median(setups), "s"});

    const std::vector<Metric> &reported =
        args.trace ? r.perLayer : r.endToEnd;
    bool finite = true;
    for (const Metric &m : reported)
        finite = finite && std::isfinite(m.value);
    if (!finite)
        r.errors.push_back("a metric is not a finite number");

    for (const Metric &m : r.diagnostics)
        std::cout << "# " << m.name << ' ' << allDigits(m.value) << ' '
                  << m.unit << '\n';
    for (const Metric &m : reported)
        std::cout << m.name << ' ' << allDigits(m.value) << ' ' << m.unit
                  << '\n';
    for (const std::string &w : r.warnings) {
        std::cout << "# warning: " << w << '\n';
        std::cerr << "ngb_benchmark: warning: " << w << '\n';
    }
    for (const std::string &e : r.errors) {
        std::cout << "# error: " << e << '\n';
        std::cerr << "ngb_benchmark: error: " << e << '\n';
    }

    if (args.trace) {
        std::string path = args.traceOut;
        if (path.empty())
            path = "ngb_benchmark-" + opt.workload + "-seed" +
                   std::to_string(opt.seed) + ".trace.json";
        if (spans.write(path))
            std::cout << "# trace: " << spans.size() << " spans -> " << path
                      << '\n';
        else
            std::cerr << "ngb_benchmark: could not write " << path << '\n';
    }

    const bool correct = r.failed == 0 && !r.fatal && finite;
    ngb::obs::JsonDict metrics;
    for (const Metric &m : reported) {
        ngb::obs::JsonDict v;
        v.addRaw("value", allDigits(std::isfinite(m.value) ? m.value : 0));
        v.add("unit", m.unit);
        metrics.addRaw(m.name, v.str());
    }
    ngb::obs::JsonDict result;
    result.add("correct", correct);
    result.add("attempted", static_cast<int64_t>(r.attempted));
    result.add("failed", static_cast<int64_t>(r.failed));
    result.addRaw("metrics", metrics.str());
    std::cout << result.str() << std::endl;
    return correct ? 0 : 1;
}
