#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench_stats.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "platform/cpu_features.h"
#include "platform/tuning_cache.h"
#include "runtime/request_util.h"
#include "serve/dynamic_batcher.h"
#include "serve/engine.h"
#include "serve/load_gen.h"

namespace ngb {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration
secondsToDuration(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Engine settings: fixed here, never read from the environment ----

constexpr int64_t kScale = 8;

/** One request in this many has its outputs cloned and checked. */
constexpr uint64_t kCheckEvery = 64;

/** Runs per model and batch shape before timing: the first tunes. */
constexpr int kWarmupRuns = 2;

serve::EngineConfig
engineConfig(int64_t seqLen, const std::string &quant)
{
    serve::EngineConfig c;
    c.scale = kScale;
    c.seqLen = seqLen;
    c.backend = "simd";
    c.fuse = true;
    c.arena = true;
    c.quant = quant;
    c.isa = platform::isaName(platform::activeIsa());
    // Off, not auto: ThreadPool::parallelFor deals a region's tasks
    // before it stores their count, so a worker still scanning from the
    // previous region can run a new task and decrement a zero count,
    // and the caller then waits forever. Deep single-request runs open
    // regions microseconds apart and hang within minutes; with intra-op
    // off a lone request never enters the pool and batches run wide.
    c.intraop = IntraOpMode::Off;
    return c;
}

// ---- Workload definitions ---------------------------------------------

/**
 * A closed loop: one caller, round-robin over the models in a seeded
 * order, the next Engine::run issued as soon as the last returns.
 */
struct ClosedLoopSpec {
    std::string name;
    std::vector<std::string> models;
    int64_t seqLen = 32;
    std::string quant = "off";
    int batch = 1;  ///< requests per Engine::run
};

constexpr int kClosedLoopThreads = 4;

const std::vector<ClosedLoopSpec> &
closedLoops()
{
    // single_fp32: single-request latency, where these transformers
    //   spend 20-72% of kernel time in non-GEMM ops.
    // single_int8: the paper's quantization finding, int8 GEMM plus
    //   Q/DQ; the only workload that executes src/quant.
    // batch_cnn: wide inter-request batches with serial, fused
    //   Conv+BN+act kernels; non-GEMM is small and intra-op bypassed.
    static const std::vector<ClosedLoopSpec> specs = {
        {"single_fp32", {"vit_b", "swin_t", "segformer", "detr", "gpt2_l"},
         32, "off", 1},
        {"single_int8", {"gpt2_l", "llama3", "bert"}, 32, "int8", 1},
        {"batch_cnn", {"resnet50", "mobilenet_v2", "vgg16"}, 32, "off", 16},
    };
    return specs;
}

/**
 * serve_mix: an open loop at two fixed Poisson rates, then a closed
 * loop at a fixed number of outstanding requests. The only workload
 * that queues, batches by deadline and goes through the engine cache.
 * The rates are constants, about 25% and 60% of this workload's
 * capacity on a 4-thread x86 host, so that every commit is measured
 * at the same offered load.
 */
const std::vector<serve::MixEntry> &
serveMix()
{
    static const std::vector<serve::MixEntry> mix = {
        {"bert", 2}, {"gpt2", 2}, {"swin_t", 1}};
    return mix;
}

constexpr int64_t kServeSeqLen = 8;
constexpr int kServeThreads = 3;  // + the generator thread = 4
constexpr int kServeMaxBatch = 8;
constexpr int64_t kServeTimeoutUs = 2000;
constexpr size_t kServeQueueDepth = 4096;
constexpr double kLoRps = 600;
constexpr double kHiRps = 1400;
constexpr double kLoShare = 0.35;  ///< of --seconds; hi gets as much,
constexpr double kHiShare = 0.35;  ///< the saturated phase the rest
constexpr int kSatOutstanding = 32;
constexpr double kSloMs = 25;  ///< goodput latency limit at `hi`

// ---- What each run of an engine adds to the per-layer ledger ----------

/** Per-request constants of one engine's graph. */
struct EngineFacts {
    double gemmFlops = 0;  ///< modeled FLOPs of its GEMM kernels
    double kernels = 0;    ///< kernels one request executes
};

EngineFacts
factsOf(const serve::Engine &e)
{
    EngineFacts f;
    for (const Node &n : e.graph().nodes()) {
        if (n.inputs.empty())
            continue;  // graph inputs and parameters run no kernel
        f.kernels += 1;
        if (n.category() == OpCategory::Gemm)
            f.gemmFlops += n.cost.flops;
    }
    return f;
}

/** Sums of RuntimeProfile fields over every Engine::run of a window. */
struct OpTotals {
    int64_t runs = 0;
    int64_t requests = 0;
    int64_t steals = 0;
    int64_t heapAllocs = 0;
    double wallUs = 0;
    double kernelUs = 0;
    double laneUs = 0;  ///< wall x threads walking requests
    double poolUs = 0;  ///< wall x pool threads
    double gemmUs = 0;
    double int8GemmUs = 0;
    double gemmFlops = 0;
    double kernels = 0;
    std::map<OpCategory, double> categoryUs;

    void add(const RuntimeProfile &p, const EngineFacts &f)
    {
        // With intra-op off each pool thread walks whole requests, and
        // a lone request runs on the calling thread alone.
        const int lanes = std::min(p.threads, p.requests);
        ++runs;
        requests += p.requests;
        steals += p.steals;
        heapAllocs += p.memory.heapAllocs;
        wallUs += p.wallUs;
        kernelUs += p.sumUs;
        laneUs += p.wallUs * lanes;
        poolUs += p.wallUs * p.threads;
        gemmUs += p.gemmUs();
        int8GemmUs += p.quant.int8GemmUs;
        gemmFlops += f.gemmFlops * p.requests;
        kernels += f.kernels * p.requests;
        for (const auto &[cat, us] : p.usByCategory)
            categoryUs[cat] += us;
    }
};

/** Static facts summed over a workload's engines. */
struct EngineCensus {
    int64_t nodes = 0;
    int64_t fusedGroups = 0;
    int64_t qdqOps = 0;
    double packedWeightKib = 0;
    double arenaKib = 0;
    double planMs = 0;
    double graphMs = 0;

    void add(serve::Engine &e)
    {
        const Graph &g = e.graph();
        nodes += static_cast<int64_t>(g.size());
        for (const Node &n : g.nodes())
            fusedGroups += n.kind == OpKind::Fused ? 1 : 0;
        const RuntimeProfile &p = e.driver().profile();
        qdqOps += p.quant.qdqOps;
        packedWeightKib += static_cast<double>(p.quant.packedWeightBytes) /
                           1024.0;
        arenaKib += static_cast<double>(e.arenaBlocks()) *
                    static_cast<double>(e.arenaBlockBytes()) / 1024.0;
        planMs += p.planUs / 1e3;
        graphMs += (e.buildUs() - p.planUs) / 1e3;
    }
};

/** Everything the per-layer metrics are computed from. */
struct LayerInputs {
    OpTotals ops;
    EngineCensus census;
    double firstRunMs = 0;
    uint64_t tuneRuns = 0;
    std::vector<double> execMs;  ///< per-request engine execution
    std::vector<double> lagMs;   ///< how late each request was issued
    double queueFrac = 0;
    double batchSizeMean = 0;
    double timeoutCloseFrac = 0;
    int64_t rejected = 0;
    double cacheHitRate = 0;
    double traceOverheadFrac = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
categoryMetricName(OpCategory c)
{
    std::string name = opCategoryName(c);
    for (char &ch : name)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return "ops." + name + "_share";
}

/** The per-layer ledger, the same names on every workload. */
std::vector<Metric>
perLayerMetrics(const LayerInputs &in)
{
    const OpTotals &o = in.ops;
    const double req = static_cast<double>(std::max<int64_t>(o.requests, 1));
    const double nonGemmUs = o.kernelUs - o.gemmUs;
    std::vector<Metric> m = {
        {"ops.gemm_us", o.gemmUs / req, "us"},
        {"ops.nongemm_us", nonGemmUs / req, "us"},
        {"ops.nongemm_share", ratio(nonGemmUs, o.kernelUs), "frac"},
    };
    for (int c = static_cast<int>(OpCategory::Activation);
         c <= static_cast<int>(OpCategory::Misc); ++c) {
        auto cat = static_cast<OpCategory>(c);
        // No workload runs RoI ops, and fusion folds every softmax into
        // its neighbours: both shares would read 0 everywhere.
        if (cat == OpCategory::RoiSelection || cat == OpCategory::LogitCompute)
            continue;
        auto it = o.categoryUs.find(cat);
        double us = it != o.categoryUs.end() ? it->second : 0;
        m.push_back({categoryMetricName(cat), ratio(us, o.kernelUs), "frac"});
    }
    const double runs = static_cast<double>(std::max<int64_t>(o.runs, 1));
    std::vector<Metric> rest = {
        {"ops.gemm_gflops", ratio(o.gemmFlops, o.gemmUs) / 1e3, "GFLOP/s"},
        {"ops.kernels_per_request", o.kernels / req, "count"},
        {"quant.int8_gemm_share", ratio(o.int8GemmUs, o.kernelUs), "frac"},
        {"quant.qdq_ops", static_cast<double>(in.census.qdqOps), "count"},
        {"quant.packed_weight_kib", in.census.packedWeightKib, "KiB"},
        {"deploy.nodes", static_cast<double>(in.census.nodes), "count"},
        {"deploy.fused_groups", static_cast<double>(in.census.fusedGroups),
         "count"},
        {"runtime.plan_ms", in.census.planMs, "ms"},
        {"runtime.sched_share", 1.0 - ratio(o.kernelUs, o.laneUs), "frac"},
        {"runtime.concurrency", ratio(o.kernelUs, o.wallUs), "x"},
        {"runtime.utilization", ratio(o.kernelUs, o.poolUs), "frac"},
        {"runtime.steals", static_cast<double>(o.steals) / runs, "count"},
        {"runtime.arena_kib", in.census.arenaKib, "KiB"},
        {"serve.queue_frac", in.queueFrac, "frac"},
        {"serve.exec_ms_p50", quantile(in.execMs, 0.50), "ms"},
        {"serve.exec_ms_p99", quantile(in.execMs, 0.99), "ms"},
        {"serve.batch_size_mean", in.batchSizeMean, "count"},
        {"serve.timeout_close_frac", in.timeoutCloseFrac, "frac"},
        {"serve.rejected", static_cast<double>(in.rejected), "count"},
        {"serve.cache_hit_rate", in.cacheHitRate, "frac"},
        {"platform.tune_runs", static_cast<double>(in.tuneRuns), "count"},
        {"platform.first_run_ms", in.firstRunMs, "ms"},
        {"models.graph_ms", in.census.graphMs, "ms"},
        {"tensor.heap_allocs_per_request",
         static_cast<double>(o.heapAllocs) / req, "count"},
        {"bench.generator_lag_ms_p99", quantile(in.lagMs, 0.99), "ms"},
        {"bench.trace_overhead_frac", in.traceOverheadFrac, "frac"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

// ---- Output checks ------------------------------------------------------

/** A request whose outputs were cloned in the completion path. */
struct Sample {
    size_t model = 0;
    uint64_t seed = 0;
    std::vector<Tensor> outputs;
};

std::vector<Tensor>
cloneOutputs(const std::vector<Tensor> &outs)
{
    std::vector<Tensor> copy;
    copy.reserve(outs.size());
    for (const Tensor &t : outs)
        copy.push_back(t.clone());
    return copy;
}

/**
 * Check every sample bit-for-bit against a serial Executor on the
 * engine's own graph and backend, and one sample per model against the
 * reference backend on the unfused float graph (element-wise tolerance
 * for f32, relative L2 for int8). A model that no sampled request hit
 * gets one request run now. Returns the requests that failed a check.
 */
int64_t
checkOutputs(const std::vector<serve::Engine *> &engines,
             std::vector<Sample> &samples, uint64_t seed, int64_t seqLen,
             bool int8, SpanLog &spans, std::vector<std::string> &errors)
{
    int64_t failed = 0;
    int root = spans.open("check outputs", SpanLog::kMain);
    for (size_t m = 0; m < engines.size(); ++m) {
        serve::Engine &e = *engines[m];
        ScopedBenchSpan span(spans, "check " + e.model(), SpanLog::kMain,
                             root);
        bool sampled =
            std::any_of(samples.begin(), samples.end(),
                        [&](const Sample &s) { return s.model == m; });
        if (!sampled) {
            uint64_t s = serve::requestSeed(seed, 0xc4ec, m);
            auto outs = e.run({makeRequestInputs(e.graph(), s)});
            samples.push_back({m, s, cloneOutputs(outs[0])});
        }
        Executor serial(e.graph(), e.backend());
        bool referenceChecked = false;
        for (const Sample &s : samples) {
            if (s.model != m)
                continue;
            std::string diff = compareOutputs(
                Check::Bits, s.outputs,
                serial.run(makeRequestInputs(e.graph(), s.seed)));
            if (!diff.empty())
                diff = "differs from the serial Executor: " + diff;
            if (diff.empty() && !referenceChecked) {
                referenceChecked = true;
                ModelConfig mc;
                mc.seqLen = seqLen;
                mc.testScale = kScale;
                Graph ref = models::findModel(e.model()).build(mc);
                Executor oracle(ref, referenceBackend());
                diff = compareOutputs(
                    int8 ? Check::Quant : Check::Close, s.outputs,
                    oracle.run(makeRequestInputs(ref, s.seed)));
                if (!diff.empty())
                    diff = "differs from the reference backend on the "
                           "unfused float graph: " + diff;
            }
            if (!diff.empty()) {
                ++failed;
                errors.push_back(e.model() + " request seed " +
                                 std::to_string(s.seed) + " " + diff);
            }
        }
    }
    spans.close(root);
    return failed;
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    uint64_t state = seed;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[serve::nextRand(state) % i]);
    return order;
}

std::vector<std::vector<Tensor>>
requestInputs(const Graph &g, const std::vector<uint64_t> &seeds)
{
    std::vector<std::vector<Tensor>> reqs;
    reqs.reserve(seeds.size());
    for (uint64_t s : seeds)
        reqs.push_back(makeRequestInputs(g, s));
    return reqs;
}

/** Seeds of @p n warm-up requests, apart from every measured seed. */
std::vector<uint64_t>
warmupSeeds(size_t model, int run, int n)
{
    std::vector<uint64_t> seeds;
    for (int i = 0; i < n; ++i)
        seeds.push_back(serve::requestSeed(0x3a7e, model * 64 + run, i));
    return seeds;
}

// ---- Closed loops: single_fp32, single_int8, batch_cnn ----------------

struct ClosedLoopSetup {
    ThreadPool pool{kClosedLoopThreads};
    std::vector<std::unique_ptr<serve::Engine>> engines;
    std::vector<EngineFacts> facts;
    double seconds = 0;
    double firstRunMs = 0;
};

std::unique_ptr<ClosedLoopSetup>
setUpClosedLoop(const ClosedLoopSpec &spec, SpanLog &spans)
{
    auto s = std::make_unique<ClosedLoopSetup>();
    const serve::EngineConfig cfg = engineConfig(spec.seqLen, spec.quant);
    ScopedBenchSpan root(spans, "setup", SpanLog::kMain);
    const auto t0 = Clock::now();
    for (size_t m = 0; m < spec.models.size(); ++m) {
        const std::string &model = spec.models[m];
        {
            ScopedBenchSpan span(spans, "Engine " + model, SpanLog::kMain,
                                 root.index());
            s->engines.push_back(
                std::make_unique<serve::Engine>(model, cfg, s->pool));
        }
        serve::Engine &e = *s->engines.back();
        s->facts.push_back(factsOf(e));
        ScopedBenchSpan span(spans, "warm-up " + model, SpanLog::kMain,
                             root.index());
        for (int w = 0; w < kWarmupRuns; ++w) {
            auto reqs = requestInputs(e.graph(), warmupSeeds(m, w, spec.batch));
            const auto r0 = Clock::now();
            e.run(reqs);
            if (w == 0)
                s->firstRunMs += msBetween(r0, Clock::now());
        }
    }
    s->seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return s;
}

RunResult
runClosedLoop(const ClosedLoopSpec &spec, const RunOptions &opt,
              SpanLog &spans)
{
    RunResult res;
    auto setup = setUpClosedLoop(spec, spans);
    res.setupS = setup->seconds;
    LayerInputs layers;
    layers.firstRunMs = setup->firstRunMs;
    layers.tuneRuns = simd::TuningCache::process().stats().tuneRuns;

    const size_t nModels = spec.models.size();
    const size_t batch = static_cast<size_t>(spec.batch);
    const std::vector<size_t> order = seededOrder(nModels, opt.seed);
    std::vector<std::vector<double>> latMs(nModels);
    std::vector<std::vector<double>> tracedMs(nModels), untracedMs(nModels);
    std::vector<uint64_t> issued(nModels, 0);
    std::vector<Sample> samples;
    uint64_t requestId = 0;
    int64_t served = 0;
    double servedRunS = 0;  ///< time inside Engine::run of served batches

    const int window = spans.open("window", SpanLog::kMain);
    const auto t0 = Clock::now();
    const auto deadline = t0 + secondsToDuration(opt.seconds);
    auto prevDone = t0;
    for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const size_t m = order[i % nModels];
        serve::Engine &e = *setup->engines[m];
        std::vector<uint64_t> seeds;
        for (size_t b = 0; b < batch; ++b)
            seeds.push_back(serve::requestSeed(opt.seed, m + 1, issued[m]++));
        const auto reqs = requestInputs(e.graph(), seeds);
        // Every other round is traced, so the traced run measures its
        // own overhead against the rounds it leaves alone.
        const bool traced = spans.enabled() && (i / nModels) % 2 == 0;

        const auto start = Clock::now();
        layers.lagMs.push_back(msBetween(prevDone, start));
        std::vector<std::vector<Tensor>> outs;
        try {
            outs = e.run(reqs);
        } catch (const std::exception &ex) {
            res.errors.push_back(e.model() + ": Engine::run threw: " +
                                 ex.what());
        }
        const auto done = Clock::now();
        prevDone = done;
        res.attempted += static_cast<int64_t>(batch);
        requestId += batch;
        if (outs.size() != batch) {
            res.failed += static_cast<int64_t>(batch);
            continue;
        }
        served += static_cast<int64_t>(batch);

        const double ms = msBetween(start, done);
        servedRunS += ms / 1e3;
        latMs[m].push_back(ms);
        if (spans.enabled()) {
            (traced ? tracedMs : untracedMs)[m].push_back(ms);
            if (traced)
                spans.add("Engine::run " + e.model(), SpanLog::kMain, start,
                          done, window, requestId);
        }
        layers.ops.add(e.driver().profile(), setup->facts[m]);
        for (size_t b = 0; b < batch; ++b)
            if ((requestId - batch + b) % kCheckEvery == 0)
                samples.push_back({m, seeds[b], cloneOutputs(outs[b])});
    }
    spans.close(window);
    const double rssMb = peakRssMb();

    std::vector<serve::Engine *> engines;
    for (auto &e : setup->engines) {
        engines.push_back(e.get());
        layers.census.add(*e);
    }
    res.failed += checkOutputs(engines, samples, opt.seed, spec.seqLen,
                               spec.quant != "off", spans, res.errors);

    std::vector<double> p50s, p95s, overheads;
    for (size_t m = 0; m < nModels; ++m) {
        const std::string &model = spec.models[m];
        const size_t n = latMs[m].size();
        if (!supportsPercentile(n, 95))
            res.warnings.push_back(model + ": " + std::to_string(n) +
                                   " samples do not support p95");
        p50s.push_back(median(latMs[m]));
        p95s.push_back(quantile(latMs[m], 0.95));
        layers.execMs.insert(layers.execMs.end(), latMs[m].begin(),
                             latMs[m].end());
        res.diagnostics.push_back(
            {"model." + model + ".latency_ms_p50", p50s.back(), "ms"});
        res.diagnostics.push_back(
            {"model." + model + ".latency_ms_p95", p95s.back(), "ms"});
        res.diagnostics.push_back(
            {"model." + model + ".samples", static_cast<double>(n), "count"});
        if (!tracedMs[m].empty() && !untracedMs[m].empty())
            overheads.push_back(median(tracedMs[m]) / median(untracedMs[m]));
    }
    layers.batchSizeMean = static_cast<double>(batch);
    layers.traceOverheadFrac = overheads.empty() ? 0 : geomean(overheads) - 1;

    res.endToEnd = {
        {"latency_ms_p50", geomean(p50s), "ms"},
        {"latency_ms_p95", geomean(p95s), "ms"},
        // Per second inside Engine::run: the caller's own time between
        // requests (making inputs, checking) is not the system's.
        {"throughput_rps", ratio(static_cast<double>(served), servedRunS),
         "1/s"},
        {"peak_rss_mb", rssMb, "MB"},
    };
    res.perLayer = perLayerMetrics(layers);
    return res;
}

// ---- serve_mix ----------------------------------------------------------

struct ServeSetup {
    ServeSetup()
        : pool(kServeThreads), cache(pool, engineConfig(kServeSeqLen, "off"))
    {
    }
    ThreadPool pool;
    serve::EngineCache cache;
    std::vector<serve::Engine *> engines;  ///< in serveMix() order
    std::vector<EngineFacts> facts;
    double seconds = 0;
    double firstRunMs = 0;
};

std::unique_ptr<ServeSetup>
setUpServe(SpanLog &spans)
{
    auto s = std::make_unique<ServeSetup>();
    ScopedBenchSpan root(spans, "setup", SpanLog::kMain);
    const auto t0 = Clock::now();
    const auto &mix = serveMix();
    for (size_t m = 0; m < mix.size(); ++m) {
        {
            ScopedBenchSpan span(spans, "Engine " + mix[m].model,
                                 SpanLog::kMain, root.index());
            s->engines.push_back(&s->cache.get(mix[m].model));
        }
        serve::Engine &e = *s->engines.back();
        s->facts.push_back(factsOf(e));
        // Warm up a lone request and a full batch: the batch also
        // brings the engine's arena pool up to kServeMaxBatch blocks.
        ScopedBenchSpan span(spans, "warm-up " + mix[m].model,
                             SpanLog::kMain, root.index());
        for (int batch : {1, kServeMaxBatch}) {
            for (int w = 0; w < kWarmupRuns; ++w) {
                auto reqs = requestInputs(
                    e.graph(), warmupSeeds(m, batch * kWarmupRuns + w, batch));
                const auto r0 = Clock::now();
                e.run(reqs);
                if (w == 0)
                    s->firstRunMs += msBetween(r0, Clock::now());
            }
        }
    }
    s->seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return s;
}

/**
 * One serving session of serve_mix: the queue, the batcher and the
 * benchmark's record of every request. Open-loop requests have ids
 * [0, openLoop); saturated-phase requests follow. Completion callbacks
 * run on the batcher thread; the caller reads the records only after
 * the phases have drained and close() has joined the batcher.
 */
class ServeSession
{
  public:
    ServeSession(ServeSetup &setup, uint64_t seed, size_t openLoop,
                 SpanLog &spans)
        : setup_(setup), seed_(seed), spans_(spans), openLoop_(openLoop),
          due_(openLoop), done_(openLoop), served_(openLoop, 0),
          queue_(kServeQueueDepth, AdmissionPolicy::Reject),
          batcher_(queue_, setup.cache, {kServeMaxBatch, kServeTimeoutUs},
                   [this](const RequestRecord &rec,
                          const std::vector<Tensor> &) {
                       onBatchRequest(rec);
                   })
    {
        for (size_t m = 0; m < serveMix().size(); ++m)
            modelIndex_[serveMix()[m].model] = m;
        batcher_.start();
    }

    ServeSession(const ServeSession &) = delete;
    ServeSession &operator=(const ServeSession &) = delete;

    /**
     * Push @p events from one generator thread, each at its scheduled
     * time after @p t0, then wait until every one has completed,
     * failed or been rejected.
     */
    void runOpenLoop(const std::vector<serve::TraceEvent> &events,
                     Clock::time_point t0)
    {
        expect(static_cast<int64_t>(events.size()));
        lagMs_.reserve(events.size());
        std::thread generator([&] {
            for (size_t i = 0; i < events.size(); ++i) {
                due_[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       events[i].atUs));
                std::this_thread::sleep_until(due_[i]);
                if (queue_.closed()) {
                    // The batcher failed: the phase ends, and every
                    // request not pushed yet stays unserved.
                    finish(static_cast<int64_t>(events.size() - i));
                    break;
                }
                submit(i, events[i].model, events[i].seed, due_[i], -1, 0);
            }
        });
        generator.join();
        waitDrained();
    }

    /**
     * Closed loop of kSatOutstanding clients, each issuing its next
     * request when the last completes, for @p seconds. Returns the
     * completions that landed inside the window.
     */
    int64_t runSaturated(double seconds)
    {
        satEnd_ = Clock::now() + secondsToDuration(seconds);
        expect(kSatOutstanding);
        for (int c = 0; c < kSatOutstanding; ++c)
            issueSaturated(c, 0);
        waitDrained();
        return satCompleted_.load();
    }

    /** Close the queue and join the batcher; false if it failed. */
    bool close(std::string &error)
    {
        queue_.close();
        try {
            batcher_.join();
        } catch (const std::exception &ex) {
            error = ex.what();
            return false;
        }
        return true;
    }

    const ServeStats &stats() const { return batcher_.stats(); }
    const OpTotals &ops() const { return ops_; }
    std::vector<Sample> &samples() { return samples_; }
    const std::vector<double> &lagMs() const { return lagMs_; }
    int64_t rejected() const { return rejected_.load(); }
    int64_t satIssued() const { return satIssued_.load(); }
    int64_t satFailed() const { return satFailed_.load(); }

    /** Open-loop outcomes of ids [begin, end), timed from due time. */
    std::vector<Outcome> outcomes(size_t begin, size_t end) const
    {
        std::vector<Outcome> out;
        for (size_t i = begin; i < end; ++i)
            out.push_back({served_[i] != 0,
                           served_[i] ? msBetween(due_[i], done_[i]) : 0});
        return out;
    }

    /** Served open-loop latencies of ids [begin, end): all of them, or
     *  only the traced (even) or untraced (odd) ids. */
    enum class Ids { All, Traced, Untraced };
    std::vector<double> latencies(size_t begin, size_t end,
                                  Ids ids = Ids::All) const
    {
        std::vector<double> out;
        for (size_t i = begin; i < end; ++i) {
            bool even = i % 2 == 0;
            if (served_[i] && (ids == Ids::All || even == (ids == Ids::Traced)))
                out.push_back(msBetween(due_[i], done_[i]));
        }
        return out;
    }

  private:
    /** The traced run records spans for even ids and leaves odd ids
     *  alone, so it measures its own overhead. */
    bool traced(uint64_t id) const { return spans_.enabled() && id % 2 == 0; }

    /** Push one request; @p client < 0 marks an open-loop request. */
    void submit(uint64_t id, const std::string &model, uint64_t seed,
                Clock::time_point due, int client, uint64_t n)
    {
        const SpanLog::Track track =
            client < 0 ? SpanLog::kGenerator : SpanLog::kBatcher;
        const int span = traced(id) ? spans_.add("request " + model, track,
                                                 due, due, -1, id + 1, true)
                                    : -1;
        ServeRequest r;
        r.id = id;
        r.model = model;
        r.seed = seed;
        r.onComplete = [this, id, m = modelIndex_.at(model), seed, client, n,
                        span](std::vector<Tensor> &&outs) {
            complete(id, m, seed, client, n, span, outs);
        };
        const auto pushStart = Clock::now();
        if (client < 0)
            lagMs_.push_back(msBetween(due, pushStart));
        const bool admitted = queue_.push(std::move(r));
        if (span >= 0)
            spans_.add("RequestQueue::push", track, pushStart, Clock::now(),
                       span, id + 1);
        if (!admitted) {
            ++rejected_;
            if (client >= 0)
                ++satFailed_;
            finish(1);
        }
    }

    void issueSaturated(int client, uint64_t n)
    {
        const uint64_t id = openLoop_ + satNext_.fetch_add(1);
        const uint64_t seed =
            serve::requestSeed(seed_, 2 + static_cast<uint64_t>(client), n);
        uint64_t state = seed;
        const std::string &model =
            serve::pickModel(serveMix(), serve::nextU01(state));
        ++satIssued_;
        submit(id, model, seed, Clock::now(), client, n);
    }

    void complete(uint64_t id, size_t m, uint64_t seed, int client,
                  uint64_t n, int span, const std::vector<Tensor> &outs)
    {
        const auto now = Clock::now();
        const int completion =
            traced(id) ? spans_.open("completion", SpanLog::kBatcher, span,
                                     id + 1)
                       : -1;
        const bool ok = !outs.empty();
        if (ok && id % kCheckEvery == 0)
            samples_.push_back({m, seed, cloneOutputs(outs)});
        if (client < 0) {
            done_[id] = now;
            served_[id] = ok ? 1 : 0;
        } else if (!ok) {
            ++satFailed_;
        } else if (now <= satEnd_) {
            ++satCompleted_;
        }
        spans_.close(completion);
        spans_.close(span);
        if (client >= 0 && ok && now < satEnd_)
            issueSaturated(client, n + 1);
        else
            finish(1);
    }

    /** Runs on the batcher thread for every served request, right
     *  after its batch ran: the first request of each batch adds the
     *  batch's RuntimeProfile to the ledger. */
    void onBatchRequest(const RequestRecord &rec)
    {
        if (batchLeft_ == 0) {
            batchLeft_ = rec.batchSize;
            const size_t m = modelIndex_.at(rec.model);
            ops_.add(setup_.engines[m]->driver().profile(), setup_.facts[m]);
        }
        --batchLeft_;
    }

    void expect(int64_t requests)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_ += requests;
    }

    void finish(int64_t requests)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_ -= requests;
        drained_.notify_all();
    }

    void waitDrained()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        drained_.wait(lock, [&] { return outstanding_ <= 0; });
    }

    ServeSetup &setup_;
    const uint64_t seed_;
    SpanLog &spans_;
    std::map<std::string, size_t> modelIndex_;

    const size_t openLoop_;
    std::vector<Clock::time_point> due_;   ///< generator thread
    std::vector<Clock::time_point> done_;  ///< batcher thread
    std::vector<char> served_;             ///< batcher thread
    std::vector<double> lagMs_;            ///< generator thread
    std::vector<Sample> samples_;          ///< batcher thread
    OpTotals ops_;                         ///< batcher thread
    int batchLeft_ = 0;                    ///< batcher thread

    Clock::time_point satEnd_;  ///< set before the first saturated push
    std::atomic<uint64_t> satNext_{0};
    std::atomic<int64_t> satIssued_{0};
    std::atomic<int64_t> satCompleted_{0};
    std::atomic<int64_t> satFailed_{0};
    std::atomic<int64_t> rejected_{0};

    std::mutex mutex_;
    std::condition_variable drained_;
    int64_t outstanding_ = 0;  ///< guarded by mutex_

    RequestQueue queue_;
    // Declared last: its thread calls back into the members above, so
    // it is closed and joined before any of them is destroyed.
    serve::DynamicBatcher batcher_;
};

RunResult
runServeMix(const RunOptions &opt, SpanLog &spans)
{
    RunResult res;
    auto setup = setUpServe(spans);
    res.setupS = setup->seconds;
    LayerInputs layers;
    layers.firstRunMs = setup->firstRunMs;
    layers.tuneRuns = simd::TuningCache::process().stats().tuneRuns;

    const double loS = opt.seconds * kLoShare;
    const double hiS = opt.seconds * kHiShare;
    const double satS = opt.seconds - loS - hiS;
    std::vector<serve::TraceEvent> events =
        serve::poissonTrace(serveMix(), kLoRps, loS, opt.seed);
    const size_t nLo = events.size();
    for (serve::TraceEvent ev : serve::poissonTrace(
             serveMix(), kHiRps, hiS, serve::requestSeed(opt.seed, 1, 0))) {
        ev.atUs += loS * 1e6;
        events.push_back(std::move(ev));
    }
    const size_t nOpen = events.size();

    ServeSession session(*setup, opt.seed, nOpen, spans);
    const int window = spans.open("window", SpanLog::kMain);
    session.runOpenLoop(events, Clock::now());
    const int64_t satCompleted = session.runSaturated(satS);
    spans.close(window);
    const double rssMb = peakRssMb();
    std::string error;
    if (!session.close(error)) {
        res.fatal = true;
        res.errors.push_back("the batcher failed: " + error);
    }

    const std::vector<Outcome> open = session.outcomes(0, nOpen);
    const std::vector<Outcome> hi(open.begin() + static_cast<ptrdiff_t>(nLo),
                                  open.end());
    res.attempted = static_cast<int64_t>(nOpen) + session.satIssued();
    res.failed = std::count_if(open.begin(), open.end(),
                               [](const Outcome &o) { return !o.served; }) +
                 session.satFailed();
    res.failed += checkOutputs(setup->engines, session.samples(), opt.seed,
                               kServeSeqLen, false, spans, res.errors);

    const std::vector<double> loMs = session.latencies(0, nLo);
    const std::vector<double> hiMs = session.latencies(nLo, nOpen);
    if (!supportsPercentile(loMs.size(), 95))
        res.warnings.push_back(std::to_string(loMs.size()) +
                               " requests at lo do not support p95");
    // Latency is gated at lo. At hi, queueing amplifies every shift in
    // the host's speed: over 10 seeds on a shared 4-vCPU host the p50
    // at hi spread 8-14% and its p95 8-21%, against 2-5% and 4-10% at
    // lo. The hi figures are printed as diagnostics.
    res.endToEnd = {
        {"latency_ms_p50", median(loMs), "ms"},
        {"latency_ms_p95", quantile(loMs, 0.95), "ms"},
        {"throughput_rps", static_cast<double>(satCompleted) / satS, "1/s"},
        {"peak_rss_mb", rssMb, "MB"},
    };
    res.diagnostics = {
        {"offered_rps_lo", static_cast<double>(nLo) / loS, "1/s"},
        {"offered_rps_hi", static_cast<double>(nOpen - nLo) / hiS, "1/s"},
        {"latency_ms_p99_lo", quantile(loMs, 0.99), "ms"},
        {"latency_ms_p50_hi", median(hiMs), "ms"},
        {"latency_ms_p95_hi", quantile(hiMs, 0.95), "ms"},
        {"latency_ms_p99_hi", quantile(hiMs, 0.99), "ms"},
        {"goodput_rps_hi", goodputRps(hi, kSloMs, hiS), "1/s"},
        {"saturated_completed", static_cast<double>(satCompleted), "count"},
    };

    const ServeStats &st = session.stats();
    layers.ops = session.ops();
    double queueUs = 0, totalUs = 0;
    for (const RequestRecord &rec : st.requests) {
        layers.execMs.push_back(rec.execUs / 1e3);
        queueUs += rec.queueUs;
        totalUs += rec.totalUs();
    }
    const auto timeouts =
        std::count_if(st.batches.begin(), st.batches.end(),
                      [](const BatchRecord &b) { return b.closedByTimeout; });
    layers.queueFrac = ratio(queueUs, totalUs);
    layers.batchSizeMean = st.meanBatchSize();
    layers.timeoutCloseFrac = ratio(static_cast<double>(timeouts),
                                    static_cast<double>(st.batches.size()));
    layers.rejected = session.rejected();
    layers.cacheHitRate = st.cacheHitRate();
    layers.lagMs = session.lagMs();
    const double lagP99 = quantile(layers.lagMs, 0.99);
    if (lagP99 > 1.0)
        res.warnings.push_back(
            "INVALID RUN: generator lag p99 " + std::to_string(lagP99) +
            " ms exceeds 1 ms, so the open loop ran behind its schedule");
    if (spans.enabled()) {
        using Ids = ServeSession::Ids;
        double traced = median(session.latencies(0, nOpen, Ids::Traced));
        double untraced = median(session.latencies(0, nOpen, Ids::Untraced));
        layers.traceOverheadFrac = untraced > 0 ? traced / untraced - 1 : 0;
    }
    for (serve::Engine *e : setup->engines)
        layers.census.add(*e);
    res.perLayer = perLayerMetrics(layers);
    return res;
}

}  // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "single_fp32", "single_int8", "batch_cnn", "serve_mix"};
    return names;
}

int
poolThreads(const std::string &workload)
{
    return workload == "serve_mix" ? kServeThreads : kClosedLoopThreads;
}

double
measureSetup(const std::string &workload)
{
    SpanLog off(false);
    if (workload == "serve_mix")
        return setUpServe(off)->seconds;
    for (const ClosedLoopSpec &spec : closedLoops())
        if (spec.name == workload)
            return setUpClosedLoop(spec, off)->seconds;
    throw std::runtime_error("unknown workload " + workload);
}

RunResult
runWorkload(const RunOptions &opt, SpanLog &spans)
{
    if (opt.workload == "serve_mix")
        return runServeMix(opt, spans);
    for (const ClosedLoopSpec &spec : closedLoops())
        if (spec.name == opt.workload)
            return runClosedLoop(spec, opt, spans);
    throw std::runtime_error("unknown workload " + opt.workload);
}

}  // namespace bench
}  // namespace ngb
