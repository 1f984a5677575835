/**
 * @file
 * The kernel-backend API: registry completeness, fallback chains,
 * explicit kernel installation, backend-keyed engine caching, and the
 * cross-backend differential suite (every registry model, reference vs
 * optimized, serial and parallel).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "graph/builder.h"
#include "graph/executor.h"
#include "models/registry.h"
#include "ops/backend.h"
#include "ops/kernels.h"
#include "ops/optimized_kernels.h"
#include "runtime/batch_driver.h"
#include "runtime/request_util.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"

namespace ngb {
namespace {

namespace kn = kernels;
namespace ko = kernels::opt;

::testing::AssertionResult
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    std::string diff = bitDifference({a}, {b});
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

::testing::AssertionResult
tensorsClose(const Tensor &a, const Tensor &b, float rtol = 1e-3f,
             float atol = 1e-5f)
{
    std::string diff = closeDifference({a}, {b}, rtol, atol);
    if (diff.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << diff;
}

// ---- registry completeness guard -----------------------------------------

TEST(BackendRegistryTest, ReferenceCoversEveryOpIncludingFused)
{
    // Fused is REQUIRED since the executable-fusion rewrite: graphs
    // out of applyFusion dispatch Fused nodes like any other operator
    // (the reference backend interprets the folded chain; a chain
    // containing an op the interpreter cannot fold throws its own
    // descriptive error, covered in fusion_exec_test).
    const Backend &ref = referenceBackend();
    for (OpKind k : allOpKinds())
        EXPECT_TRUE(ref.handles(k))
            << "reference backend is missing a kernel for '"
            << opKindName(k) << "'";
    EXPECT_EQ(ref.numKernels(), allOpKinds().size());
}

TEST(BackendRegistryTest, OptimizedRegistersFusedKernel)
{
    EXPECT_TRUE(optimizedBackend().handles(OpKind::Fused));
}

TEST(BackendRegistryTest, UnknownOpLookupThrowsDescriptiveError)
{
    Backend bare("bare", nullptr);
    bare.registerKernel(OpKind::ReLU, [](const KernelContext &c) {
        return singleOutput(kn::relu(c.in(0)));
    });
    try {
        bare.kernelFor(OpKind::Fused);
        FAIL() << "expected unknown-op lookup to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("fused"), std::string::npos) << msg;
        EXPECT_NE(msg.find("bare"), std::string::npos) << msg;
    }
}

TEST(BackendRegistryTest, UnknownBackendNameThrows)
{
    try {
        findBackend("bogus");
        FAIL() << "expected unknown-backend lookup to throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("reference"), std::string::npos) << msg;
        EXPECT_NE(msg.find("optimized"), std::string::npos) << msg;
    }
}

TEST(BackendRegistryTest, BuiltinsResolveByName)
{
    EXPECT_EQ(&findBackend("reference"), &referenceBackend());
    EXPECT_EQ(&findBackend("optimized"), &optimizedBackend());
    EXPECT_EQ(optimizedBackend().fallback(), &referenceBackend());
    EXPECT_EQ(referenceBackend().fallback(), nullptr);
    // The optimized backend is a sparse overlay, not a full copy.
    EXPECT_GT(optimizedBackend().numKernels(), 0u);
    EXPECT_LT(optimizedBackend().numKernels(),
              referenceBackend().numKernels());
}

TEST(BackendRegistryTest, FallbackChainResolvesUnoverriddenOps)
{
    // Conv2d is not overridden by the optimized backend: lookup must
    // resolve through the fallback chain instead of throwing.
    EXPECT_FALSE(optimizedBackend().handles(OpKind::Conv2d));
    EXPECT_NO_THROW(optimizedBackend().kernelFor(OpKind::Conv2d));
    // An empty backend with no fallback reports the full chain.
    Backend lone("lone");
    EXPECT_THROW(lone.kernelFor(OpKind::ReLU), std::runtime_error);
}

// ---- explicit installation + fallback through an executor ----------------

TEST(BackendOverrideTest, InstalledKernelOverridesAndRestFallsBack)
{
    Graph g;
    GraphBuilder b(g);
    Value x = b.input(Shape{2, 8});
    Value h = b.linear(x, 8, true, "fc");
    b.output(b.relu(h));

    // A backend that stubs ReLU to zeros but inherits everything else.
    Backend stub("stub", &referenceBackend());
    stub.registerKernel(OpKind::ReLU, [](const KernelContext &c) {
        std::vector<Tensor> out;
        out.push_back(Tensor::zeros(c.node.outShapes[0]));
        return out;
    });
    EXPECT_TRUE(stub.handles(OpKind::ReLU));
    EXPECT_FALSE(stub.handles(OpKind::Linear));

    std::vector<Tensor> inputs = makeRequestInputs(g, 7);
    Executor ex(g, stub);
    std::vector<Tensor> outs = ex.run(inputs);
    ASSERT_EQ(outs.size(), 1u);
    for (int64_t i = 0; i < outs[0].numel(); ++i)
        EXPECT_EQ(outs[0].flatAt(i), 0.0f);

    // The same graph under the reference backend is not all zeros
    // (the stub really did take effect, Linear really did run).
    Executor ref(g, referenceBackend());
    std::vector<Tensor> refOuts = ref.run(inputs);
    bool anyNonZero = false;
    for (int64_t i = 0; i < refOuts[0].numel(); ++i)
        anyNonZero = anyNonZero || refOuts[0].flatAt(i) != 0.0f;
    EXPECT_TRUE(anyNonZero);
}

// ---- optimized kernels: order-preserving ops are bit-identical -----------

TEST(OptimizedKernelTest, OrderPreservingKernelsBitIdentical)
{
    Tensor x = Tensor::randn(Shape{64, 33}, 21);
    EXPECT_TRUE(tensorsBitIdentical(kn::relu(x), ko::relu(x)));
    EXPECT_TRUE(tensorsBitIdentical(kn::gelu(x), ko::gelu(x)));
    EXPECT_TRUE(tensorsBitIdentical(kn::silu(x), ko::silu(x)));
    EXPECT_TRUE(tensorsBitIdentical(kn::sigmoid(x), ko::sigmoid(x)));
    EXPECT_TRUE(tensorsBitIdentical(kn::tanhOp(x), ko::tanhOp(x)));
    EXPECT_TRUE(tensorsBitIdentical(kn::expOp(x), ko::expOp(x)));
    EXPECT_TRUE(
        tensorsBitIdentical(kn::addScalar(x, 0.5f), ko::addScalar(x, 0.5f)));
    EXPECT_TRUE(
        tensorsBitIdentical(kn::mulScalar(x, 1.5f), ko::mulScalar(x, 1.5f)));

    Tensor y = Tensor::randn(Shape{64, 33}, 22);
    EXPECT_TRUE(tensorsBitIdentical(kn::add(x, y), ko::add(x, y)));
    EXPECT_TRUE(tensorsBitIdentical(kn::sub(x, y), ko::sub(x, y)));
    EXPECT_TRUE(tensorsBitIdentical(kn::mul(x, y), ko::mul(x, y)));
    EXPECT_TRUE(tensorsBitIdentical(kn::div(x, y), ko::div(x, y)));

    // Last-dim softmax takes the raw-pointer fast path; same float
    // expressions in the same order.
    Tensor logits = Tensor::randn(Shape{5, 13, 17}, 23);
    EXPECT_TRUE(
        tensorsBitIdentical(kn::softmax(logits, -1), ko::softmax(logits, -1)));

    // BatchNorm hoists the per-channel affine but evaluates the same
    // expressions per element.
    Tensor img = Tensor::randn(Shape{2, 6, 9, 9}, 24);
    Tensor gm = Tensor::randn(Shape{6}, 25, 0.1f);
    Tensor bt = Tensor::randn(Shape{6}, 26, 0.1f);
    Tensor mn = Tensor::randn(Shape{6}, 27, 0.1f);
    Tensor vr = Tensor::full(Shape{6}, 0.9f);
    EXPECT_TRUE(tensorsBitIdentical(
        kn::batchNorm2d(img, gm, bt, mn, vr, 1e-5f),
        ko::batchNorm2d(img, gm, bt, mn, vr, 1e-5f)));
}

TEST(OptimizedKernelTest, NonFastInputsFallBackToReferenceSemantics)
{
    // F16 input: the fast path requires F32, so the optimized entry
    // must produce exactly what the reference does.
    Tensor h = Tensor::randn(Shape{40}, 31).to(DType::F16);
    EXPECT_TRUE(tensorsBitIdentical(kn::relu(h), ko::relu(h)));

    // Non-contiguous view input.
    Tensor x = Tensor::randn(Shape{12, 10}, 32).transpose(0, 1);
    EXPECT_TRUE(tensorsBitIdentical(kn::gelu(x), ko::gelu(x)));

    // Broadcasting add (shapes differ): reference broadcast path.
    Tensor a = Tensor::randn(Shape{8, 5}, 33);
    Tensor row = Tensor::randn(Shape{5}, 34);
    EXPECT_TRUE(tensorsBitIdentical(kn::add(a, row), ko::add(a, row)));

    // Softmax over a non-terminal dim: reference permuting path.
    Tensor t = Tensor::randn(Shape{4, 6, 8}, 35);
    EXPECT_TRUE(tensorsBitIdentical(kn::softmax(t, 1), ko::softmax(t, 1)));
}

TEST(OptimizedKernelTest, GemmMatchesReferenceAcrossEdgeShapes)
{
    // Shapes straddling the 4x16 register tile: exact multiples, tails
    // in M only, N only, both, and degenerate single-element GEMMs.
    const int64_t shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {4, 16, 16}, {5, 17, 33},
        {8, 32, 16}, {127, 63, 65}, {16, 1, 16}, {2, 300, 2},
    };
    for (const auto &s : shapes) {
        int64_t m = s[0], k = s[1], n = s[2];
        Tensor a = Tensor::randn(Shape{m, k}, 41 + m);
        Tensor b = Tensor::randn(Shape{k, n}, 43 + n);
        EXPECT_TRUE(tensorsClose(ko::matmul(a, b), kn::matmul(a, b), 1e-4f))
            << "matmul " << m << "x" << k << "x" << n;

        Tensor x = Tensor::randn(Shape{2, m, k}, 47 + m);
        Tensor w = Tensor::randn(Shape{n, k}, 53 + n);
        Tensor bias = Tensor::randn(Shape{n}, 59);
        EXPECT_TRUE(tensorsClose(ko::linear(x, w, bias),
                                 kn::linear(x, w, bias), 1e-4f))
            << "linear " << m << "x" << k << "x" << n;
        EXPECT_TRUE(tensorsClose(ko::linear(x, w, Tensor()),
                                 kn::linear(x, w, Tensor()), 1e-4f))
            << "linear(no bias) " << m << "x" << k << "x" << n;

        Tensor ba = Tensor::randn(Shape{3, m, k}, 61 + m);
        Tensor bb = Tensor::randn(Shape{3, k, n}, 67 + n);
        EXPECT_TRUE(tensorsClose(ko::bmm(ba, bb), kn::bmm(ba, bb), 1e-4f))
            << "bmm " << m << "x" << k << "x" << n;
    }

    // Non-contiguous A operand (transposed view), as attention builds.
    Tensor a = Tensor::randn(Shape{24, 12}, 71).transpose(0, 1);
    Tensor b = Tensor::randn(Shape{24, 20}, 72);
    EXPECT_TRUE(tensorsClose(ko::matmul(a, b), kn::matmul(a, b), 1e-4f));
}

TEST(OptimizedKernelTest, LayerNormSinglePassWithinTolerance)
{
    for (int64_t d : {1, 7, 64, 768}) {
        Tensor x = Tensor::randn(Shape{19, d}, 80 + d);
        Tensor g = Tensor::randn(Shape{d}, 81, 0.1f);
        Tensor b = Tensor::randn(Shape{d}, 82, 0.1f);
        EXPECT_TRUE(tensorsClose(ko::layerNorm(x, g, b, 1e-5f),
                                 kn::layerNorm(x, g, b, 1e-5f), 1e-3f,
                                 1e-4f))
            << "layer_norm d=" << d;
    }

    // Large common offset, tiny spread: the naive E[x^2]-mean^2
    // shortcut cancels catastrophically here (variance ~1e-2 against
    // squared moments ~1e6, clamping to 0 and inflating every z-score
    // ~30x); Welford must stay with the centered two-pass reference.
    // Both methods carry O(1e-2) inherent f32 rounding in this regime
    // (the deviations themselves only have ~3 significant digits at
    // offset 1000), so the assertion is an absolute z-score bound
    // that catches the blowup, not bit-level agreement.
    Tensor shifted =
        kn::addScalar(Tensor::randn(Shape{8, 256}, 83, 0.1f), 1000.0f);
    Tensor g1 = Tensor::full(Shape{256}, 1.0f);
    Tensor b0 = Tensor::zeros(Shape{256});
    EXPECT_TRUE(tensorsClose(ko::layerNorm(shifted, g1, b0, 1e-5f),
                             kn::layerNorm(shifted, g1, b0, 1e-5f), 1e-2f,
                             5e-2f));
}

// ---- cross-backend differential suite over the registry ------------------

class BackendDifferentialTest
    : public ::testing::TestWithParam<models::ModelInfo>
{
};

TEST_P(BackendDifferentialTest, OptimizedMatchesReferenceSerialAndParallel)
{
    const models::ModelInfo &info = GetParam();
    Graph g = info.build(ModelConfig{1, 8, false, 0, 8});
    std::vector<Tensor> inputs = makeRequestInputs(g, 99);

    Executor ref(g, referenceBackend());
    std::vector<Tensor> want = ref.run(inputs);

    Executor opt(g, optimizedBackend());
    std::vector<Tensor> got = opt.run(inputs);
    EXPECT_EQ(closeDifference(got, want), "") << info.name;

    // Same backend, parallel wavefront execution: bit-identical to
    // the serial walk — threading must never change a bit.
    ThreadPool pool(4);
    BatchDriver pex(g, pool, optimizedBackend(), arenaEnabledByEnv(),
                    IntraOpMode::On);
    EXPECT_EQ(bitDifference(pex.run({inputs})[0], got), "") << info.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryModels, BackendDifferentialTest,
    ::testing::ValuesIn(models::modelRegistry()),
    [](const ::testing::TestParamInfo<models::ModelInfo> &i) {
        return i.param.name;
    });

TEST(BackendDifferentialTest2, BatchDriverHonorsBackend)
{
    Graph g = models::findModel("vit_b").build(ModelConfig{1, 8, false,
                                                           0, 16});
    ThreadPool pool(2);
    std::vector<std::vector<Tensor>> reqs = {makeRequestInputs(g, 1),
                                             makeRequestInputs(g, 2)};

    BatchDriver opt(g, pool, optimizedBackend());
    auto outs = opt.run(reqs);
    EXPECT_EQ(opt.profile().backend, "optimized");

    Executor serialOpt(g, optimizedBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(bitDifference(outs[r], serialOpt.run(reqs[r])), "");

    Executor serialRef(g, referenceBackend());
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(closeDifference(outs[r], serialRef.run(reqs[r])), "");
}

// ---- engine cache keys on backend ----------------------------------------

TEST(EngineCacheBackendTest, TenantsPinningBackendsGetDistinctEngines)
{
    ThreadPool pool(2);
    serve::EngineConfig cfg;
    cfg.scale = 16;
    cfg.seqLen = 8;
    serve::EngineCache cache(pool, cfg);

    serve::Engine &ref1 = cache.get("vit_b", "reference");
    serve::Engine &ref2 = cache.get("vit_b", "reference");
    EXPECT_EQ(&ref1, &ref2);
    EXPECT_EQ(ref1.backend().name(), "reference");

    serve::Engine &opt = cache.get("vit_b", "optimized");
    EXPECT_NE(&ref1, &opt);
    EXPECT_EQ(opt.backend().name(), "optimized");

    serve::EngineCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.engines, 2u);

    // The two engines really dispatch different kernel sets, and both
    // reproduce their own serial executor bit-for-bit.
    std::vector<std::vector<Tensor>> req = {
        makeRequestInputs(ref1.graph(), 5)};
    auto a = ref1.run(req);
    auto b = opt.run(req);
    Executor sref(ref1.graph(), referenceBackend());
    Executor sopt(opt.graph(), optimizedBackend());
    EXPECT_EQ(bitDifference(a[0], sref.run(req[0])), "");
    EXPECT_EQ(bitDifference(b[0], sopt.run(req[0])), "");
    EXPECT_EQ(closeDifference(b[0], a[0]), "");
}

TEST(EngineCacheBackendTest, ConfigBackendIsDefaultForTenants)
{
    ThreadPool pool(2);
    serve::EngineConfig cfg;
    cfg.scale = 16;
    cfg.backend = "optimized";
    serve::EngineCache cache(pool, cfg);
    serve::Engine &e = cache.get("gpt2");
    EXPECT_EQ(e.backend().name(), "optimized");
    // An explicit pin still wins over the config default.
    serve::Engine &r = cache.get("gpt2", "reference");
    EXPECT_EQ(r.backend().name(), "reference");
    EXPECT_NE(&e, &r);
}

}  // namespace
}  // namespace ngb
