#include "ops/simd_backend.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ops/kernels.h"
#include "ops/optimized_kernels.h"
#include "platform/tuning_cache.h"
#include "quant/quant_kernels.h"
#include "quant/weight_pack.h"
#include "runtime/intraop.h"
#include "tensor/scratch.h"

/**
 * @file
 * Tensor plumbing for the simd backend: shape checks, operand
 * materialization, weight-layout packs, autotuner hookup, and the
 * Backend registrations. The raw kernels live in src/platform/ (one
 * TU per ISA); this file never touches intrinsics, so it compiles
 * with baseline flags and is safe to run at any dispatch level.
 */

namespace ngb {

namespace {

namespace ko = kernels::opt;
namespace kq = kernels::qnt;
using kernels::claimOut;
using simd::SimdOps;
using simd::TileConfig;
using simd::TuneKey;
using simd::TuningCache;

/** ParamStore::derived slot for the int8 dot-interleaved weight
 *  (fusion owns 0/1, quant owns 8-10). */
constexpr size_t kDotWeightSlot = 11;

std::string
shapeKey(int64_t m, int64_t k, int64_t n)
{
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
}

int
parThreads(const ParallelRegion *par)
{
    return par ? par->threads() : 1;
}

/**
 * One f32 GEMM through @p ops, sharded into macro-tiles across
 * @p par's workers when profitable, serial otherwise. Shards call
 * gemmF32Strided on row-band x column-slice sub-problems with the
 * full K per shard — the per-element k chain is never split, so the
 * result is bit-identical to one serial gemmF32 call (simd.h
 * numerics contract) at every thread count.
 */
void
simdGemmPar(const SimdOps *ops, const ParallelRegion *par,
            const float *A, const float *B, float *C, int64_t m,
            int64_t k, int64_t n, const float *bias,
            const TileConfig &tile)
{
    const int threads = parThreads(par);
    if (threads <= 1 || 2 * m * n * k < kParMinFlops) {
        ops->gemmF32(A, B, C, m, k, n, bias, tile);
        return;
    }
    // 64-row bands; column blocks shrink (in vector-width steps) until
    // the grid covers the pool. Split geometry cannot change results —
    // it is purely a load-balance / locality choice.
    constexpr int64_t kMC = 64;
    const int64_t mBlocks = (m + kMC - 1) / kMC;
    const int64_t nUnit = ops->vectorWidthF32;
    int64_t nc = 16 * nUnit < n ? 16 * nUnit : n;
    while (nc > nUnit &&
           mBlocks * ((n + nc - 1) / nc) < static_cast<int64_t>(threads))
        nc -= nUnit;
    const int64_t nBlocks = (n + nc - 1) / nc;
    par->run(static_cast<size_t>(mBlocks * nBlocks), [&](size_t s, int) {
        const int64_t i0 = static_cast<int64_t>(s) / nBlocks * kMC;
        const int64_t j0 = static_cast<int64_t>(s) % nBlocks * nc;
        const int64_t h = m - i0 < kMC ? m - i0 : kMC;
        const int64_t w = n - j0 < nc ? n - j0 : nc;
        ops->gemmF32Strided(A + i0 * k, k, B + j0, n, C + i0 * n + j0,
                            n, h, k, w, bias ? bias + j0 : nullptr,
                            tile);
    });
}

/**
 * Pick the tile for one GEMM call: replay the tuning cache, or time
 * every candidate through @p run (each run produces the full, correct
 * output — candidates are bit-identical — so tuning leaves the
 * destination valid no matter which candidate ran last).
 */
TileConfig
chooseTile(const SimdOps *ops, const char *op,
           const std::vector<TileConfig> &cands, int64_t m, int64_t k,
           int64_t n, int threads,
           const std::function<void(const TileConfig &)> &run)
{
    using Clock = std::chrono::steady_clock;
    int idx = TuningCache::process().choose(
        TuneKey{op, shapeKey(m, k, n), ops->name, threads},
        static_cast<int>(cands.size()), [&](int i) {
            // Two timed runs per candidate, best-of: the first pays
            // first-touch and warms caches for its successor, so the
            // min is a stable ranking signal even on noisy hosts.
            double best = std::numeric_limits<double>::infinity();
            for (int rep = 0; rep < 2; ++rep) {
                auto t0 = Clock::now();
                run(cands[i]);
                double ns = std::chrono::duration<double, std::nano>(
                                Clock::now() - t0)
                                .count();
                best = best < ns ? best : ns;
            }
            return best;
        });
    return cands[idx];
}

// ----- f32 GEMM family ---------------------------------------------------

Tensor
simdMatmul(const SimdOps *ops, const Tensor &a, const Tensor &b,
           Tensor dst, const ParallelRegion *par)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        throw std::runtime_error("simd matmul: rank-2 inputs required");
    int64_t m = a.shape()[0], k = a.shape()[1];
    if (b.shape()[0] != k)
        throw std::runtime_error("simd matmul: inner dim mismatch");
    int64_t n = b.shape()[1];
    Tensor ac = ko::asF32(a);
    Tensor bc = ko::asF32(b);
    Tensor out = claimOut(std::move(dst), Shape{m, n}, DType::F32);
    auto run = [&](const TileConfig &t) {
        simdGemmPar(ops, par, ac.dataF32(), bc.dataF32(), out.dataF32(),
                    m, k, n, nullptr, t);
    };
    run(chooseTile(ops, "matmul", simd::gemmTileCandidates(ops->level),
                   m, k, n, parThreads(par), run));
    return out;
}

Tensor
simdMatmulTiled(const SimdOps *ops, const Tensor &a, const Tensor &b,
                const TileConfig &tile, Tensor dst)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        throw std::runtime_error("simd matmul: rank-2 inputs required");
    int64_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
    Tensor ac = ko::asF32(a);
    Tensor bc = ko::asF32(b);
    Tensor out = claimOut(std::move(dst), Shape{m, n}, DType::F32);
    ops->gemmF32(ac.dataF32(), bc.dataF32(), out.dataF32(), m, k, n,
                 nullptr, tile);
    return out;
}

Tensor
simdLinearPacked(const SimdOps *ops, const Tensor &x, const Tensor &wt,
                 const Tensor &b, Tensor dst,
                 const ParallelRegion *par)
{
    if (wt.shape().rank() != 2)
        throw std::runtime_error("simd linear: [K,N] packed weight "
                                 "required");
    int64_t k = wt.shape()[0], n = wt.shape()[1];
    if (x.shape().dim(-1) != k)
        throw std::runtime_error("simd linear: input last dim != K");
    Tensor rows = ko::asF32(x).view(Shape{x.numel() / k, k});
    int64_t m = rows.shape()[0];
    Tensor wc = ko::asF32(wt);
    Tensor bc = b.defined() ? ko::asF32(b) : Tensor();
    std::vector<int64_t> dims = x.shape().dims();
    dims.back() = n;
    Tensor out = claimOut(std::move(dst), Shape(dims), DType::F32);
    auto run = [&](const TileConfig &t) {
        simdGemmPar(ops, par, rows.dataF32(), wc.dataF32(),
                    out.dataF32(), m, k, n,
                    bc.defined() ? bc.dataF32() : nullptr, t);
    };
    run(chooseTile(ops, "linear", simd::gemmTileCandidates(ops->level),
                   m, k, n, parThreads(par), run));
    return out;
}

Tensor
simdBmm(const SimdOps *ops, const Tensor &a, const Tensor &b, Tensor dst,
        const ParallelRegion *par)
{
    if (a.shape().rank() != 3 || b.shape().rank() != 3)
        throw std::runtime_error("simd bmm: rank-3 inputs required");
    int64_t bs = a.shape()[0];
    int64_t m = a.shape()[1], k = a.shape()[2], n = b.shape()[2];
    if (b.shape()[0] != bs || b.shape()[1] != k)
        throw std::runtime_error("simd bmm: shape mismatch");
    Tensor ac = ko::asF32(a);
    Tensor bc = ko::asF32(b);
    Tensor out = claimOut(std::move(dst), Shape{bs, m, n}, DType::F32);
    const float *pa = ac.dataF32();
    const float *pb = bc.dataF32();
    float *po = out.dataF32();
    // Tune on batch item 0 (every item has the same shape), then run
    // the whole batch with the chosen tile.
    auto run0 = [&](const TileConfig &t) {
        ops->gemmF32(pa, pb, po, m, k, n, nullptr, t);
    };
    if (parThreads(par) > 1 && bs > 1) {
        // One batch item per shard, each running the serial kernel —
        // so the tile decision is the serial one (threads key 1, the
        // same entry the intra-op-off path tunes and replays).
        TileConfig tile = chooseTile(
            ops, "bmm", simd::gemmTileCandidates(ops->level), m, k, n,
            1, run0);
        par->run(static_cast<size_t>(bs), [&](size_t i, int) {
            ops->gemmF32(pa + static_cast<int64_t>(i) * m * k,
                         pb + static_cast<int64_t>(i) * k * n,
                         po + static_cast<int64_t>(i) * m * n, m, k, n,
                         nullptr, tile);
        });
        return out;
    }
    // Serial, or a single batch item: macro-tile sharding inside the
    // one GEMM instead (simdGemmPar degrades to the serial kernel
    // when the region is absent or the problem is small).
    auto runPar = [&](const TileConfig &t) {
        simdGemmPar(ops, par, pa, pb, po, m, k, n, nullptr, t);
    };
    TileConfig tile =
        bs > 0 ? chooseTile(ops, "bmm",
                            simd::gemmTileCandidates(ops->level), m, k,
                            n, parThreads(par), runPar)
               : TileConfig{};
    for (int64_t i = 0; i < bs; ++i)
        simdGemmPar(ops, par, pa + i * m * k, pb + i * k * n,
                    po + i * m * n, m, k, n, nullptr, tile);
    return out;
}

// ----- layer norm / elementwise ------------------------------------------

Tensor
simdLayerNorm(const SimdOps *ops, const Tensor &x, const Tensor &gamma,
              const Tensor &beta, float eps, Tensor dst)
{
    // The vector kernel wants both affine operands; the (unused in
    // the registry) affine-less form stays on the optimized kernel.
    if (!gamma.defined() || !beta.defined())
        return ko::layerNorm(x, gamma, beta, eps, std::move(dst));
    int64_t d = x.shape().dim(-1);
    Tensor xc = ko::asF32(x);
    Tensor gc = ko::asF32(gamma);
    Tensor bc = ko::asF32(beta);
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    ops->layerNormRows(xc.dataF32(), gc.dataF32(), bc.dataF32(), eps,
                       xc.numel() / d, d, out.dataF32());
    return out;
}

Tensor
simdRelu(const SimdOps *ops, const Tensor &x, Tensor dst)
{
    if (!ko::fastF32(x))
        return ko::relu(x, std::move(dst));
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    ops->relu(x.dataF32(), out.dataF32(), x.numel());
    return out;
}

Tensor
simdAddScalar(const SimdOps *ops, const Tensor &x, float s, Tensor dst)
{
    if (!ko::fastF32(x))
        return ko::addScalar(x, s, std::move(dst));
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    ops->addScalar(x.dataF32(), s, out.dataF32(), x.numel());
    return out;
}

Tensor
simdMulScalar(const SimdOps *ops, const Tensor &x, float s, Tensor dst)
{
    if (!ko::fastF32(x))
        return ko::mulScalar(x, s, std::move(dst));
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    ops->mulScalar(x.dataF32(), s, out.dataF32(), x.numel());
    return out;
}

Tensor
simdBinary(const SimdOps *ops, int op, const Tensor &a, const Tensor &b,
           Tensor dst)
{
    if (!ko::fastF32(a) || !ko::fastF32(b) ||
        !(a.shape() == b.shape())) {
        // Broadcasts and exotic dtypes keep the optimized/reference
        // behaviour through the same per-op fallback the chain uses.
        switch (op) {
        case 0: return ko::add(a, b, std::move(dst));
        case 1: return ko::sub(a, b, std::move(dst));
        case 2: return ko::mul(a, b, std::move(dst));
        default: return ko::div(a, b, std::move(dst));
        }
    }
    Tensor out = claimOut(std::move(dst), a.shape(), DType::F32);
    ops->binaryOp(op, a.dataF32(), b.dataF32(), out.dataF32(),
                  a.numel());
    return out;
}

// ----- int8 GEMM ---------------------------------------------------------

/** The active layout of an int8 weight for @p ops: dot-interleaved
 *  when the level has a dot unit, else the plain [K,N] pack. The
 *  tensor keeps the [K,N] shape — the layout is a raw-byte contract
 *  between packDotInterleave and gemmI8, not a shape change. */
Tensor
packInt8ForOps(const SimdOps *ops, const Tensor &wtq)
{
    Tensor wc = toContiguous(wtq);
    Tensor packed(wtq.shape(), DType::I8);
    if (ops->int8Dot)
        simd::packDotInterleave(wc.dataI8(), packed.dataI8(),
                                wtq.shape()[0], wtq.shape()[1]);
    else
        std::memcpy(packed.dataI8(), wc.dataI8(),
                    static_cast<size_t>(wtq.numel()));
    return packed;
}

/** Raw i8 x i8 -> i32 accumulators via the tuned SIMD kernel.
 *  @p wPacked must already be in packInt8ForOps layout. A region
 *  shards the output into row blocks (A/C slices; the weight layout —
 *  dot-interleaved or plain — is position-independent in M, so shards
 *  stream the same packed operand). i32 accumulation is exact, so any
 *  row partition is bit-identical to the serial sweep. */
void
simdInt8Acc(const SimdOps *ops, const ParallelRegion *par,
            const int8_t *xq, const int8_t *wPacked, int32_t *acc,
            int64_t m, int64_t k, int64_t n)
{
    const int threads = parThreads(par);
    if (threads <= 1 || m <= 1 || 2 * m * n * k < kParMinFlops) {
        auto run = [&](const TileConfig &t) {
            ops->gemmI8(xq, wPacked, acc, m, k, n, t);
        };
        run(chooseTile(ops, "int8_linear",
                       simd::int8TileCandidates(ops->level), m, k, n, 1,
                       run));
        return;
    }
    const int64_t block = (m + threads - 1) / threads;
    const int64_t nBlocks = (m + block - 1) / block;
    auto run = [&](const TileConfig &t) {
        par->run(static_cast<size_t>(nBlocks), [&](size_t s, int) {
            const int64_t i0 = static_cast<int64_t>(s) * block;
            const int64_t rows = m - i0 < block ? m - i0 : block;
            ops->gemmI8(xq + i0 * k, wPacked, acc + i0 * n, rows, k, n,
                        t);
        });
    };
    run(chooseTile(ops, "int8_linear",
                   simd::int8TileCandidates(ops->level), m, k, n,
                   threads, run));
}

Tensor
simdInt8Requant(const SimdOps *ops, const Tensor &xq, float xScale,
                const Tensor &wPacked, const Tensor &wScales,
                const Tensor &bias, Tensor dst,
                const ParallelRegion *par)
{
    int64_t k = wPacked.shape()[0], n = wPacked.shape()[1];
    int64_t m = xq.numel() / k;
    Tensor xc = toContiguous(xq);
    std::vector<int64_t> dims = xq.shape().dims();
    dims.back() = n;
    Tensor out = claimOut(std::move(dst), Shape(dims), DType::F32);
    Tensor accT = scratchEmpty(Shape{m, n}, DType::I32);
    simdInt8Acc(ops, par, xc.dataI8(), wPacked.dataI8(), accT.dataI32(),
                m, k, n);
    // The shared epilogue expression (requantOne + bias): i32
    // accumulation is exact, so evaluating it in a separate sweep is
    // bit-identical to the scalar kernels' fused tile write-out.
    const int32_t *pa = accT.dataI32();
    Tensor sc = ko::asF32(wScales);
    Tensor bc = bias.defined() ? ko::asF32(bias) : Tensor();
    const float *ps = sc.dataF32();
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;
    float *po = out.dataF32();
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            float v = kq::requantOne(pa[i * n + j], xScale, ps[j]);
            if (pb)
                v += pb[j];
            po[i * n + j] = v;
        }
    return out;
}

// ----- backend assembly --------------------------------------------------

Backend
buildSimdBackend(const SimdOps *ops)
{
    Backend b("simd", &optimizedBackend());
    if (!ops)
        // Scalar dispatch: register nothing; every op falls through
        // the chain to optimized — degradation is per-op by
        // construction, and "per-process" simply means every op
        // degraded.
        return b;

    b.registerKernel(OpKind::MatMul, [ops](const KernelContext &c) {
        return singleOutput(
            simdMatmul(ops, c.in(0), c.in(1), c.out(0), c.par));
    });
    b.registerKernel(OpKind::Linear, [ops](const KernelContext &c) {
        if (c.node.attrs.getI("wq8", 0))
            // Weight-only int8 keeps the optimized fused epilogue.
            return optimizedBackend().kernelFor(OpKind::Linear)(c);
        const Tensor &wt = c.params.derived(c.node, 0, [&c] {
            return ko::packWeightTranspose(c.param(0));
        });
        return singleOutput(simdLinearPacked(ops, c.in(0), wt,
                                             c.optBias(), c.out(0),
                                             c.par));
    });
    b.registerKernel(OpKind::BMM, [ops](const KernelContext &c) {
        return singleOutput(
            simdBmm(ops, c.in(0), c.in(1), c.out(0), c.par));
    });
    b.registerKernel(OpKind::Int8Linear, [ops](const KernelContext &c) {
        if (!c.node.attrs.getI("executable", 0))
            return referenceBackend().kernelFor(OpKind::Int8Linear)(c);
        const Tensor &wtq = quant::packedWeight(c.node, c.params);
        const Tensor &wp =
            c.params.derived(c.node, kDotWeightSlot, [&] {
                return packInt8ForOps(ops, wtq);
            });
        if (c.node.attrs.getI("requant", 0))
            return singleOutput(simdInt8Requant(
                ops, c.in(0), kq::scaleValue(c.in(1)), wp,
                quant::weightScales(c.node, c.params), c.optBias(),
                c.out(0), c.par));
        int64_t k = wtq.shape()[0], n = wtq.shape()[1];
        const Tensor &xq = c.in(0);
        Tensor xc = toContiguous(xq);
        std::vector<int64_t> dims = xq.shape().dims();
        dims.back() = n;
        Tensor out = claimOut(c.out(0), Shape(dims), DType::I32);
        simdInt8Acc(ops, c.par, xc.dataI8(), wp.dataI8(), out.dataI32(),
                    xq.numel() / k, k, n);
        return singleOutput(std::move(out));
    });
    b.registerKernel(OpKind::LayerNorm, [ops](const KernelContext &c) {
        return singleOutput(simdLayerNorm(ops, c.in(0), c.param(0),
                                          c.param(1),
                                          c.attrFloat("eps", 1e-5),
                                          c.out(0)));
    });
    b.registerKernel(OpKind::ReLU, [ops](const KernelContext &c) {
        return singleOutput(simdRelu(ops, c.in(0), c.out(0)));
    });
    b.registerKernel(OpKind::Add, [ops](const KernelContext &c) {
        if (c.numInputs() == 1)
            return singleOutput(simdAddScalar(
                ops, c.in(0), c.attrFloat("scalar"), c.out(0)));
        return singleOutput(simdBinary(ops, 0, c.in(0), c.in(1),
                                       c.out(0)));
    });
    b.registerKernel(OpKind::Sub, [ops](const KernelContext &c) {
        return singleOutput(simdBinary(ops, 1, c.in(0), c.in(1),
                                       c.out(0)));
    });
    b.registerKernel(OpKind::Mul, [ops](const KernelContext &c) {
        if (c.numInputs() == 1)
            return singleOutput(simdMulScalar(
                ops, c.in(0), c.attrFloat("scalar"), c.out(0)));
        return singleOutput(simdBinary(ops, 2, c.in(0), c.in(1),
                                       c.out(0)));
    });
    b.registerKernel(OpKind::Div, [ops](const KernelContext &c) {
        return singleOutput(simdBinary(ops, 3, c.in(0), c.in(1),
                                       c.out(0)));
    });

    // Warm-up: pre-pack the int8 dot-interleaved weights this
    // backend's Int8Linear kernel streams. The optimized backend's
    // prepare (packed f32/int8 weights, fused affines) runs too —
    // Backend::prepare walks the whole fallback chain.
    b.setPrepare([ops](const Graph &g, ParamStore &params) {
        for (const Node &n : g.nodes())
            if (n.kind == OpKind::Int8Linear &&
                n.attrs.getI("executable", 0)) {
                const Tensor &wtq = quant::packedWeight(n, params);
                params.derived(n, kDotWeightSlot, [&] {
                    return packInt8ForOps(ops, wtq);
                });
            }
    });
    return b;
}

/** Ops table for the free-function entries: the active level's. */
const SimdOps *
activeOps()
{
    return simd::simdOpsFor(platform::activeIsa());
}

}  // namespace

const Backend &
simdBackend()
{
    static const Backend backend =
        buildSimdBackend(simd::simdOpsFor(platform::activeIsa()));
    return backend;
}

Backend
makeSimdBackend(platform::IsaLevel level)
{
    // Clamp to what this host can actually execute: a pinned level
    // above hardware support would register kernels that fault.
    if (static_cast<int>(level) > static_cast<int>(platform::detectIsa()))
        level = platform::detectIsa();
    return buildSimdBackend(simd::simdOpsFor(level));
}

namespace kernels {
namespace sd {

Tensor
matmul(const Tensor &a, const Tensor &b, Tensor dst,
       const ParallelRegion *par)
{
    const SimdOps *ops = activeOps();
    return ops ? simdMatmul(ops, a, b, std::move(dst), par)
               : ko::matmul(a, b, std::move(dst), par);
}

Tensor
matmulTiled(const Tensor &a, const Tensor &b, const simd::TileConfig &tile,
            Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdMatmulTiled(ops, a, b, tile, std::move(dst))
               : ko::matmul(a, b, std::move(dst));
}

Tensor
linearPacked(const Tensor &x, const Tensor &wt, const Tensor &b,
             Tensor dst, const ParallelRegion *par)
{
    const SimdOps *ops = activeOps();
    return ops ? simdLinearPacked(ops, x, wt, b, std::move(dst), par)
               : ko::linearPacked(x, wt, b, std::move(dst), par);
}

Tensor
bmm(const Tensor &a, const Tensor &b, Tensor dst,
    const ParallelRegion *par)
{
    const SimdOps *ops = activeOps();
    return ops ? simdBmm(ops, a, b, std::move(dst), par)
               : ko::bmm(a, b, std::move(dst), par);
}

Tensor
layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdLayerNorm(ops, x, gamma, beta, eps, std::move(dst))
               : ko::layerNorm(x, gamma, beta, eps, std::move(dst));
}

Tensor
relu(const Tensor &x, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdRelu(ops, x, std::move(dst))
               : ko::relu(x, std::move(dst));
}

Tensor
add(const Tensor &a, const Tensor &b, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdBinary(ops, 0, a, b, std::move(dst))
               : ko::add(a, b, std::move(dst));
}

Tensor
mul(const Tensor &a, const Tensor &b, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdBinary(ops, 2, a, b, std::move(dst))
               : ko::mul(a, b, std::move(dst));
}

Tensor
addScalar(const Tensor &x, float s, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdAddScalar(ops, x, s, std::move(dst))
               : ko::addScalar(x, s, std::move(dst));
}

Tensor
mulScalar(const Tensor &x, float s, Tensor dst)
{
    const SimdOps *ops = activeOps();
    return ops ? simdMulScalar(ops, x, s, std::move(dst))
               : ko::mulScalar(x, s, std::move(dst));
}

Tensor
packInt8Weight(const Tensor &wtq)
{
    const SimdOps *ops = activeOps();
    if (!ops)
        return toContiguous(wtq);
    return packInt8ForOps(ops, wtq);
}

Tensor
int8LinearRequant(const Tensor &xq, float xScale, const Tensor &wPacked,
                  const Tensor &wScales, const Tensor &bias, Tensor dst,
                  const ParallelRegion *par)
{
    const SimdOps *ops = activeOps();
    if (!ops)
        return kq::int8LinearPackedRequant(xq, xScale, wPacked, wScales,
                                           bias, nullptr, 0,
                                           std::move(dst), par);
    return simdInt8Requant(ops, xq, xScale, wPacked, wScales, bias,
                           std::move(dst), par);
}

}  // namespace sd
}  // namespace kernels
}  // namespace ngb
