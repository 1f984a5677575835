#include "ops/optimized_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ops/kernels.h"
#include "runtime/intraop.h"

namespace ngb {
namespace kernels {
namespace opt {

namespace {

// ----- register-tiled GEMM core ------------------------------------------

constexpr int64_t kMR = 4;   ///< output rows per register tile
constexpr int64_t kNR = 16;  ///< output cols per register tile

/**
 * C[M,N] = A[M,K] @ B[K,N] (+ colBias[N]) (+ rowBias[M]), all
 * row-major contiguous, with an optional point-wise epilogue applied
 * per element inside the write-out.
 *
 * The 4x16 accumulator tile lives in registers across the whole k
 * loop: each B row is loaded once per FOUR output rows (the reference
 * ikj loop reloads it per row) and C is written exactly once. The
 * per-element accumulation order is k-ascending with no
 * reassociation; unlike the reference it does NOT skip zero A
 * elements, so on finite data results match the reference exactly,
 * but a zero-times-nonfinite product (0 * inf = NaN) that the
 * reference's skip branch would elide propagates here — hence the
 * backend's tolerance contract instead of a bit-identity one. Bias
 * and the epilogue stages are fused into the write-out after the
 * accumulator is complete — the same "sum, then + bias, then
 * activation" order the unfused per-op sweeps use, minus their extra
 * memory passes. colBias is the Linear convention (one bias per
 * output feature), rowBias the im2col conv convention (one bias per
 * filter row).
 */
void
matmulCoreEpi(const float *A, const float *B, float *C, int64_t M,
              int64_t K, int64_t N, const float *colBias,
              const float *rowBias, const scalar::UnaryStage *stages,
              size_t nStages)
{
    auto finish = [&](int64_t row, int64_t col, float v) {
        if (colBias)
            v += colBias[col];
        if (rowBias)
            v += rowBias[row];
        return scalar::applyStages(stages, nStages, v);
    };
    int64_t i = 0;
    for (; i + kMR <= M; i += kMR) {
        int64_t j = 0;
        for (; j + kNR <= N; j += kNR) {
            float acc[kMR][kNR] = {};
            for (int64_t k = 0; k < K; ++k) {
                const float *brow = B + k * N + j;
                float av[kMR];
                for (int64_t r = 0; r < kMR; ++r)
                    av[r] = A[(i + r) * K + k];
                for (int64_t jj = 0; jj < kNR; ++jj) {
                    float bv = brow[jj];
                    for (int64_t r = 0; r < kMR; ++r)
                        acc[r][jj] += av[r] * bv;
                }
            }
            for (int64_t r = 0; r < kMR; ++r) {
                float *crow = C + (i + r) * N + j;
                for (int64_t jj = 0; jj < kNR; ++jj)
                    crow[jj] = finish(i + r, j + jj, acc[r][jj]);
            }
        }
        for (; j < N; ++j) {  // N tail: kMR scalar dot products
            for (int64_t r = 0; r < kMR; ++r) {
                float acc = 0.0f;
                for (int64_t k = 0; k < K; ++k)
                    acc += A[(i + r) * K + k] * B[k * N + j];
                C[(i + r) * N + j] = finish(i + r, j, acc);
            }
        }
    }
    for (; i < M; ++i) {  // M tail: one row at a time, ikj
        float *crow = C + i * N;
        for (int64_t j = 0; j < N; ++j)
            crow[j] = 0.0f;
        for (int64_t k = 0; k < K; ++k) {
            float av = A[i * K + k];
            const float *brow = B + k * N;
            for (int64_t j = 0; j < N; ++j)
                crow[j] += av * brow[j];
        }
        if (colBias || rowBias || nStages)
            for (int64_t j = 0; j < N; ++j)
                crow[j] = finish(i, j, crow[j]);
    }
}

/** The pre-epilogue entry: C = A @ B (+ bias[N]). */
void
matmulCore(const float *A, const float *B, const float *bias, float *C,
           int64_t M, int64_t K, int64_t N)
{
    matmulCoreEpi(A, B, C, M, K, N, bias, nullptr, nullptr, 0);
}

// ----- cache-blocked parallel GEMM ---------------------------------------

/** BLIS-style macro-tile extents (floats). mc/nc are multiples of the
 *  kMR/kNR register tile so macro-tile interiors run the exact tile
 *  body; kc bounds the packed panels (A: mc*kc, B: kc*nc) to stay
 *  cache-resident per worker. */
constexpr int64_t kMC = 64;
constexpr int64_t kKC = 256;
constexpr int64_t kNC = 128;

/**
 * One macro-tile of the blocked GEMM: C[M,N] block (row-major, leading
 * dimension @p ldc) from PACKED panels A[M,K] (lda = K) and B[K,N]
 * (ldb = N). @p first zero-initializes the accumulators, otherwise
 * they resume from the exact f32 partial sums a previous k-block
 * stored to C (a lossless round trip, so the per-element k-ascending
 * chain is indistinguishable from the single-pass core); @p last
 * applies bias + stages on write-out. The loop bodies mirror
 * matmulCoreEpi expression for expression — per-element accumulation
 * must stay bit-identical to the serial core at every block boundary.
 */
void
matmulCoreEpiBlock(const float *A, const float *B, float *C, int64_t M,
                   int64_t K, int64_t N, int64_t ldc,
                   const float *colBias, const float *rowBias,
                   const scalar::UnaryStage *stages, size_t nStages,
                   bool first, bool last)
{
    auto finish = [&](int64_t row, int64_t col, float v) {
        if (colBias)
            v += colBias[col];
        if (rowBias)
            v += rowBias[row];
        return scalar::applyStages(stages, nStages, v);
    };
    int64_t i = 0;
    for (; i + kMR <= M; i += kMR) {
        int64_t j = 0;
        for (; j + kNR <= N; j += kNR) {
            float acc[kMR][kNR];
            for (int64_t r = 0; r < kMR; ++r)
                for (int64_t jj = 0; jj < kNR; ++jj)
                    acc[r][jj] =
                        first ? 0.0f : C[(i + r) * ldc + j + jj];
            for (int64_t k = 0; k < K; ++k) {
                const float *brow = B + k * N + j;
                float av[kMR];
                for (int64_t r = 0; r < kMR; ++r)
                    av[r] = A[(i + r) * K + k];
                for (int64_t jj = 0; jj < kNR; ++jj) {
                    float bv = brow[jj];
                    for (int64_t r = 0; r < kMR; ++r)
                        acc[r][jj] += av[r] * bv;
                }
            }
            for (int64_t r = 0; r < kMR; ++r) {
                float *crow = C + (i + r) * ldc + j;
                for (int64_t jj = 0; jj < kNR; ++jj)
                    crow[jj] = last ? finish(i + r, j + jj, acc[r][jj])
                                    : acc[r][jj];
            }
        }
        for (; j < N; ++j) {  // N tail: kMR scalar dot products
            for (int64_t r = 0; r < kMR; ++r) {
                float acc = first ? 0.0f : C[(i + r) * ldc + j];
                for (int64_t k = 0; k < K; ++k)
                    acc += A[(i + r) * K + k] * B[k * N + j];
                C[(i + r) * ldc + j] =
                    last ? finish(i + r, j, acc) : acc;
            }
        }
    }
    for (; i < M; ++i) {  // M tail: one row at a time, ikj
        float *crow = C + i * ldc;
        if (first)
            for (int64_t j = 0; j < N; ++j)
                crow[j] = 0.0f;
        for (int64_t k = 0; k < K; ++k) {
            float av = A[i * K + k];
            const float *brow = B + k * N;
            for (int64_t j = 0; j < N; ++j)
                crow[j] += av * brow[j];
        }
        if (last && (colBias || rowBias || nStages))
            for (int64_t j = 0; j < N; ++j)
                crow[j] = finish(i, j, crow[j]);
    }
}

/**
 * matmulCoreEpi sharded across @p par's workers: the output is cut
 * into mc x nc macro-tiles (grid aligned to the kMR/kNR register
 * tile), each produced end to end by exactly ONE shard, walking k in
 * kc blocks over panels packed into the worker's ScratchArena. Only M
 * and N are ever split — never K — so every output element keeps its
 * single k-ascending accumulator chain and the result is bit-identical
 * to the serial core at any thread count (the differential suite
 * enforces this across the registry).
 */
void
matmulCoreEpiPar(const ParallelRegion *par, const float *A,
                 const float *B, float *C, int64_t M, int64_t K,
                 int64_t N, const float *colBias, const float *rowBias,
                 const scalar::UnaryStage *stages, size_t nStages)
{
    const int threads = par ? par->threads() : 1;
    if (threads <= 1 || K == 0 || 2 * M * N * K < kParMinFlops) {
        matmulCoreEpi(A, B, C, M, K, N, colBias, rowBias, stages,
                      nStages);
        return;
    }
    const int64_t mBlocks = (M + kMC - 1) / kMC;
    // Column blocks: narrow nc toward kNR until the grid can feed
    // every worker, but never below one register tile.
    int64_t nc = kNC;
    while (nc > kNR &&
           mBlocks * ((N + nc - 1) / nc) < static_cast<int64_t>(threads))
        nc -= kNR;
    const int64_t nBlocks = (N + nc - 1) / nc;

    par->run(static_cast<size_t>(mBlocks * nBlocks), [&](size_t s, int) {
        const int64_t i0 = static_cast<int64_t>(s) / nBlocks * kMC;
        const int64_t j0 = static_cast<int64_t>(s) % nBlocks * nc;
        const int64_t h = std::min(kMC, M - i0);
        const int64_t w = std::min(nc, N - j0);
        const int64_t kc = std::min(kKC, K);
        Tensor apT = scratchEmpty(Shape{h, kc}, DType::F32);
        Tensor bpT = scratchEmpty(Shape{kc, w}, DType::F32);
        float *ap = apT.dataF32();
        float *bp = bpT.dataF32();
        for (int64_t k0 = 0; k0 < K; k0 += kc) {
            const int64_t kLen = std::min(kc, K - k0);
            for (int64_t r = 0; r < h; ++r)
                std::memcpy(ap + r * kLen, A + (i0 + r) * K + k0,
                            static_cast<size_t>(kLen) * sizeof(float));
            for (int64_t k = 0; k < kLen; ++k)
                std::memcpy(bp + k * w, B + (k0 + k) * N + j0,
                            static_cast<size_t>(w) * sizeof(float));
            matmulCoreEpiBlock(ap, bp, C + i0 * N + j0, h, kLen, w, N,
                               colBias ? colBias + j0 : nullptr,
                               rowBias ? rowBias + i0 : nullptr, stages,
                               nStages, k0 == 0, k0 + kLen == K);
        }
    });
}

/**
 * Pack w[N,K] row-major into wt[K,N] row-major (the B-operand layout
 * matmulCore wants) with a 32x32 blocked raw-pointer transpose. The
 * generic Tensor::contiguous() path decomposes a strided flat index
 * per element, which costs more than the GEMM core itself for
 * mid-sized weights.
 */
void
packTranspose(const float *w, float *wt, int64_t n, int64_t k)
{
    constexpr int64_t kBlk = 32;
    for (int64_t j0 = 0; j0 < n; j0 += kBlk) {
        int64_t jmax = std::min(j0 + kBlk, n);
        for (int64_t k0 = 0; k0 < k; k0 += kBlk) {
            int64_t kmax = std::min(k0 + kBlk, k);
            for (int64_t j = j0; j < jmax; ++j)
                for (int64_t kk = k0; kk < kmax; ++kk)
                    wt[kk * n + j] = w[j * k + kk];
        }
    }
}

}  // namespace

Tensor
matmul(const Tensor &a, const Tensor &b, Tensor dst,
       const ParallelRegion *par)
{
    if (a.shape().rank() != 2 || b.shape().rank() != 2)
        throw std::runtime_error("matmul: rank-2 inputs required");
    int64_t m = a.shape()[0], k = a.shape()[1];
    int64_t k2 = b.shape()[0], n = b.shape()[1];
    if (k != k2)
        throw std::runtime_error("matmul: inner dim mismatch");
    Tensor ac = asF32(a);
    Tensor bc = asF32(b);
    Tensor out = claimOut(std::move(dst), Shape{m, n}, DType::F32);
    matmulCoreEpiPar(par, ac.dataF32(), bc.dataF32(), out.dataF32(), m,
                     k, n, nullptr, nullptr, nullptr, 0);
    return out;
}

Tensor
packWeightTranspose(const Tensor &w)
{
    if (w.shape().rank() != 2)
        throw std::runtime_error("packWeightTranspose: [N,K] required");
    int64_t n = w.shape()[0], k = w.shape()[1];
    Tensor wc = asF32(w);
    Tensor wt(Shape{k, n}, DType::F32);
    packTranspose(wc.dataF32(), wt.dataF32(), n, k);
    return wt;
}

Tensor
linearPackedEpi(const Tensor &x, const Tensor &wt, const Tensor &b,
                const scalar::UnaryStage *stages, size_t nStages,
                Tensor dst, const ParallelRegion *par)
{
    if (wt.shape().rank() != 2)
        throw std::runtime_error("linearPacked: packed weight must be "
                                 "[K,N]");
    int64_t k = wt.shape()[0], n = wt.shape()[1];
    if (x.shape().dim(-1) != k)
        throw std::runtime_error("linearPacked: input last dim != K");
    Tensor rows = asF32(x).view(Shape{x.numel() / k, k});
    int64_t m = rows.shape()[0];
    Tensor wc = asF32(wt);
    Tensor bc = b.defined() ? asF32(b) : Tensor();

    std::vector<int64_t> dims = x.shape().dims();
    dims.back() = n;
    Tensor out = claimOut(std::move(dst), Shape(dims), DType::F32);
    matmulCoreEpiPar(par, rows.dataF32(), wc.dataF32(), out.dataF32(),
                     m, k, n, bc.defined() ? bc.dataF32() : nullptr,
                     nullptr, stages, nStages);
    return out;
}

Tensor
linearPacked(const Tensor &x, const Tensor &wt, const Tensor &b,
             Tensor dst, const ParallelRegion *par)
{
    return linearPackedEpi(x, wt, b, nullptr, 0, std::move(dst), par);
}

Tensor
conv2dEpi(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
          int padding, int groups, const scalar::UnaryStage *stages,
          size_t nStages, Tensor dst, const ParallelRegion *par)
{
    if (x.shape().rank() != 4 || w.shape().rank() != 4)
        throw std::runtime_error("conv2dEpi: NCHW input and FCRS weight");
    int64_t n = x.shape()[0], c = x.shape()[1];
    int64_t h = x.shape()[2], wd = x.shape()[3];
    int64_t f = w.shape()[0], cg = w.shape()[1];
    int64_t r = w.shape()[2], s = w.shape()[3];
    if (c != cg * groups)
        throw std::runtime_error("conv2dEpi: channel/group mismatch");
    if (groups <= 0 || f % groups != 0)
        throw std::runtime_error(
            "conv2dEpi: filters not divisible by groups");
    int64_t oh = (h + 2 * padding - r) / stride + 1;
    int64_t ow = (wd + 2 * padding - s) / stride + 1;
    int64_t fg = f / groups;

    Tensor xc = asF32(x);
    Tensor wc = asF32(w);
    Tensor bc = b.defined() ? asF32(b) : Tensor();
    const float *px = xc.dataF32();
    const float *pw = wc.dataF32();
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;
    Tensor out = claimOut(std::move(dst), Shape{n, f, oh, ow}, DType::F32);
    float *po = out.dataF32();

    // im2col per (image, group), then one tiled GEMM per group with
    // the filter bias and the point-wise stages applied in the tile
    // write-out: W[fg, patch] @ col[patch, oh*ow] -> out rows.
    int64_t patch = cg * r * s;
    auto fillCol = [&](int64_t img, int g, float *col) {
        for (int64_t cc = 0; cc < cg; ++cc) {
            int64_t cin = g * cg + cc;
            const float *chan = px + (img * c + cin) * h * wd;
            for (int64_t rr = 0; rr < r; ++rr) {
                for (int64_t ss = 0; ss < s; ++ss) {
                    int64_t row = (cc * r + rr) * s + ss;
                    float *crow = col + row * oh * ow;
                    for (int64_t oy = 0; oy < oh; ++oy) {
                        int64_t iy = oy * stride - padding + rr;
                        for (int64_t ox = 0; ox < ow; ++ox) {
                            int64_t ix = ox * stride - padding + ss;
                            float v = 0.0f;
                            if (iy >= 0 && iy < h && ix >= 0 && ix < wd)
                                v = chan[iy * wd + ix];
                            crow[oy * ow + ox] = v;
                        }
                    }
                }
            }
        }
    };
    // Two sharding shapes, both bit-identical to the serial loop: with
    // several (image, group) instances each shard runs ONE instance's
    // im2col + GEMM start to finish (its col buffer lives in the
    // worker's scratch); a single instance instead shards the one
    // GEMM's macro-tiles, reading a shared col buffer.
    if (par && par->threads() > 1 && n * groups > 1) {
        par->run(static_cast<size_t>(n * groups), [&](size_t inst, int) {
            int64_t img = static_cast<int64_t>(inst) / groups;
            int g = static_cast<int>(inst % static_cast<size_t>(groups));
            Tensor colT = scratchEmpty(Shape{patch, oh * ow}, DType::F32);
            float *col = colT.dataF32();
            fillCol(img, g, col);
            matmulCoreEpi(pw + g * fg * patch, col,
                          po + (img * f + g * fg) * oh * ow, fg, patch,
                          oh * ow, nullptr,
                          pb ? pb + g * fg : nullptr, stages, nStages);
        });
        return out;
    }
    Tensor colT = scratchEmpty(Shape{patch, oh * ow}, DType::F32);
    float *col = colT.dataF32();
    for (int64_t img = 0; img < n; ++img) {
        for (int g = 0; g < groups; ++g) {
            fillCol(img, g, col);
            matmulCoreEpiPar(par, pw + g * fg * patch, col,
                             po + (img * f + g * fg) * oh * ow, fg,
                             patch, oh * ow, nullptr,
                             pb ? pb + g * fg : nullptr, stages,
                             nStages);
        }
    }
    return out;
}

Tensor
linear(const Tensor &x, const Tensor &w, const Tensor &b, Tensor dst,
       const ParallelRegion *par)
{
    return linearPacked(x, packWeightTranspose(w), b, std::move(dst),
                        par);
}

Tensor
bmm(const Tensor &a, const Tensor &b, Tensor dst,
    const ParallelRegion *par)
{
    if (a.shape().rank() != 3 || b.shape().rank() != 3)
        throw std::runtime_error("bmm: rank-3 inputs required");
    int64_t bs = a.shape()[0];
    if (b.shape()[0] != bs)
        throw std::runtime_error("bmm: batch mismatch");
    int64_t m = a.shape()[1], k = a.shape()[2], n = b.shape()[2];
    if (b.shape()[1] != k)
        throw std::runtime_error("bmm: inner dim mismatch");
    Tensor ac = asF32(a);
    Tensor bc = asF32(b);
    Tensor out = claimOut(std::move(dst), Shape{bs, m, n}, DType::F32);
    const float *pa = ac.dataF32();
    const float *pb = bc.dataF32();
    float *po = out.dataF32();
    if (par && par->threads() > 1 && bs > 1) {
        // One batch item per shard: each item's GEMM is the unchanged
        // serial core, so the batch split is trivially bit-identical.
        par->run(static_cast<size_t>(bs), [&](size_t i, int) {
            matmulCore(pa + static_cast<int64_t>(i) * m * k,
                       pb + static_cast<int64_t>(i) * k * n, nullptr,
                       po + static_cast<int64_t>(i) * m * n, m, k, n);
        });
        return out;
    }
    for (int64_t i = 0; i < bs; ++i)
        matmulCoreEpiPar(par, pa + i * m * k, pb + i * k * n,
                         po + i * m * n, m, k, n, nullptr, nullptr,
                         nullptr, 0);
    return out;
}

Tensor
layerNorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
          float eps, Tensor dst)
{
    int64_t d = x.shape().dim(-1);
    Tensor xc = asF32(x);
    int64_t rows = xc.numel() / d;
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = xc.dataF32();
    float *po = out.dataF32();
    Tensor gc = gamma.defined() ? asF32(gamma) : Tensor();
    Tensor bc = beta.defined() ? asF32(beta) : Tensor();
    const float *pg = gc.defined() ? gc.dataF32() : nullptr;
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = px + i * d;
        float *orow = po + i * d;
        // Single-pass Welford moments: one sweep computes mean and M2
        // (the reference makes separate mean and variance sweeps).
        // Welford centers each update, so unlike the naive
        // E[x^2]-mean^2 shortcut it does not cancel catastrophically
        // on rows with a large common offset.
        float mean = 0.0f, m2 = 0.0f;
        for (int64_t j = 0; j < d; ++j) {
            float v = row[j];
            float delta = v - mean;
            mean += delta / static_cast<float>(j + 1);
            m2 += delta * (v - mean);
        }
        float var = m2 / static_cast<float>(d);
        float inv = 1.0f / std::sqrt(var + eps);
        for (int64_t j = 0; j < d; ++j) {
            float v = (row[j] - mean) * inv;
            if (pg)
                v *= pg[j];
            if (pb)
                v += pb[j];
            orow[j] = v;
        }
    }
    return out;
}

Tensor
batchNorm2d(const Tensor &x, const Tensor &gamma, const Tensor &beta,
            const Tensor &mean, const Tensor &var, float eps, Tensor dst)
{
    if (x.shape().rank() != 4)
        throw std::runtime_error("batchNorm2d: NCHW input required");
    int64_t n = x.shape()[0], c = x.shape()[1];
    int64_t hw = x.shape()[2] * x.shape()[3];
    Tensor xc = asF32(x);
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = xc.dataF32();
    float *po = out.dataF32();
    Tensor mc = asF32(mean);
    Tensor vc = asF32(var);
    Tensor gc = gamma.defined() ? asF32(gamma) : Tensor();
    Tensor bc = beta.defined() ? asF32(beta) : Tensor();
    const float *pm = mc.dataF32();
    const float *pv = vc.dataF32();
    const float *pg = gc.defined() ? gc.dataF32() : nullptr;
    const float *pb = bc.defined() ? bc.dataF32() : nullptr;

    // Per-channel affine hoisted out of the image loop (the reference
    // recomputes scale/shift for every image). Same float expressions,
    // so results are bit-identical.
    Tensor affines = scratchEmpty(Shape{2, c}, DType::F32);
    float *scale = affines.dataF32();
    float *shift = scale + c;
    for (int64_t cc = 0; cc < c; ++cc) {
        float inv = 1.0f / std::sqrt(pv[cc] + eps);
        float s = pg ? pg[cc] * inv : inv;
        scale[cc] = s;
        shift[cc] = (pb ? pb[cc] : 0.0f) - pm[cc] * s;
    }
    for (int64_t img = 0; img < n; ++img) {
        for (int64_t cc = 0; cc < c; ++cc) {
            float s = scale[cc];
            float t = shift[cc];
            const float *row = px + (img * c + cc) * hw;
            float *orow = po + (img * c + cc) * hw;
            for (int64_t j = 0; j < hw; ++j)
                orow[j] = row[j] * s + t;
        }
    }
    return out;
}

Tensor
softmax(const Tensor &x, int dim, Tensor dst)
{
    int r = static_cast<int>(x.shape().rank());
    int nd = dim < 0 ? dim + r : dim;
    if (nd != r - 1 || !fastF32(x))
        return kernels::softmax(x, dim,
                                std::move(dst));  // permuting case:
                                                  // reference

    int64_t d = x.shape().dim(-1);
    int64_t rows = x.numel() / d;
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = x.dataF32();
    float *po = out.dataF32();
    for (int64_t i = 0; i < rows; ++i) {
        const float *row = px + i * d;
        float *orow = po + i * d;
        float mx = row[0];
        for (int64_t j = 1; j < d; ++j)
            mx = std::max(mx, row[j]);
        float sum = 0.0f;
        for (int64_t j = 0; j < d; ++j) {
            orow[j] = std::exp(row[j] - mx);
            sum += orow[j];
        }
        float inv = 1.0f / sum;
        for (int64_t j = 0; j < d; ++j)
            orow[j] *= inv;
    }
    return out;
}

// ----- elementwise fast paths --------------------------------------------

namespace {

/**
 * Contiguous-F32 unary fast path: raw pointer sweep with the SAME
 * per-element expression as the reference (bit-identical), without the
 * reference's per-element std::function call and strided flat-index
 * decomposition. @p Ref is taken as a fallback for other dtypes /
 * layouts.
 */
template <typename F, typename Ref>
Tensor
unaryFast(const Tensor &x, F f, Ref ref, Tensor dst)
{
    if (!fastF32(x))
        return ref(x, std::move(dst));
    Tensor out = claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = x.dataF32();
    float *po = out.dataF32();
    int64_t n = x.numel();
    for (int64_t i = 0; i < n; ++i)
        po[i] = f(px[i]);
    return out;
}

/** Same-shape contiguous-F32 binary fast path; else reference. */
template <typename F, typename Ref>
Tensor
binaryFast(const Tensor &a, const Tensor &b, F f, Ref ref, Tensor dst)
{
    if (!fastF32(a) || !fastF32(b) || !(a.shape() == b.shape()))
        return ref(a, b, std::move(dst));
    Tensor out = claimOut(std::move(dst), a.shape(), DType::F32);
    const float *pa = a.dataF32();
    const float *pb = b.dataF32();
    float *po = out.dataF32();
    int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i)
        po[i] = f(pa[i], pb[i]);
    return out;
}

}  // namespace

Tensor
relu(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::relu, kernels::relu, std::move(dst));
}

Tensor
gelu(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::gelu, kernels::gelu, std::move(dst));
}

Tensor
silu(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::silu, kernels::silu, std::move(dst));
}

Tensor
sigmoid(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::sigmoid, kernels::sigmoid, std::move(dst));
}

Tensor
tanhOp(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::tanhOp, kernels::tanhOp, std::move(dst));
}

Tensor
expOp(const Tensor &x, Tensor dst)
{
    return unaryFast(x, scalar::expOp, kernels::expOp, std::move(dst));
}

Tensor
add(const Tensor &a, const Tensor &b, Tensor dst)
{
    return binaryFast(
        a, b, [](float x, float y) { return x + y; }, kernels::add,
        std::move(dst));
}

Tensor
sub(const Tensor &a, const Tensor &b, Tensor dst)
{
    return binaryFast(
        a, b, [](float x, float y) { return x - y; }, kernels::sub,
        std::move(dst));
}

Tensor
mul(const Tensor &a, const Tensor &b, Tensor dst)
{
    return binaryFast(
        a, b, [](float x, float y) { return x * y; }, kernels::mul,
        std::move(dst));
}

Tensor
div(const Tensor &a, const Tensor &b, Tensor dst)
{
    return binaryFast(
        a, b, [](float x, float y) { return x / y; }, kernels::div,
        std::move(dst));
}

Tensor
addScalar(const Tensor &x, float s, Tensor dst)
{
    return unaryFast(
        x, [s](float v) { return v + s; },
        [s](const Tensor &t, Tensor d) {
            return kernels::addScalar(t, s, std::move(d));
        },
        std::move(dst));
}

Tensor
mulScalar(const Tensor &x, float s, Tensor dst)
{
    return unaryFast(
        x, [s](float v) { return v * s; },
        [s](const Tensor &t, Tensor d) {
            return kernels::mulScalar(t, s, std::move(d));
        },
        std::move(dst));
}

}  // namespace opt
}  // namespace kernels
}  // namespace ngb
