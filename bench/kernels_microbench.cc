/**
 * @file
 * Kernel-level ablation (experiment E8 in DESIGN.md): google-benchmark
 * microbenchmarks of every dispatched DSP kernel at every SIMD level
 * the running CPU supports (scalar, SSE2, AVX2, ...) — the per-kernel
 * speedups underlying Figure 1's whole-codec speedups — plus the
 * quantisers and the sub-sample refinement stage built from the
 * kernels (BM_SubpelRefine).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/benchmark.h"
#include "dsp/quant.h"
#include "h264/deblock.h"
#include "mc/mc.h"
#include "me/me.h"
#include "simd/dispatch.h"
#include "synth/synth.h"
#include "video/frame.h"

using namespace hdvb;

namespace {

constexpr int kStride = 1936;  // 1088p luma-ish stride

struct TestData {
    std::vector<Pixel> a;
    std::vector<Pixel> b;
    std::vector<Coeff> coeffs;

    TestData()
    {
        std::mt19937 rng(42);
        a.resize(kStride * 64);
        b.resize(kStride * 64);
        coeffs.resize(64);
        for (auto &px : a)
            px = static_cast<Pixel>(rng() & 0xFF);
        for (auto &px : b)
            px = static_cast<Pixel>(rng() & 0xFF);
        for (auto &c : coeffs)
            c = static_cast<Coeff>(static_cast<int>(rng() % 512) - 256);
    }
};

TestData &
data()
{
    static TestData instance;
    return instance;
}

SimdLevel
level_of(const benchmark::State &state)
{
    return static_cast<SimdLevel>(state.range(0));
}

/** Registers one Arg per level the CPU supports; the bench label
 * carries the dispatched table's name, so a clamped level is visible
 * in the output rather than silently double-counted. */
void
per_detected_level(benchmark::internal::Benchmark *bench)
{
    for (int i = 0; i <= static_cast<int>(detected_simd_level()); ++i)
        bench->Arg(i);
}

void
BM_Sad16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dsp.sad16x16(d.a.data() + 8, kStride, d.b.data(), kStride));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Sad16x16)->Apply(per_detected_level);

void
BM_Sad16x16EtBailNever(benchmark::State &state)
{
    // Early-termination SAD with an unreachable bound: the full-sum
    // path, measuring the overhead of the periodic bound checks
    // against plain BM_Sad16x16.
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dsp.sad16x16_et(d.a.data() + 8, kStride, d.b.data(),
                            kStride, INT32_MAX));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Sad16x16EtBailNever)->Apply(per_detected_level);

void
BM_Sad16x16EtBailEarly(benchmark::State &state)
{
    // The motion-search common case the kernel exists for: a tight
    // bound (well under random data's per-row sums) makes the kernel
    // bail at its first check.
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.sad16x16_et(
            d.a.data() + 8, kStride, d.b.data(), kStride, 64));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Sad16x16EtBailEarly)->Apply(per_detected_level);

/** Plane-backed operand meeting the aligned-kernel contract: row
 * starts 32-byte aligned, stride a multiple of 32. */
Plane &
aligned_plane(int fill_seed)
{
    static Plane planes[2] = {Plane(1920, 64, kRefBorder),
                              Plane(1920, 64, kRefBorder)};
    Plane &plane = planes[fill_seed & 1];
    std::mt19937 rng(static_cast<unsigned>(fill_seed));
    for (int y = 0; y < plane.height(); ++y)
        for (int x = 0; x < plane.width(); ++x)
            plane.row(y)[x] = static_cast<Pixel>(rng() & 0xFF);
    return plane;
}

void
BM_Sad16x16Aligned(benchmark::State &state)
{
    // The aligned-load SAD variant the motion-estimation hot loop
    // dispatches to when the current block sits at x0 % 16 == 0;
    // compare against BM_Sad16x16's unaligned operands.
    const Dsp &dsp = get_dsp(level_of(state));
    Plane &a = aligned_plane(1);
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.sad16x16_a(
            a.row(8) + 16, a.stride(), d.b.data() + 3, kStride));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Sad16x16Aligned)->Apply(per_detected_level);

void
BM_Satd4x4(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dsp.satd4x4(d.a.data() + 8, kStride, d.b.data(), kStride));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Satd4x4)->Apply(per_detected_level);

void
BM_SatdRect16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.satd_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride, 16, 16));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SatdRect16x16)->Apply(per_detected_level);

/** satd_rect at the other H.264 partition sizes; args are level, w,
 * h. */
void
BM_SatdRect(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const int w = static_cast<int>(state.range(1));
    const int h = static_cast<int>(state.range(2));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.satd_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride, w, h));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SatdRect)
    ->ArgNames({"level", "w", "h"})
    ->Apply([](benchmark::internal::Benchmark *bench) {
        for (int i = 0; i <= static_cast<int>(detected_simd_level()); ++i)
            for (const auto &[w, h] : {std::pair{16, 8}, {8, 16}, {8, 8}})
                bench->Args({i, w, h});
    });

/** Registers (level, w, h) for every detected level and each size. */
void
per_level_and_size(benchmark::internal::Benchmark *bench,
                   std::initializer_list<std::pair<int, int>> sizes)
{
    bench->ArgNames({"level", "w", "h"});
    for (int i = 0; i <= static_cast<int>(detected_simd_level()); ++i)
        for (const auto &[w, h] : sizes)
            bench->Args({i, w, h});
}

/** The square block sizes: a macroblock and an 8x8 block. */
void
square_sizes(benchmark::internal::Benchmark *bench)
{
    per_level_and_size(bench, {{16, 16}, {8, 8}});
}

/** The searched H.264 partition shapes, 8x16 aside (16x8 transposed). */
void
partition_sizes(benchmark::internal::Benchmark *bench)
{
    per_level_and_size(bench, {{16, 16}, {16, 8}, {8, 8}});
}

// ---- Costs against averaged candidates: compare with the build-then-
// score pair BM_AvgRect16x16 + BM_Sad16x16 (or + BM_SatdRect16x16).

void
BM_SadAvgRect(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const int w = static_cast<int>(state.range(1));
    const int h = static_cast<int>(state.range(2));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.sad_avg_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride,
            d.b.data() + 1, kStride, w, h));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SadAvgRect)->Apply(square_sizes);

void
BM_SadAvg4Rect(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const int w = static_cast<int>(state.range(1));
    const int h = static_cast<int>(state.range(2));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.sad_avg4_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride, w, h));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SadAvg4Rect)->Apply(partition_sizes);

void
BM_SatdAvgRect(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const int w = static_cast<int>(state.range(1));
    const int h = static_cast<int>(state.range(2));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.satd_avg_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride,
            d.b.data() + kStride, kStride, w, h));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SatdAvgRect)->Apply(partition_sizes);

void
BM_SatdRect16x16Aligned(benchmark::State &state)
{
    // Same satd_rect kernel as BM_SatdRect16x16 but with a Plane-backed
    // 32-byte-aligned first operand: SATD's 4/8-byte row loads are
    // alignment-agnostic by design, so this pins "no aligned SATD
    // variant needed" with a number (parity expected).
    const Dsp &dsp = get_dsp(level_of(state));
    Plane &a = aligned_plane(2);
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.satd_rect(
            a.row(8) + 16, a.stride(), d.b.data(), kStride, 16, 16));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SatdRect16x16Aligned)->Apply(per_detected_level);

void
BM_SseRect16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsp.sse_rect(
            d.a.data() + 8, kStride, d.b.data(), kStride, 16, 16));
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SseRect16x16)->Apply(per_detected_level);

void
BM_AvgRect16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.avg_rect(dst.data(), 16, d.a.data() + 8, kStride,
                     d.b.data(), kStride, 16, 16);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_AvgRect16x16)->Apply(per_detected_level);

void
BM_Avg4Rect16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.avg4_rect(dst.data(), 16, d.a.data() + 8, kStride, 16, 16);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Avg4Rect16x16)->Apply(per_detected_level);

void
BM_QpelBilin16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.qpel_bilin_rect(dst.data(), 16, d.a.data() + 8, kStride, 16,
                            16, 1, 3);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_QpelBilin16x16)->Apply(per_detected_level);

void
BM_H264HpelH16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.h264_hpel_h(dst.data(), 16, d.a.data() + 8, kStride, 16,
                        16);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264HpelH16x16)->Apply(per_detected_level);

void
BM_H264HpelV16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.h264_hpel_v(dst.data(), 16, d.a.data() + kStride * 8,
                        kStride, 16, 16);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264HpelV16x16)->Apply(per_detected_level);

void
BM_H264HpelHV16x16(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    std::vector<Pixel> dst(16 * 16);
    for (auto _ : state) {
        dsp.h264_hpel_hv(dst.data(), 16, d.a.data() + kStride * 8 + 8,
                         kStride, 16, 16);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264HpelHV16x16)->Apply(per_detected_level);

void
BM_Fdct8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    Coeff blk[64];
    std::copy(data().coeffs.begin(), data().coeffs.end(), blk);
    for (auto _ : state) {
        dsp.fdct8x8(blk);
        benchmark::DoNotOptimize(blk);
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Fdct8x8)->Apply(per_detected_level);

void
BM_Idct8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    Coeff blk[64];
    std::copy(data().coeffs.begin(), data().coeffs.end(), blk);
    for (auto _ : state) {
        dsp.idct8x8(blk);
        benchmark::DoNotOptimize(blk);
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_Idct8x8)->Apply(per_detected_level);

void
BM_SubRect8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    TestData &d = data();
    Coeff blk[64];
    for (auto _ : state) {
        dsp.sub_rect(blk, 8, d.a.data() + 8, kStride, d.b.data(),
                     kStride, 8, 8);
        benchmark::DoNotOptimize(blk);
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_SubRect8x8)->Apply(per_detected_level);

void
BM_AddRect8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    Coeff blk[64];
    std::copy(data().coeffs.begin(), data().coeffs.end(), blk);
    std::vector<Pixel> dst(8 * 8, 128);
    for (auto _ : state) {
        dsp.add_rect(dst.data(), 8, blk, 8, 8, 8);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_AddRect8x8)->Apply(per_detected_level);

// ---- Quantisers (each iteration restores the block from TestData, a
// 64- or 16-coefficient copy, before quantising it in place) ----

void
BM_MpegQuant8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const MpegQuantizer quant(kMpegInterMatrix, 5, 8, 4, dsp);
    const std::vector<Coeff> &src = data().coeffs;
    Coeff blk[64];
    for (auto _ : state) {
        std::copy(src.begin(), src.end(), blk);
        benchmark::DoNotOptimize(quant.quantize(blk));
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_MpegQuant8x8)->Apply(per_detected_level);

void
BM_MpegDequant8x8(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const MpegQuantizer quant(kMpegInterMatrix, 5, 8, 4, dsp);
    std::vector<Coeff> levels = data().coeffs;
    quant.quantize(levels.data());
    Coeff blk[64];
    for (auto _ : state) {
        std::copy(levels.begin(), levels.end(), blk);
        quant.dequantize(blk);
        benchmark::DoNotOptimize(blk);
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_MpegDequant8x8)->Apply(per_detected_level);

void
BM_H264Quant4x4(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const H264Quantizer quant(28, false, dsp);
    const std::vector<Coeff> &src = data().coeffs;
    Coeff blk[16];
    for (auto _ : state) {
        std::copy(src.begin(), src.begin() + 16, blk);
        benchmark::DoNotOptimize(quant.quantize4x4(blk));
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264Quant4x4)->Apply(per_detected_level);

void
BM_H264Dequant4x4(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const H264Quantizer quant(28, false, dsp);
    std::vector<Coeff> levels(data().coeffs.begin(),
                              data().coeffs.begin() + 16);
    quant.quantize4x4(levels.data());
    Coeff blk[16];
    for (auto _ : state) {
        std::copy(levels.begin(), levels.end(), blk);
        quant.dequantize4x4(blk);
        benchmark::DoNotOptimize(blk);
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264Dequant4x4)->Apply(per_detected_level);

// ---- H.264-class picture reconstruction: the deblocking edge filters
// (16 lines per call), the inverse transform plus add, and the whole
// picture's deblocking pass.

/** A 1088p-wide strip whose 16-line edges pass the filter thresholds:
 * smooth levels with a small step across every fourth column and row,
 * so each call runs the filter arithmetic rather than exiting early. */
struct EdgeStrip {
    static constexpr int kRows = 48;
    std::vector<Pixel> pixels;
    EdgeStrip() : pixels(static_cast<size_t>(kStride) * kRows)
    {
        std::mt19937 rng(7);
        for (int y = 0; y < kRows; ++y) {
            for (int x = 0; x < kStride; ++x) {
                pixels[static_cast<size_t>(y) * kStride + x] =
                    static_cast<Pixel>(100 + (x / 4 + y / 4) % 2 * 6 +
                                       static_cast<int>(rng() % 3));
            }
        }
    }
};

// Mixed strengths at qp 30, one segment of each filter kind.
const u8 kEdgeBs[4] = {1, 2, 3, 4};
const u8 kEdgeTc0[4] = {2, 3, 4, 5};

template <bool kVertical>
void
BM_H264DeblockLuma(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    EdgeStrip strip;
    const h264::DeblockThresholds t = h264::deblock_thresholds(30);
    Pixel *pix = strip.pixels.data() + 16 * kStride + 64;
    for (auto _ : state) {
        if (kVertical) {
            dsp.h264_deblock_luma_v(pix, kStride, t.alpha, t.beta,
                                    kEdgeBs, kEdgeTc0);
        } else {
            dsp.h264_deblock_luma_h(pix, kStride, t.alpha, t.beta,
                                    kEdgeBs, kEdgeTc0);
        }
        benchmark::DoNotOptimize(pix);
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
void
BM_H264DeblockLumaV(benchmark::State &state)
{
    BM_H264DeblockLuma<true>(state);
}
void
BM_H264DeblockLumaH(benchmark::State &state)
{
    BM_H264DeblockLuma<false>(state);
}
BENCHMARK(BM_H264DeblockLumaV)->Apply(per_detected_level);
BENCHMARK(BM_H264DeblockLumaH)->Apply(per_detected_level);

template <bool kVertical>
void
BM_H264DeblockChroma(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    EdgeStrip cb, cr;
    const h264::DeblockThresholds t = h264::deblock_thresholds(30);
    Pixel *pb = cb.pixels.data() + 16 * kStride + 64;
    Pixel *pr = cr.pixels.data() + 16 * kStride + 64;
    for (auto _ : state) {
        if (kVertical) {
            dsp.h264_deblock_chroma_v(pb, pr, kStride, t.alpha, t.beta,
                                      kEdgeBs, kEdgeTc0);
        } else {
            dsp.h264_deblock_chroma_h(pb, pr, kStride, t.alpha, t.beta,
                                      kEdgeBs, kEdgeTc0);
        }
        benchmark::DoNotOptimize(pb);
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
void
BM_H264DeblockChromaV(benchmark::State &state)
{
    BM_H264DeblockChroma<true>(state);
}
void
BM_H264DeblockChromaH(benchmark::State &state)
{
    BM_H264DeblockChroma<false>(state);
}
BENCHMARK(BM_H264DeblockChromaV)->Apply(per_detected_level);
BENCHMARK(BM_H264DeblockChromaH)->Apply(per_detected_level);

void
BM_H264Inv4x4Add(benchmark::State &state)
{
    const Dsp &dsp = get_dsp(level_of(state));
    const H264Quantizer quant(28, false, dsp);
    Coeff blk[16];
    std::copy(data().coeffs.begin(), data().coeffs.begin() + 16, blk);
    quant.quantize4x4(blk);
    quant.dequantize4x4(blk);
    std::vector<Pixel> dst(data().a.begin(), data().a.begin() + 4 * 16);
    for (auto _ : state) {
        dsp.h264_inv4x4_add(dst.data(), 16, blk);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_H264Inv4x4Add)->Apply(per_detected_level);

void
BM_DeblockPicture(benchmark::State &state)
{
    // One 1088p picture of riverbed over a grid shaped like a decoded P
    // picture's: per macroblock intra (1 in 8), coded inter (3 in 8,
    // half its blocks with levels) or uncoded with a vector that
    // sometimes differs from the left neighbour's.
    const Dsp &dsp = get_dsp(level_of(state));
    const ResolutionInfo res = resolution_info(Resolution::k1088p25);
    SyntheticSource source(SequenceId::kRiverbed, res.width, res.height);
    const Frame picture = source.at(0);
    h264::BlockInfoGrid grid(res.width, res.height);
    std::mt19937 rng(11);
    for (int mby = 0; mby < grid.height4() / 4; ++mby) {
        for (int mbx = 0; mbx < grid.width4() / 4; ++mbx) {
            const int kind = static_cast<int>(rng() % 8);
            const MotionVector mv{static_cast<s16>(rng() % 3 * 4), 0};
            for (int b = 0; b < 16; ++b) {
                h264::BlockInfo &info =
                    grid.at(mbx * 4 + b % 4, mby * 4 + b / 4);
                info.intra = kind == 0;
                info.nonzero = kind <= 3 && rng() % 2 == 0;
                info.ref = kind == 0 ? -1 : 0;
                info.mv = kind == 0 ? MotionVector{} : mv;
            }
        }
    }
    Frame work(res.width, res.height);
    const int qp = benchmark_config(CodecId::kH264, Resolution::k1088p25,
                                    best_simd_level())
                       .qp;
    for (auto _ : state) {
        state.PauseTiming();
        work.copy_from(picture);
        state.ResumeTiming();
        h264::deblock_picture(&work, grid, qp, 0, dsp);
        benchmark::DoNotOptimize(work.luma().row(0));
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_DeblockPicture)
    ->Name("BM_DeblockPicture/1088p")
    ->Apply(per_detected_level)
    ->Unit(benchmark::kMicrosecond);

// ---- Plane-level memory operations (the frame-memory layout's cost
// centres: border extension once per reference picture, whole-plane
// copies on every source frame and anchor promotion). 1920-wide rows
// at a 1088p-like slice height keep one iteration in the microsecond
// range while exercising full cache-line rows.

void
BM_PlaneExtendBorders(benchmark::State &state)
{
    Plane plane(1920, 64, kRefBorder);
    plane.fill(128);
    for (auto _ : state) {
        plane.extend_borders();
        benchmark::DoNotOptimize(plane.row(0));
    }
}
BENCHMARK(BM_PlaneExtendBorders);

void
BM_PlaneCopy(benchmark::State &state)
{
    Plane src(1920, 64, kRefBorder);
    src.fill(73);
    Plane dst(1920, 64, kRefBorder);
    for (auto _ : state) {
        dst.copy_from(src);
        benchmark::DoNotOptimize(dst.row(0));
    }
}
BENCHMARK(BM_PlaneCopy);

// ---- Sub-sample refinement stage (the encoders' search after the
// full-sample step), three ways: every candidate built through the MC
// functions ("tap"); filter-once views, with averaged candidates built
// into a buffer before they are scored ("cached"); and filter-once
// views with averaged candidates scored in place by the fused kernels
// ("fused", what the encoders run). One iteration refines one
// macroblock of blue_sky 1088p from its full-sample result, cycling
// through the picture, so the reported time is ns per macroblock. The
// centre-plane build the cached paths rely on is paid once per
// reference and measured on its own below. The halfpel rows are the
// MPEG-2 search: mc_halfpel per candidate against halfpel_candidate.

struct SubpelScene {
    Frame ref;
    Frame cur;
    Plane centre;
    std::vector<MeBlock> blocks;
    std::vector<MotionVector> hex_start;   ///< quarter-sample
    std::vector<MotionVector> epzs_start;  ///< quarter-sample
    std::vector<MotionVector> half_start;  ///< half-sample (MPEG-2)
};

MeParams
h264_me_params(const Dsp &dsp)
{
    const CodecConfig cfg = benchmark_config(
        CodecId::kH264, Resolution::k1088p25, best_simd_level());
    return MeParams{cfg.me_range,
                    static_cast<int>(16.0 *
                                     std::pow(2.0, (cfg.qp - 12) / 6.0)),
                    2, &dsp, 0};
}

MeParams
mpeg4_me_params(const Dsp &dsp)
{
    const CodecConfig cfg = benchmark_config(
        CodecId::kMpeg4, Resolution::k1088p25, best_simd_level());
    return MeParams{cfg.me_range, cfg.qscale * 16, 2, &dsp, 0};
}

MeParams
mpeg2_me_params(const Dsp &dsp)
{
    const CodecConfig cfg = benchmark_config(
        CodecId::kMpeg2, Resolution::k1088p25, best_simd_level());
    return MeParams{cfg.me_range, cfg.qscale * 16, 1, &dsp, 0};
}

SubpelScene &
subpel_scene()
{
    static SubpelScene *scene = [] {
        auto *s = new SubpelScene;
        const ResolutionInfo res = resolution_info(Resolution::k1088p25);
        SyntheticSource source(SequenceId::kBlueSky, res.width,
                               res.height);
        s->ref = Frame(res.width, res.height, kRefBorder);
        s->ref.copy_from(source.at(0));
        s->ref.extend_borders();
        s->cur = source.at(1);
        const Dsp &dsp = get_dsp(best_simd_level());
        s->centre = Plane(res.width, res.height, kRefBorder);
        build_centre_plane(s->ref.luma(), &s->centre, dsp);
        const MotionEstimator hex(h264_me_params(dsp));
        const MotionEstimator epzs(mpeg4_me_params(dsp));
        const MotionEstimator epzs_half(mpeg2_me_params(dsp));
        for (int y = 0; y + 16 <= res.height; y += 16) {
            for (int x = 0; x + 16 <= res.width; x += 16) {
                MeBlock blk;
                blk.cur = &s->cur.luma();
                blk.ref = &s->ref.luma();
                blk.x0 = x;
                blk.y0 = y;
                const MotionVector h = hex.hex(blk, {}, {}).mv;
                const MotionVector e = epzs.epzs(blk, {}, {}).mv;
                const MotionVector e2 = epzs_half.epzs(blk, {}, {}).mv;
                s->blocks.push_back(blk);
                s->hex_start.push_back({static_cast<s16>(h.x * 4),
                                        static_cast<s16>(h.y * 4)});
                s->epzs_start.push_back({static_cast<s16>(e.x * 4),
                                         static_cast<s16>(e.y * 4)});
                s->half_start.push_back({static_cast<s16>(e2.x * 2),
                                         static_cast<s16>(e2.y * 2)});
            }
        }
        return s;
    }();
    return *scene;
}

enum class SubpelPath { kTap, kCached, kFused };

void
BM_SubpelRefine(benchmark::State &state, CodecId codec, SubpelPath path)
{
    SubpelScene &scene = subpel_scene();
    const Dsp &dsp = get_dsp(best_simd_level());
    const bool h264 = codec == CodecId::kH264;
    const bool half = codec == CodecId::kMpeg2;
    const MeParams params = h264   ? h264_me_params(dsp)
                            : half ? mpeg2_me_params(dsp)
                                   : mpeg4_me_params(dsp);
    const std::vector<MotionVector> &starts =
        h264 ? scene.hex_start : (half ? scene.half_start : scene.epzs_start);
    const Plane &ref = scene.ref.luma();
    size_t i = 0;
    for (auto _ : state) {
        const MeBlock &blk = scene.blocks[i];
        const MotionVector start = starts[i];
        MeResult r;
        if (half) {
            r = path == SubpelPath::kTap
                    ? subpel_refine(
                          blk, start, start, params, {1}, false,
                          [&](MotionVector mv, Pixel *dst, int ds) {
                              mc_halfpel(ref, blk.x0, blk.y0, mv, dst, ds,
                                         16, 16, dsp);
                          })
                    : subpel_refine_views(
                          blk, start, start, params, {1}, false,
                          [&](MotionVector mv) {
                              return halfpel_candidate(ref, blk.x0,
                                                       blk.y0, mv);
                          });
        } else if (path == SubpelPath::kTap) {
            r = subpel_refine(
                blk, start, start, params, {2, 1}, h264,
                [&](MotionVector mv, Pixel *dst, int ds) {
                    mc_qpel_tap(ref, blk.x0, blk.y0, mv, dst, ds, 16, 16,
                                dsp);
                });
        } else {
            const QpelSearchWindow win(ref, scene.centre, blk.x0, blk.y0,
                                       16, 16, start, dsp);
            Pixel built[16 * 16];
            r = subpel_refine_views(
                blk, start, start, params, {2, 1}, h264,
                [&](MotionVector mv) {
                    SubpelCandidate c = win.candidate(mv);
                    if (path == SubpelPath::kCached &&
                        c.kind == SubpelCandidate::Kind::kAverage) {
                        build_candidate(c, built, 16, 16, 16, dsp);
                        c = {SubpelCandidate::Kind::kView, {built, 16}, {}};
                    }
                    return c;
                });
        }
        benchmark::DoNotOptimize(r);
        if (++i == scene.blocks.size())
            i = 0;
    }
    state.SetLabel(dsp.name);
}
BENCHMARK_CAPTURE(BM_SubpelRefine, h264_satd/tap, CodecId::kH264,
                  SubpelPath::kTap);
BENCHMARK_CAPTURE(BM_SubpelRefine, h264_satd/cached, CodecId::kH264,
                  SubpelPath::kCached);
BENCHMARK_CAPTURE(BM_SubpelRefine, h264_satd/fused, CodecId::kH264,
                  SubpelPath::kFused);
BENCHMARK_CAPTURE(BM_SubpelRefine, mpeg4_sad/tap, CodecId::kMpeg4,
                  SubpelPath::kTap);
BENCHMARK_CAPTURE(BM_SubpelRefine, mpeg4_sad/cached, CodecId::kMpeg4,
                  SubpelPath::kCached);
BENCHMARK_CAPTURE(BM_SubpelRefine, mpeg4_sad/fused, CodecId::kMpeg4,
                  SubpelPath::kFused);
BENCHMARK_CAPTURE(BM_SubpelRefine, halfpel/tap, CodecId::kMpeg2,
                  SubpelPath::kTap);
BENCHMARK_CAPTURE(BM_SubpelRefine, halfpel/fused, CodecId::kMpeg2,
                  SubpelPath::kFused);

void
BM_CentrePlaneBuild1088p(benchmark::State &state)
{
    // Once per reference picture: the whole border-extended centre
    // half-sample plane of a 1088p luma reference.
    SubpelScene &scene = subpel_scene();
    const Dsp &dsp = get_dsp(best_simd_level());
    Plane centre(scene.ref.width(), scene.ref.height(), kRefBorder);
    for (auto _ : state) {
        build_centre_plane(scene.ref.luma(), &centre, dsp);
        benchmark::DoNotOptimize(centre.row(0));
        benchmark::ClobberMemory();
    }
    state.SetLabel(dsp.name);
}
BENCHMARK(BM_CentrePlaneBuild1088p)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
