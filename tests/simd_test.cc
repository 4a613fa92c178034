/**
 * @file
 * The central SIMD invariant: every SSE2 and AVX2 kernel is bit-exact
 * with its scalar reference on randomised inputs (this is what makes
 * SimdLevel a pure speed knob in Figure 1), plus accuracy bounds for
 * the fixed-point transforms against the double-precision reference,
 * and the runtime-detection contract (get_dsp never hands out a level
 * the CPU cannot execute).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dsp/dct_ref.h"
#include "dsp/quant.h"
#include "dsp/transform4x4.h"
#include "h264/deblock.h"
#include "simd/dispatch.h"
#include "video/plane.h"

namespace hdvb {
namespace {

/** (trial seed, SimdLevel as int): each non-scalar level the enum
 * knows is checked against the scalar reference; levels the running
 * CPU (or build) lacks are skipped, not silently dropped. */
class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    void
    SetUp() override
    {
        const SimdLevel level = test_level();
        if (level > detected_simd_level()) {
            GTEST_SKIP() << simd_level_name(level)
                         << " not supported on this CPU/build";
        }
        simd_ = &get_dsp(level);
        // Kernel tables must be distinct, or "equivalence" would be
        // trivially comparing a function against itself.
        ASSERT_STREQ(simd_->name, simd_level_name(level));
        rng_.seed(static_cast<unsigned>(std::get<0>(GetParam())) * 7919 +
                  static_cast<unsigned>(std::get<1>(GetParam())) + 1);
        buf_a_.resize(kStride * 40);
        buf_b_.resize(kStride * 40);
        for (auto &px : buf_a_)
            px = static_cast<Pixel>(rng_());
        for (auto &px : buf_b_)
            px = static_cast<Pixel>(rng_());
    }

    SimdLevel
    test_level() const
    {
        return static_cast<SimdLevel>(std::get<1>(GetParam()));
    }

    static constexpr int kStride = 97;  // odd stride, unaligned
    std::mt19937 rng_;
    std::vector<Pixel> buf_a_;
    std::vector<Pixel> buf_b_;
    const Dsp &scalar_ = get_dsp(SimdLevel::kScalar);
    const Dsp *simd_ = nullptr;
};

TEST_P(KernelEquivalence, Sad)
{
    const Pixel *a = buf_a_.data() + 3;
    const Pixel *b = buf_b_.data() + 5;
    EXPECT_EQ(scalar_.sad16x16(a, kStride, b, kStride),
              simd_->sad16x16(a, kStride, b, kStride));
    EXPECT_EQ(scalar_.sad8x8(a, kStride, b, kStride),
              simd_->sad8x8(a, kStride, b, kStride));
    // 6 and 12 drive the vector-loop tails; 15 the scalar remainder
    // plus, for 16-wide paths, the odd final row.
    for (int w : {4, 6, 8, 12, 16}) {
        for (int h : {4, 8, 15, 16}) {
            EXPECT_EQ(scalar_.sad_rect(a, kStride, b, kStride, w, h),
                      simd_->sad_rect(a, kStride, b, kStride, w, h))
                << "w=" << w << " h=" << h;
        }
    }
}

TEST_P(KernelEquivalence, SadEarlyTermination)
{
    // The ET kernel contract (simd/dispatch.h): with an unreachable
    // bound the result is the exact SAD; with any bound, a result
    // <= bound IS the exact SAD (decision safety), and a bailed
    // result both exceeds the bound and never exceeds the exact sum.
    const Pixel *a = buf_a_.data() + 3;
    const Pixel *b = buf_b_.data() + 5;
    const int exact = scalar_.sad16x16(a, kStride, b, kStride);
    EXPECT_EQ(exact,
              scalar_.sad16x16_et(a, kStride, b, kStride, INT32_MAX));
    EXPECT_EQ(exact,
              simd_->sad16x16_et(a, kStride, b, kStride, INT32_MAX));
    for (const int bound : {0, 1, 64, exact - 1, exact, exact + 1}) {
        for (const Dsp *dsp : {&scalar_, simd_}) {
            const int et =
                dsp->sad16x16_et(a, kStride, b, kStride, bound);
            EXPECT_LE(et, exact) << "bound=" << bound;
            if (et <= bound)
                EXPECT_EQ(et, exact) << "bound=" << bound;
        }
    }
    for (int w : {4, 6, 8, 12, 16}) {
        for (int h : {4, 8, 15, 16}) {
            const int rect =
                scalar_.sad_rect(a, kStride, b, kStride, w, h);
            EXPECT_EQ(rect, scalar_.sad_rect_et(a, kStride, b, kStride,
                                                w, h, INT32_MAX));
            EXPECT_EQ(rect, simd_->sad_rect_et(a, kStride, b, kStride,
                                               w, h, INT32_MAX));
            const int bound = rect / 2;
            for (const Dsp *dsp : {&scalar_, simd_}) {
                const int et = dsp->sad_rect_et(a, kStride, b, kStride,
                                                w, h, bound);
                EXPECT_LE(et, rect) << "w=" << w << " h=" << h;
                if (et <= bound)
                    EXPECT_EQ(et, rect) << "w=" << w << " h=" << h;
            }
        }
    }
}

TEST_P(KernelEquivalence, SadAligned)
{
    // sad16x16_a's contract: first operand 16-byte aligned with a
    // 16-byte-multiple stride (any Plane row at x0 % 16 == 0
    // qualifies), second operand unconstrained. Must match the scalar
    // reference on the same data.
    Plane plane(48, 20);
    for (int y = 0; y < plane.height(); ++y)
        for (int x = 0; x < plane.width(); ++x)
            plane.row(y)[x] = static_cast<Pixel>(rng_());
    const Pixel *b = buf_b_.data() + 5;  // unaligned is fine for b
    for (int x0 : {0, 16, 32}) {
        const Pixel *a = plane.row(2) + x0;
        ASSERT_EQ(reinterpret_cast<uintptr_t>(a) % 16, 0u);
        ASSERT_EQ(plane.stride() % 16, 0);
        EXPECT_EQ(scalar_.sad16x16(a, plane.stride(), b, kStride),
                  simd_->sad16x16_a(a, plane.stride(), b, kStride))
            << "x0=" << x0;
    }
}

TEST_P(KernelEquivalence, Satd)
{
    const Pixel *a = buf_a_.data() + 1;
    const Pixel *b = buf_b_.data() + 2;
    EXPECT_EQ(scalar_.satd4x4(a, kStride, b, kStride),
              simd_->satd4x4(a, kStride, b, kStride));
    // The contract is multiples of 4; 12 leaves a lone 4x4 column
    // after the pair-of-blocks path.
    for (int w : {4, 8, 12, 16}) {
        for (int h : {4, 8, 12, 16}) {
            EXPECT_EQ(scalar_.satd_rect(a, kStride, b, kStride, w, h),
                      simd_->satd_rect(a, kStride, b, kStride, w, h))
                << "w=" << w << " h=" << h;
        }
    }
}

TEST_P(KernelEquivalence, SatdExtremes)
{
    // The largest Hadamard magnitudes: a flat +-255 difference puts
    // 16 x 255 in each block's DC, and +-255 checkerboards put it in
    // the highest-frequency coefficient; no coefficient can grow
    // larger.
    constexpr int kSide = 16;
    std::vector<Pixel> zeros(kSide * kSide, 0);
    std::vector<Pixel> full(kSide * kSide, 255);
    std::vector<Pixel> check(kSide * kSide);
    std::vector<Pixel> inverse(kSide * kSide);
    for (int y = 0; y < kSide; ++y) {
        for (int x = 0; x < kSide; ++x) {
            check[y * kSide + x] = ((x + y) & 1) ? 255 : 0;
            inverse[y * kSide + x] = ((x + y) & 1) ? 0 : 255;
        }
    }
    const std::pair<const Pixel *, const Pixel *> cases[] = {
        {full.data(), zeros.data()},
        {zeros.data(), full.data()},
        {check.data(), inverse.data()},
        {inverse.data(), check.data()},
    };
    for (const auto &[a, b] : cases) {
        for (int w : {4, 8, 12, 16}) {
            for (int h : {4, 8, 12, 16}) {
                EXPECT_EQ(scalar_.satd_rect(a, kSide, b, kSide, w, h),
                          simd_->satd_rect(a, kSide, b, kSide, w, h))
                    << "w=" << w << " h=" << h;
            }
        }
        EXPECT_EQ(scalar_.satd4x4(a, kSide, b, kSide),
                  simd_->satd4x4(a, kSide, b, kSide));
    }
    // A flat difference's SATD is exactly its DC term.
    EXPECT_EQ(simd_->satd_rect(full.data(), kSide, zeros.data(), kSide,
                               16, 16),
              16 * 16 * 255 / 2);
}

TEST_P(KernelEquivalence, SseRect)
{
    const Pixel *a = buf_a_.data() + 2;
    const Pixel *b = buf_b_.data() + 7;
    for (int w : {3, 8, 16, 17, 24, 33, 47}) {
        EXPECT_EQ(scalar_.sse_rect(a, kStride, b, kStride, w, 16),
                  simd_->sse_rect(a, kStride, b, kStride, w, 16))
            << "w=" << w;
    }
}

TEST_P(KernelEquivalence, AvgAndAvg4)
{
    const Pixel *a = buf_a_.data() + 4;
    const Pixel *b = buf_b_.data() + 9;
    std::vector<Pixel> d1(33 * 16), d2(33 * 16);
    for (int w : {3, 6, 8, 12, 15, 16, 17, 33}) {
        scalar_.avg_rect(d1.data(), 33, a, kStride, b, kStride, w, 16);
        simd_->avg_rect(d2.data(), 33, a, kStride, b, kStride, w, 16);
        EXPECT_EQ(d1, d2) << "avg w=" << w;
        scalar_.avg4_rect(d1.data(), 33, a, kStride, w, 16);
        simd_->avg4_rect(d2.data(), 33, a, kStride, w, 16);
        EXPECT_EQ(d1, d2) << "avg4 w=" << w;
    }
}

/** Flat and checkerboard 17 x 17 blocks (one spare row and column for
 * avg4's neighbours): the largest differences the averaged-candidate
 * kernels can see, and the rounding of (255 + 0 + 1) >> 1. */
struct ExtremeBlocks {
    static constexpr int kSide = 17;
    std::vector<Pixel> zeros = std::vector<Pixel>(kSide * kSide, 0);
    std::vector<Pixel> full = std::vector<Pixel>(kSide * kSide, 255);
    std::vector<Pixel> check = pattern(1);
    std::vector<Pixel> inverse = pattern(0);

    static std::vector<Pixel>
    pattern(int odd)
    {
        std::vector<Pixel> out(kSide * kSide);
        for (int y = 0; y < kSide; ++y)
            for (int x = 0; x < kSide; ++x)
                out[y * kSide + x] = ((x + y) & 1) == odd ? 255 : 0;
        return out;
    }

    std::vector<const Pixel *>
    all() const
    {
        return {zeros.data(), full.data(), check.data(), inverse.data()};
    }
};

TEST_P(KernelEquivalence, SadAvgRect)
{
    // Every w, h the contract allows (<= 16), unaligned operands, the
    // b == c alias (the average is b itself) and the extremes.
    const Pixel *a = buf_a_.data() + 3;
    const Pixel *b = buf_b_.data() + 5;
    const Pixel *c = buf_b_.data() + kStride + 6;
    for (int w = 1; w <= 16; ++w) {
        for (int h = 1; h <= 16; ++h) {
            ASSERT_EQ(scalar_.sad_avg_rect(a, kStride, b, kStride, c,
                                           kStride, w, h),
                      simd_->sad_avg_rect(a, kStride, b, kStride, c,
                                          kStride, w, h))
                << "w=" << w << " h=" << h;
            ASSERT_EQ(scalar_.sad_rect(a, kStride, b, kStride, w, h),
                      simd_->sad_avg_rect(a, kStride, b, kStride, b,
                                          kStride, w, h))
                << "aliased w=" << w << " h=" << h;
        }
    }
    const ExtremeBlocks x;
    constexpr int kS = ExtremeBlocks::kSide;
    for (const Pixel *xa : x.all()) {
        for (const Pixel *xb : x.all()) {
            for (const Pixel *xc : x.all()) {
                for (int w : {8, 16}) {
                    EXPECT_EQ(scalar_.sad_avg_rect(xa, kS, xb, kS, xc, kS,
                                                   w, 16),
                              simd_->sad_avg_rect(xa, kS, xb, kS, xc, kS,
                                                  w, 16))
                        << "w=" << w;
                }
            }
        }
    }
}

TEST_P(KernelEquivalence, SadAvg4Rect)
{
    const Pixel *a = buf_a_.data() + 3;
    const Pixel *s = buf_b_.data() + 5;
    for (int w = 1; w <= 16; ++w) {
        for (int h = 1; h <= 16; ++h) {
            ASSERT_EQ(scalar_.sad_avg4_rect(a, kStride, s, kStride, w, h),
                      simd_->sad_avg4_rect(a, kStride, s, kStride, w, h))
                << "w=" << w << " h=" << h;
        }
    }
    // The diagonal reads a row and a column past the block: a row
    // aliasing the block's own (s == a) and the extremes.
    for (int w : {8, 16}) {
        EXPECT_EQ(scalar_.sad_avg4_rect(a, kStride, a, kStride, w, 16),
                  simd_->sad_avg4_rect(a, kStride, a, kStride, w, 16));
    }
    const ExtremeBlocks x;
    constexpr int kS = ExtremeBlocks::kSide;
    for (const Pixel *xa : x.all()) {
        for (const Pixel *xs : x.all()) {
            for (int w : {8, 16}) {
                EXPECT_EQ(scalar_.sad_avg4_rect(xa, kS, xs, kS, w, 16),
                          simd_->sad_avg4_rect(xa, kS, xs, kS, w, 16))
                    << "w=" << w;
            }
        }
    }
    // A full-swing checkerboard averages to (2 * 255 + 2) >> 2 = 128.
    EXPECT_EQ(simd_->sad_avg4_rect(x.zeros.data(), kS, x.check.data(), kS,
                                   16, 16),
              16 * 16 * 128);
}

TEST_P(KernelEquivalence, SatdAvgRect)
{
    const Pixel *a = buf_a_.data() + 1;
    const Pixel *b = buf_b_.data() + 2;
    const Pixel *c = buf_a_.data() + 2 * kStride + 7;
    for (int w : {4, 8, 12, 16}) {
        for (int h : {4, 8, 12, 16}) {
            EXPECT_EQ(scalar_.satd_avg_rect(a, kStride, b, kStride, c,
                                            kStride, w, h),
                      simd_->satd_avg_rect(a, kStride, b, kStride, c,
                                           kStride, w, h))
                << "w=" << w << " h=" << h;
            EXPECT_EQ(scalar_.satd_rect(a, kStride, b, kStride, w, h),
                      simd_->satd_avg_rect(a, kStride, b, kStride, b,
                                           kStride, w, h))
                << "aliased w=" << w << " h=" << h;
        }
    }
    // The SatdExtremes magnitudes through the averaging loads: flat
    // and checkerboard +-255 differences, and the 128 a +-255 pair
    // rounds to.
    const ExtremeBlocks x;
    constexpr int kS = ExtremeBlocks::kSide;
    for (const Pixel *xa : x.all()) {
        for (const Pixel *xb : x.all()) {
            for (const Pixel *xc : x.all()) {
                for (int w : {4, 8, 12, 16}) {
                    for (int h : {4, 8, 16}) {
                        EXPECT_EQ(scalar_.satd_avg_rect(xa, kS, xb, kS, xc,
                                                        kS, w, h),
                                  simd_->satd_avg_rect(xa, kS, xb, kS, xc,
                                                       kS, w, h))
                            << "w=" << w << " h=" << h;
                    }
                }
            }
        }
    }
    EXPECT_EQ(simd_->satd_avg_rect(x.zeros.data(), kS, x.full.data(), kS,
                                   x.full.data(), kS, 16, 16),
              16 * 16 * 255 / 2);
}

TEST_P(KernelEquivalence, QpelBilin)
{
    const Pixel *a = buf_a_.data() + 6;
    std::vector<Pixel> d1(17 * 16), d2(17 * 16);
    for (int fx = 0; fx < 4; ++fx) {
        for (int fy = 0; fy < 4; ++fy) {
            for (int w : {6, 16, 17}) {
                scalar_.qpel_bilin_rect(d1.data(), 17, a, kStride, w,
                                        16, fx, fy);
                simd_->qpel_bilin_rect(d2.data(), 17, a, kStride, w,
                                       16, fx, fy);
                EXPECT_EQ(d1, d2)
                    << "fx=" << fx << " fy=" << fy << " w=" << w;
            }
        }
    }
}

TEST_P(KernelEquivalence, SubAndAdd)
{
    const Pixel *a = buf_a_.data() + 8;
    const Pixel *b = buf_b_.data() + 3;
    std::vector<Coeff> r1(17 * 8), r2(17 * 8);
    for (int w : {4, 6, 8, 12, 15, 16, 17}) {
        scalar_.sub_rect(r1.data(), 17, a, kStride, b, kStride, w, 8);
        simd_->sub_rect(r2.data(), 17, a, kStride, b, kStride, w, 8);
        EXPECT_EQ(r1, r2) << "w=" << w;
    }
    // add_rect: residuals that push past both clamp edges.
    std::vector<Coeff> res(17 * 8);
    for (auto &c : res)
        c = static_cast<Coeff>(static_cast<int>(rng_() % 1200) - 600);
    for (int w : {6, 8, 12, 16, 17}) {
        std::vector<Pixel> d1(17 * 8), d2(17 * 8);
        for (size_t i = 0; i < d1.size(); ++i)
            d1[i] = d2[i] = buf_a_[i];
        scalar_.add_rect(d1.data(), 17, res.data(), 17, w, 8);
        simd_->add_rect(d2.data(), 17, res.data(), 17, w, 8);
        EXPECT_EQ(d1, d2) << "w=" << w;
    }
}

TEST_P(KernelEquivalence, Dct8x8BitExact)
{
    Coeff blk1[64], blk2[64];
    for (int i = 0; i < 64; ++i) {
        blk1[i] = blk2[i] =
            static_cast<Coeff>(static_cast<int>(rng_() % 511) - 255);
    }
    scalar_.fdct8x8(blk1);
    simd_->fdct8x8(blk2);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(blk1[i], blk2[i]) << "fdct coeff " << i;

    for (int i = 0; i < 64; ++i) {
        blk1[i] = blk2[i] =
            static_cast<Coeff>(static_cast<int>(rng_() % 4095) - 2047);
    }
    scalar_.idct8x8(blk1);
    simd_->idct8x8(blk2);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(blk1[i], blk2[i]) << "idct sample " << i;
}

TEST_P(KernelEquivalence, H264HalfPel)
{
    const Pixel *src = buf_a_.data() + kStride * 4 + 8;
    // Stride 24 leaves room for the w=17 column (tail after a 16-wide
    // vector pass).
    std::vector<Pixel> d1(24 * 16), d2(24 * 16);
    for (int w : {4, 6, 8, 12, 16, 17}) {
        scalar_.h264_hpel_h(d1.data(), 24, src, kStride, w, 16);
        simd_->h264_hpel_h(d2.data(), 24, src, kStride, w, 16);
        EXPECT_EQ(d1, d2) << "hpel_h w=" << w;
        scalar_.h264_hpel_v(d1.data(), 24, src, kStride, w, 16);
        simd_->h264_hpel_v(d2.data(), 24, src, kStride, w, 16);
        EXPECT_EQ(d1, d2) << "hpel_v w=" << w;
    }
    // hv is contract-limited to w, h <= 16.
    for (int w : {4, 6, 8, 12, 16}) {
        for (int h : {4, 9, 16}) {
            std::fill(d1.begin(), d1.end(), Pixel{0});
            std::fill(d2.begin(), d2.end(), Pixel{0});
            scalar_.h264_hpel_hv(d1.data(), 24, src, kStride, w, h);
            simd_->h264_hpel_hv(d2.data(), 24, src, kStride, w, h);
            EXPECT_EQ(d1, d2) << "hpel_hv w=" << w << " h=" << h;
        }
    }
}

namespace {

/** Sample patterns across a deblocking edge. */
enum class EdgePattern { kNoise, kNearStep, kFlat, kRamp, kFullStep };

/**
 * Fill a w x h picture so that every line crossing the column (or row)
 * @p edge shows @p pattern: kNearStep puts each side within a few grey
 * levels of its own level and steps by up to alpha + 2 across the edge,
 * so most lines pass the filter thresholds, some at the clip limits.
 */
void
fill_edge_picture(std::vector<Pixel> *pic, int stride, int h, int edge,
                  bool vertical, EdgePattern pattern, int alpha,
                  std::mt19937 &rng)
{
    for (int y = 0; y < h; ++y) {
        const int lo = static_cast<int>(rng() % 256);
        const int step = static_cast<int>(rng() % (2 * alpha + 5)) -
                         (alpha + 2);
        for (int x = 0; x < stride; ++x) {
            const int along = vertical ? x : y;  // across the edge
            const bool q_side = along >= edge;
            int v = 0;
            switch (pattern) {
            case EdgePattern::kNoise:
                v = static_cast<int>(rng() % 256);
                break;
            case EdgePattern::kNearStep:
                v = lo + (q_side ? step : 0) +
                    static_cast<int>(rng() % 5) - 2;
                break;
            case EdgePattern::kFlat:
                v = 77;
                break;
            case EdgePattern::kRamp:
                v = 100 + 3 * along;
                break;
            case EdgePattern::kFullStep:  // 0 | 255 or 255 | 0
                v = q_side == ((vertical ? y : x) % 2 == 0) ? 255 : 0;
                break;
            }
            (*pic)[static_cast<size_t>(y) * stride + x] =
                clamp_pixel(v);
        }
    }
}

}  // namespace

TEST_P(KernelEquivalence, H264DeblockLuma)
{
    // 16 lines across an edge at column (row) 8, with four samples of
    // margin around the kernel's reads; whole pictures are compared, so
    // a stray write anywhere fails too.
    constexpr int kW = 29;  // odd stride
    constexpr int kH = 28;
    for (int qp = 0; qp < 52; ++qp) {
        const h264::DeblockThresholds t = h264::deblock_thresholds(qp);
        for (int pat = 0; pat < 5; ++pat) {
            for (const bool vertical : {true, false}) {
                u8 bs[4], tc0[4];
                for (int s = 0; s < 4; ++s) {
                    bs[s] = static_cast<u8>(rng_() % 5);
                    tc0[s] = static_cast<u8>(
                        bs[s] != 0 ? h264::deblock_tc0(qp, bs[s]) : 0);
                }
                std::vector<Pixel> ref(kW * kH), got;
                fill_edge_picture(&ref, kW, kH, 8, vertical,
                                  static_cast<EdgePattern>(pat), t.alpha,
                                  rng_);
                got = ref;
                const int at = vertical ? 6 * kW + 8 : 8 * kW + 6;
                if (vertical) {
                    scalar_.h264_deblock_luma_v(ref.data() + at, kW,
                                                t.alpha, t.beta, bs, tc0);
                    simd_->h264_deblock_luma_v(got.data() + at, kW,
                                               t.alpha, t.beta, bs, tc0);
                } else {
                    scalar_.h264_deblock_luma_h(ref.data() + at, kW,
                                                t.alpha, t.beta, bs, tc0);
                    simd_->h264_deblock_luma_h(got.data() + at, kW,
                                               t.alpha, t.beta, bs, tc0);
                }
                ASSERT_EQ(ref, got)
                    << "qp=" << qp << " pattern=" << pat
                    << (vertical ? " vertical" : " horizontal")
                    << " bs=" << int{bs[0]} << int{bs[1]} << int{bs[2]}
                    << int{bs[3]};
            }
        }
    }
}

TEST_P(KernelEquivalence, H264DeblockChroma)
{
    // Cb and Cr are separate pictures; each holds 8 lines of the edge.
    constexpr int kW = 21;
    constexpr int kH = 20;
    for (int qp = 0; qp < 52; ++qp) {
        const h264::DeblockThresholds t = h264::deblock_thresholds(qp);
        for (int pat = 0; pat < 5; ++pat) {
            for (const bool vertical : {true, false}) {
                u8 bs[4], tc0[4];
                for (int s = 0; s < 4; ++s) {
                    bs[s] = static_cast<u8>(rng_() % 5);
                    tc0[s] = static_cast<u8>(
                        bs[s] != 0 ? h264::deblock_tc0(qp, bs[s]) : 0);
                }
                std::vector<Pixel> ref_cb(kW * kH), ref_cr(kW * kH);
                for (std::vector<Pixel> *pic : {&ref_cb, &ref_cr}) {
                    fill_edge_picture(pic, kW, kH, 8, vertical,
                                      static_cast<EdgePattern>(pat),
                                      t.alpha, rng_);
                }
                std::vector<Pixel> cb = ref_cb, cr = ref_cr;
                const int at = vertical ? 6 * kW + 8 : 8 * kW + 6;
                if (vertical) {
                    scalar_.h264_deblock_chroma_v(ref_cb.data() + at,
                                                  ref_cr.data() + at, kW,
                                                  t.alpha, t.beta, bs,
                                                  tc0);
                    simd_->h264_deblock_chroma_v(cb.data() + at,
                                                 cr.data() + at, kW,
                                                 t.alpha, t.beta, bs, tc0);
                } else {
                    scalar_.h264_deblock_chroma_h(ref_cb.data() + at,
                                                  ref_cr.data() + at, kW,
                                                  t.alpha, t.beta, bs,
                                                  tc0);
                    simd_->h264_deblock_chroma_h(cb.data() + at,
                                                 cr.data() + at, kW,
                                                 t.alpha, t.beta, bs, tc0);
                }
                ASSERT_EQ(ref_cb, cb) << "qp=" << qp << " pattern=" << pat;
                ASSERT_EQ(ref_cr, cr) << "qp=" << qp << " pattern=" << pat;
            }
        }
    }
}

TEST_P(KernelEquivalence, H264Inv4x4Add)
{
    // Dequantised levels span all of s16; destinations sit near both
    // clamp edges as well as anywhere.
    for (int trial = 0; trial < 400; ++trial) {
        Coeff blk[16];
        for (Coeff &c : blk) {
            switch (trial % 4) {
            case 0:  // anything
                c = static_cast<Coeff>(rng_());
                break;
            case 1:  // extremes
                c = static_cast<Coeff>(rng_() % 2 ? 32767 : -32768);
                break;
            case 2:  // typical dequantised residuals
                c = static_cast<Coeff>(static_cast<int>(rng_() % 4001) -
                                       2000);
                break;
            default:  // sparse: mostly zero, a few large
                c = static_cast<Coeff>(
                    rng_() % 5 == 0 ? static_cast<int>(rng_() % 65536) -
                                          32768
                                    : 0);
                break;
            }
        }
        const int base = trial % 3 == 0 ? 0 : (trial % 3 == 1 ? 250 : -1);
        std::vector<Pixel> ref(kStride * 4);
        for (size_t i = 0; i < ref.size(); ++i) {
            ref[i] = base < 0 ? static_cast<Pixel>(rng_())
                              : clamp_pixel(base + static_cast<int>(
                                                       rng_() % 6));
        }
        std::vector<Pixel> got = ref, spec = ref;
        const Coeff before[16] = {blk[0], blk[1], blk[2], blk[3], blk[4],
                                  blk[5], blk[6], blk[7], blk[8], blk[9],
                                  blk[10], blk[11], blk[12], blk[13],
                                  blk[14], blk[15]};
        scalar_.h264_inv4x4_add(ref.data() + 3, kStride, blk);
        simd_->h264_inv4x4_add(got.data() + 3, kStride, blk);
        ASSERT_EQ(ref, got) << "trial " << trial;
        ASSERT_TRUE(std::equal(blk, blk + 16, before)) << "blk modified";
        // The scalar kernel is h264_inv4x4 followed by add_rect.
        Coeff res[16];
        std::copy(blk, blk + 16, res);
        h264_inv4x4(res);
        scalar_.add_rect(spec.data() + 3, kStride, res, 4, 4, 4);
        ASSERT_EQ(spec, ref) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrials, KernelEquivalence,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Range(1, kSimdLevelCount)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return std::string(simd_level_name(
                   static_cast<SimdLevel>(std::get<1>(info.param)))) +
               "_trial" + std::to_string(std::get<0>(info.param));
    });

/** Quantiser kernels against their scalar references, exhaustively
 * over every s16 input, once per non-scalar level. */
class QuantKernelEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        const SimdLevel level = static_cast<SimdLevel>(GetParam());
        if (level > detected_simd_level()) {
            GTEST_SKIP() << simd_level_name(level)
                         << " not supported on this CPU/build";
        }
        simd_ = &get_dsp(level);
        ASSERT_STREQ(simd_->name, simd_level_name(level));
    }

    /** Every s16 value once, in 64-coefficient blocks. */
    static std::vector<Coeff>
    every_s16()
    {
        std::vector<Coeff> all(1 << 16);
        for (int i = 0; i < (1 << 16); ++i)
            all[static_cast<size_t>(i)] = static_cast<Coeff>(i - 32768);
        return all;
    }

    const Dsp &scalar_ = get_dsp(SimdLevel::kScalar);
    const Dsp *simd_ = nullptr;
};

TEST_P(QuantKernelEquivalence, Mpeg8x8)
{
    // Steps 2..321 span every intra and inter matrix entry at qscale
    // 1..31 under both step shifts. Position i of round r gets step
    // 2 + (r + 5 i) % 320, so over the rounds every input value meets
    // every step, at varying positions.
    const std::vector<Coeff> all = every_s16();
    for (int dead_zone : {0, 8, 16, 32}) {
        for (int round = 0; round < 320; ++round) {
            MpegQuantTable q;
            for (int i = 0; i < 64; ++i) {
                const int step = 2 + (round + 5 * i) % 320;
                q.step[i] = static_cast<s16>(step);
                q.offset[i] = static_cast<s16>((step * dead_zone) >> 6);
            }
            for (size_t at = 0; at < all.size(); at += 64) {
                Coeff ref[64];
                Coeff got[64];
                std::copy(&all[at], &all[at] + 64, ref);
                std::copy(&all[at], &all[at] + 64, got);
                const int nz_ref = scalar_.mpeg_quant8x8(ref, q);
                const int nz_got = simd_->mpeg_quant8x8(got, q);
                ASSERT_EQ(nz_ref, nz_got)
                    << "dead_zone=" << dead_zone << " round=" << round
                    << " block=" << at / 64;
                ASSERT_TRUE(std::equal(ref, ref + 64, got))
                    << "dead_zone=" << dead_zone << " round=" << round
                    << " block=" << at / 64;
                // Dequantise every s16 level, not just quantiser output.
                std::copy(&all[at], &all[at] + 64, ref);
                std::copy(&all[at], &all[at] + 64, got);
                scalar_.mpeg_dequant8x8(ref, q);
                simd_->mpeg_dequant8x8(got, q);
                ASSERT_TRUE(std::equal(ref, ref + 64, got))
                    << "dequant round=" << round << " block=" << at / 64;
            }
        }
    }
}

TEST_P(QuantKernelEquivalence, H264_4x4)
{
    const std::vector<Coeff> all = every_s16();
    for (int qp = 0; qp < kH264QpCount; ++qp) {
        for (bool intra : {false, true}) {
            const H264Quantizer ref_q(qp, intra, scalar_);
            const H264Quantizer got_q(qp, intra, *simd_);
            for (size_t at = 0; at < all.size(); at += 16) {
                Coeff ref[16];
                Coeff got[16];
                std::copy(&all[at], &all[at] + 16, ref);
                std::copy(&all[at], &all[at] + 16, got);
                ASSERT_EQ(ref_q.quantize4x4(ref), got_q.quantize4x4(got))
                    << "qp=" << qp << " intra=" << intra
                    << " block=" << at / 16;
                ASSERT_TRUE(std::equal(ref, ref + 16, got))
                    << "qp=" << qp << " intra=" << intra
                    << " block=" << at / 16;
                std::copy(&all[at], &all[at] + 16, ref);
                std::copy(&all[at], &all[at] + 16, got);
                ref_q.dequantize4x4(ref);
                got_q.dequantize4x4(got);
                ASSERT_TRUE(std::equal(ref, ref + 16, got))
                    << "dequant qp=" << qp << " block=" << at / 16;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryInput, QuantKernelEquivalence,
    ::testing::Range(1, kSimdLevelCount),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(
            simd_level_name(static_cast<SimdLevel>(info.param)));
    });

// ---- transform accuracy against the double-precision reference ----

TEST(Dct8x8, ForwardMatchesReferenceWithinTolerance)
{
    std::mt19937 rng(99);
    const Dsp &dsp = get_dsp(SimdLevel::kScalar);
    double worst = 0.0;
    for (int trial = 0; trial < 200; ++trial) {
        Coeff blk[64];
        double ref_in[64];
        for (int i = 0; i < 64; ++i) {
            blk[i] = static_cast<Coeff>(static_cast<int>(rng() % 511) -
                                        255);
            ref_in[i] = blk[i];
        }
        double ref_out[64];
        fdct8x8_ref(ref_in, ref_out);
        dsp.fdct8x8(blk);
        for (int i = 0; i < 64; ++i)
            worst = std::max(worst, std::abs(blk[i] - ref_out[i]));
    }
    EXPECT_LT(worst, 2.0);  // Q13 basis with two roundings
}

TEST(Dct8x8, RoundTripReconstructsResiduals)
{
    std::mt19937 rng(7);
    const Dsp &dsp = get_dsp(best_simd_level());
    int worst = 0;
    for (int trial = 0; trial < 200; ++trial) {
        Coeff blk[64], orig[64];
        for (int i = 0; i < 64; ++i) {
            blk[i] = orig[i] =
                static_cast<Coeff>(static_cast<int>(rng() % 511) - 255);
        }
        dsp.fdct8x8(blk);
        dsp.idct8x8(blk);
        for (int i = 0; i < 64; ++i)
            worst = std::max(worst, std::abs(blk[i] - orig[i]));
    }
    EXPECT_LE(worst, 2);  // unquantised round trip is near-lossless
}

TEST(Dct8x8, DcOnlyBlockIsFlat)
{
    const Dsp &dsp = get_dsp(SimdLevel::kScalar);
    Coeff blk[64] = {};
    blk[0] = 800;  // orthonormal DC: output = 800 / 8 = 100 per sample
    dsp.idct8x8(blk);
    for (int i = 0; i < 64; ++i)
        EXPECT_NEAR(blk[i], 100, 1);
}

// ---- level naming, parsing, and the detection contract ----

TEST(SimdLevel, NamesAreExhaustiveAndParseBack)
{
    EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
    EXPECT_STREQ(simd_level_name(SimdLevel::kSse2), "sse2");
    EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
    for (int i = 0; i < kSimdLevelCount; ++i) {
        const SimdLevel level = static_cast<SimdLevel>(i);
        SimdLevel parsed = SimdLevel::kScalar;
        EXPECT_TRUE(parse_simd_level(simd_level_name(level), &parsed));
        EXPECT_EQ(parsed, level);
    }
    SimdLevel parsed = SimdLevel::kSse2;
    EXPECT_FALSE(parse_simd_level("sse4", &parsed));
    EXPECT_FALSE(parse_simd_level("", &parsed));
    EXPECT_EQ(parsed, SimdLevel::kSse2);  // untouched on failure
}

TEST(SimdLevel, BestNeverExceedsDetected)
{
    // best_simd_level() may be lowered by HDVB_SIMD (the forced-level
    // ctest runs rely on that) but can never exceed the silicon.
    EXPECT_LE(best_simd_level(), detected_simd_level());
    EXPECT_STREQ(get_dsp(best_simd_level()).name,
                 simd_level_name(best_simd_level()));
#if defined(__SSE2__)
    EXPECT_GE(detected_simd_level(), SimdLevel::kSse2);
#endif
}

TEST(SimdLevel, GetDspFallsBackToStrongestSupported)
{
    // A level above anything the CPU/build supports (e.g. a future
    // enum value) must clamp to the detected best, never hand out a
    // table whose code the machine cannot execute.
    const SimdLevel beyond = static_cast<SimdLevel>(kSimdLevelCount);
    EXPECT_STREQ(get_dsp(beyond).name,
                 simd_level_name(detected_simd_level()));
    // Every representable level resolves to a table at or below the
    // detected level.
    for (int i = 0; i < kSimdLevelCount; ++i) {
        const SimdLevel level = static_cast<SimdLevel>(i);
        SimdLevel resolved = SimdLevel::kScalar;
        ASSERT_TRUE(parse_simd_level(get_dsp(level).name, &resolved));
        EXPECT_LE(resolved, detected_simd_level());
        if (level <= detected_simd_level()) {
            EXPECT_EQ(resolved, level);
        }
    }
}

}  // namespace
}  // namespace hdvb
