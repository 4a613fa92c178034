/**
 * @file
 * Unit tests for motion compensation (all three interpolation schemes)
 * and motion estimation (full search, EPZS, hexagon, sub-pel refine).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "mc/mc.h"
#include "me/me.h"
#include "synth/synth.h"

namespace hdvb {
namespace {

Plane
random_plane(int w, int h, unsigned seed)
{
    Plane plane(w, h, kRefBorder);
    std::mt19937 rng(seed);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            plane.at(x, y) = static_cast<Pixel>(rng());
    plane.extend_borders();
    return plane;
}

TEST(McHalfpel, IntegerPositionIsPureCopy)
{
    const Plane ref = random_plane(64, 64, 1);
    const Dsp &dsp = get_dsp(best_simd_level());
    Pixel dst[16 * 16];
    mc_halfpel(ref, 16, 16, {4, -6}, dst, 16, 16, 16, dsp);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            ASSERT_EQ(dst[y * 16 + x], ref.at(16 + 2 + x, 16 - 3 + y));
}

TEST(McHalfpel, HalfPositionsAverageNeighbours)
{
    const Plane ref = random_plane(64, 64, 2);
    const Dsp &dsp = get_dsp(best_simd_level());
    Pixel dst[8 * 8];
    mc_halfpel(ref, 8, 8, {1, 0}, dst, 8, 8, 8, dsp);
    EXPECT_EQ(dst[0], (ref.at(8, 8) + ref.at(9, 8) + 1) >> 1);
    mc_halfpel(ref, 8, 8, {0, 1}, dst, 8, 8, 8, dsp);
    EXPECT_EQ(dst[0], (ref.at(8, 8) + ref.at(8, 9) + 1) >> 1);
    mc_halfpel(ref, 8, 8, {1, 1}, dst, 8, 8, 8, dsp);
    EXPECT_EQ(dst[0], (ref.at(8, 8) + ref.at(9, 8) + ref.at(8, 9) +
                       ref.at(9, 9) + 2) >> 2);
}

TEST(McQpelBilin, QuarterWeightsInterpolateLinearly)
{
    // On a horizontal ramp, quarter-pel positions must interpolate
    // linearly between samples.
    Plane ref(64, 64, kRefBorder);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            ref.at(x, y) = static_cast<Pixel>(4 * x);
    ref.extend_borders();
    const Dsp &dsp = get_dsp(best_simd_level());
    Pixel dst[8 * 8];
    for (int fx = 0; fx < 4; ++fx) {
        mc_qpel_bilin(ref, 8, 8, {static_cast<s16>(fx), 0}, dst, 8, 8,
                      8, dsp);
        EXPECT_NEAR(dst[0], 32 + fx, 1) << "fx=" << fx;
    }
}

TEST(McH264Luma, AllSixteenPositionsStayInRangeAndDiffer)
{
    const Plane ref = random_plane(64, 64, 3);
    const Dsp &dsp = get_dsp(best_simd_level());
    Pixel first[16 * 16];
    int distinct = 0;
    for (int fy = 0; fy < 4; ++fy) {
        for (int fx = 0; fx < 4; ++fx) {
            Pixel dst[16 * 16];
            mc_h264_luma(ref, 16, 16,
                         {static_cast<s16>(fx), static_cast<s16>(fy)},
                         dst, 16, 16, 16, dsp);
            if (fx == 0 && fy == 0) {
                std::copy(dst, dst + 256, first);
            } else if (!std::equal(dst, dst + 256, first)) {
                ++distinct;
            }
        }
    }
    EXPECT_EQ(distinct, 15);  // every fractional position differs
}

TEST(McH264Luma, HalfPelMatchesSixTapFormula)
{
    const Plane ref = random_plane(64, 64, 4);
    const Dsp &dsp = get_dsp(SimdLevel::kScalar);
    Pixel dst[4 * 4];
    mc_h264_luma(ref, 16, 16, {2, 0}, dst, 4, 4, 4, dsp);
    const int x = 16, y = 16;
    const int v = ref.at(x - 2, y) - 5 * ref.at(x - 1, y) +
                  20 * ref.at(x, y) + 20 * ref.at(x + 1, y) -
                  5 * ref.at(x + 2, y) + ref.at(x + 3, y);
    EXPECT_EQ(dst[0], clamp_pixel((v + 16) >> 5));
}

TEST(McH264Chroma, EighthPelBilinear)
{
    const Plane ref = random_plane(32, 32, 5);
    Pixel dst[4 * 4];
    // mv 8 quarter-pel = 1 full chroma sample: pure copy shifted by 1.
    mc_h264_chroma(ref, 8, 8, {8, 0}, dst, 4, 4, 4);
    EXPECT_EQ(dst[0], ref.at(9, 8));
    // mv 4 = half chroma sample: 50/50 blend.
    mc_h264_chroma(ref, 8, 8, {4, 0}, dst, 4, 4, 4);
    EXPECT_EQ(dst[0], (ref.at(8, 8) * 4 + ref.at(9, 8) * 4 + 4) >> 3);
}

TEST(ChromaMvDerivation, DividesTowardZero)
{
    EXPECT_EQ(chroma_mv_from_halfpel({5, -5}).x, 2);
    EXPECT_EQ(chroma_mv_from_halfpel({5, -5}).y, -2);
    EXPECT_EQ(chroma_mv_from_qpel({7, -7}).x, 3);
    EXPECT_EQ(chroma_mv_from_qpel({7, -7}).y, -3);
}

// ---- motion estimation ----

class MeShiftTest : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MeShiftTest, FullSearchRecoversPlantedMotion)
{
    const auto [dx, dy] = GetParam();
    Plane ref = random_plane(96, 96, 10);
    Plane cur(96, 96, kRefBorder);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            cur.at(x, y) = ref.at(clamp(x + dx, 0, 95),
                                  clamp(y + dy, 0, 95));

    const Dsp &dsp = get_dsp(best_simd_level());
    MeParams params{12, 32, 1, &dsp};
    MotionEstimator me(params);
    MeBlock blk{&cur, &ref, 40, 40, 16, 16};
    const MeResult result = me.full_search(blk, {});
    EXPECT_EQ(result.mv.x, dx);
    EXPECT_EQ(result.mv.y, dy);
    EXPECT_EQ(result.sad, 0);
}

TEST_P(MeShiftTest, EpzsAndHexMatchFullSearchOnCleanShift)
{
    // Zonal searches (EPZS, hexagon) descend the SAD landscape; unlike
    // exhaustive search they need gradients, so this test uses a
    // smooth paraboloid pattern with a unique alignment minimum (pure
    // noise has a flat landscape that only full search can solve).
    const auto [dx, dy] = GetParam();
    Plane ref(96, 96, kRefBorder);
    for (int y = 0; y < 96; ++y) {
        for (int x = 0; x < 96; ++x) {
            const int r2 = (x - 48) * (x - 48) + (y - 48) * (y - 48);
            ref.at(x, y) = clamp_pixel(r2 / 40);  // no clamp anywhere
        }
    }
    ref.extend_borders();
    Plane cur(96, 96, kRefBorder);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            cur.at(x, y) = ref.at(clamp(x + dx, 0, 95),
                                  clamp(y + dy, 0, 95));

    const Dsp &dsp = get_dsp(best_simd_level());
    MeParams params{12, 32, 1, &dsp};
    MotionEstimator me(params);
    // Block away from the paraboloid centre, where the gradient is
    // strong in both axes.
    MeBlock blk{&cur, &ref, 8, 8, 16, 16};
    const std::vector<MotionVector> no_cands;
    const MeResult epzs = me.epzs(blk, {}, no_cands);
    const MeResult hex = me.hex(blk, {}, no_cands);
    // Fast searches trade exactness for speed by design: EPZS early-
    // terminates once SAD falls below one grey level per sample (its
    // convergence threshold), and hexagon may stop one rate-cost-
    // equivalent step short of the optimum. The contract is therefore
    // a per-sample residual bound, not exact-zero.
    EXPECT_LE(epzs.sad, 16 * 16)
        << "epzs missed (" << dx << "," << dy << ")";
    EXPECT_LE(hex.sad, 2 * 16 * 16)
        << "hex missed (" << dx << "," << dy << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, MeShiftTest,
    ::testing::Values(std::pair{0, 0}, std::pair{3, 0}, std::pair{0, -4},
                      std::pair{-5, 2}, std::pair{7, 7},
                      std::pair{-8, -3}));

TEST(MeBounds, WindowClampedNearPictureEdge)
{
    Plane ref = random_plane(64, 64, 12);
    Plane cur = random_plane(64, 64, 13);
    const Dsp &dsp = get_dsp(best_simd_level());
    MeParams params{32, 32, 1, &dsp};
    MotionEstimator me(params);
    MeBlock blk{&cur, &ref, 0, 0, 16, 16};
    int min_x, max_x, min_y, max_y;
    me.mv_bounds(blk, &min_x, &max_x, &min_y, &max_y);
    EXPECT_GE(min_x, -kMeMargin);
    EXPECT_GE(min_y, -kMeMargin);
    EXPECT_LE(max_x, 64 + kMeMargin - 16);
    // The full window must be searchable without touching unsafe rows.
    const MeResult result = me.full_search(blk, {});
    EXPECT_GE(result.mv.x, min_x);
    EXPECT_LE(result.mv.x, max_x);
}

TEST(MeCandidates, GoodCandidateShortCircuitsToExactMatch)
{
    Plane ref = random_plane(96, 96, 14);
    Plane cur(96, 96, kRefBorder);
    const int dx = 11, dy = -9;  // outside the diamond's casual reach
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            cur.at(x, y) = ref.at(clamp(x + dx, 0, 95),
                                  clamp(y + dy, 0, 95));
    const Dsp &dsp = get_dsp(best_simd_level());
    MeParams params{16, 32, 1, &dsp};
    MotionEstimator me(params);
    MeBlock blk{&cur, &ref, 48, 48, 16, 16};
    const std::vector<MotionVector> cands = {
        {static_cast<s16>(dx), static_cast<s16>(dy)}};
    const MeResult result = me.epzs(blk, {}, cands);
    EXPECT_EQ(result.sad, 0);
}

TEST(SubpelRefine, FindsPlantedHalfPelShift)
{
    // Build cur as the half-pel interpolation of ref: the refiner
    // should prefer the (1, 0) half-pel position over integer ones.
    Plane ref = random_plane(96, 96, 15);
    Plane cur(96, 96, kRefBorder);
    const Dsp &dsp = get_dsp(best_simd_level());
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            cur.at(x, y) = static_cast<Pixel>(
                (ref.at(x, y) + ref.at(clamp(x + 1, 0, 95), y) + 1) >>
                1);
    MeParams params{8, 32, 1, &dsp};
    MeBlock blk{&cur, &ref, 40, 40, 16, 16};
    const MeResult result = subpel_refine(
        blk, {0, 0}, {0, 0}, params, {1}, false,
        [&](MotionVector mv, Pixel *dst, int ds) {
            mc_halfpel(ref, blk.x0, blk.y0, mv, dst, ds, 16, 16, dsp);
        });
    EXPECT_EQ(result.mv.x, 1);
    EXPECT_EQ(result.mv.y, 0);
    EXPECT_EQ(result.sad, 0);
}

// ---- sub-sample refinement scores each candidate once ----

/** Kernels behind the counting table, and how often it measured. */
const Dsp *g_counted_dsp = nullptr;
long g_distortion_calls = 0;

int
counted_sad_rect(const Pixel *a, int as, const Pixel *b, int bs, int w,
                 int h)
{
    ++g_distortion_calls;
    return g_counted_dsp->sad_rect(a, as, b, bs, w, h);
}

int
counted_satd_rect(const Pixel *a, int as, const Pixel *b, int bs, int w,
                  int h)
{
    ++g_distortion_calls;
    return g_counted_dsp->satd_rect(a, as, b, bs, w, h);
}

int
counted_sad_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                     const Pixel *c, int cs, int w, int h)
{
    ++g_distortion_calls;
    return g_counted_dsp->sad_avg_rect(a, as, b, bs, c, cs, w, h);
}

int
counted_sad_avg4_rect(const Pixel *a, int as, const Pixel *s, int ss,
                      int w, int h)
{
    ++g_distortion_calls;
    return g_counted_dsp->sad_avg4_rect(a, as, s, ss, w, h);
}

int
counted_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                      const Pixel *c, int cs, int w, int h)
{
    ++g_distortion_calls;
    return g_counted_dsp->satd_avg_rect(a, as, b, bs, c, cs, w, h);
}

/** g_counted_dsp with every distortion kernel counted. */
Dsp
counting_dsp(const Dsp &dsp)
{
    g_counted_dsp = &dsp;
    Dsp counting = dsp;
    counting.sad_rect = counted_sad_rect;
    counting.satd_rect = counted_satd_rect;
    counting.sad_avg_rect = counted_sad_avg_rect;
    counting.sad_avg4_rect = counted_sad_avg4_rect;
    counting.satd_avg_rect = counted_satd_avg_rect;
    return counting;
}

/** A reference (@p smooth) and a current picture that is it at a
 * quarter-sample offset plus noise drawn from @p rng, so walks from
 * nearby starts move and turn back on themselves. */
void
make_walk_scene(std::mt19937 &rng, const Dsp &dsp, Plane *smooth,
                Plane *cur)
{
    const Plane ref = random_plane(96, 96, 31);
    *smooth = Plane(96, 96, kRefBorder);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            smooth->at(x, y) = static_cast<Pixel>(
                (ref.at(x, y) + ref.at(std::min(x + 1, 95), y) +
                 ref.at(x, std::min(y + 1, 95)) +
                 ref.at(std::min(x + 1, 95), std::min(y + 1, 95)) + 2) >>
                2);
    smooth->extend_borders();
    *cur = Plane(96, 96, kRefBorder);
    for (int y = 0; y < 96; y += 16)
        for (int x = 0; x < 96; x += 16)
            mc_h264_luma(*smooth, x, y, {3, -2}, cur->row(y) + x,
                         cur->stride(), 16, 16, dsp);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            cur->at(x, y) = clamp_pixel(cur->at(x, y) +
                                        static_cast<int>(rng() % 5) - 2);
}

/** subpel_refine without the visited bitmap: every neighbour of every
 * round is scored, revisits included. */
template <typename PredictFn>
MeResult
refine_rescoring(const MeBlock &blk, MotionVector start,
                 MotionVector pred, const MeParams &params,
                 std::initializer_list<int> steps, bool use_satd,
                 PredictFn &&predict)
{
    const Dsp &dsp = *params.dsp;
    Pixel buf[16 * 16];
    const Pixel *cur = blk.cur->row(blk.y0) + blk.x0;
    auto cost_of = [&](MotionVector mv, int *d) {
        predict(mv, buf, 16);
        *d = use_satd ? dsp.satd_rect(cur, blk.cur->stride(), buf, 16,
                                      blk.w, blk.h)
                      : dsp.sad_rect(cur, blk.cur->stride(), buf, 16,
                                     blk.w, blk.h);
        return *d + mv_rate_cost(mv, pred, params.lambda16);
    };
    MeResult best;
    best.mv = start;
    best.cost = cost_of(start, &best.sad);
    for (int step : steps) {
        bool improved = true;
        for (int round = 0; round < 2 && improved; ++round) {
            improved = false;
            static const int kDx[8] = {-1, 1, 0, 0, -1, -1, 1, 1};
            static const int kDy[8] = {0, 0, -1, 1, -1, 1, -1, 1};
            const MotionVector center = best.mv;
            for (int i = 0; i < 8; ++i) {
                const MotionVector mv{
                    static_cast<s16>(center.x + kDx[i] * step),
                    static_cast<s16>(center.y + kDy[i] * step)};
                int d = 0;
                const int cost = cost_of(mv, &d);
                if (cost < best.cost) {
                    best = {mv, cost, d};
                    improved = true;
                }
            }
        }
    }
    return best;
}

/** The skipping walk against refine_rescoring on random blocks: same
 * MeResult every time, strictly fewer distortion calls in total. */
void
expect_same_walk_fewer_calls(std::initializer_list<int> steps)
{
    const Dsp &dsp = get_dsp(best_simd_level());
    const Dsp counting = counting_dsp(dsp);
    const MeParams params{16, 32, 2, &counting, 0};

    std::mt19937 rng(47);
    Plane smooth, cur;
    make_walk_scene(rng, dsp, &smooth, &cur);
    Plane centre(96, 96, kRefBorder);
    build_centre_plane(smooth, &centre, dsp);

    const auto near = [&] {
        return static_cast<s16>(static_cast<int>(rng() % 9) - 4);
    };
    long walk_calls = 0;
    long rescoring_calls = 0;
    for (int trial = 0; trial < 48; ++trial) {
        const int size = 8 << (trial % 2);
        const MeBlock blk{&cur, &smooth, 16 + static_cast<int>(rng() % 56),
                          16 + static_cast<int>(rng() % 56), size,
                          16 - 8 * (trial % 4 / 2)};
        const MotionVector start{near(), near()};
        const MotionVector pred{near(), near()};
        const auto predict = [&](MotionVector mv, Pixel *dst, int ds) {
            mc_h264_luma(smooth, blk.x0, blk.y0, mv, dst, ds, blk.w,
                         blk.h, dsp);
        };
        for (bool satd : {false, true}) {
            SCOPED_TRACE("trial " + std::to_string(trial) +
                         (satd ? " satd" : " sad"));
            g_distortion_calls = 0;
            const MeResult walk = subpel_refine(blk, start, pred, params,
                                                steps, satd, predict);
            walk_calls += g_distortion_calls;
            g_distortion_calls = 0;
            const MeResult rescoring = refine_rescoring(
                blk, start, pred, params, steps, satd, predict);
            rescoring_calls += g_distortion_calls;
            EXPECT_EQ(walk.mv, rescoring.mv);
            EXPECT_EQ(walk.cost, rescoring.cost);
            EXPECT_EQ(walk.sad, rescoring.sad);

            // The encoders' walk: from the full-sample start below,
            // over a window, averaged candidates scored by the fused
            // kernels (counted as well).
            const MotionVector full{static_cast<s16>(start.x & ~3),
                                    static_cast<s16>(start.y & ~3)};
            const QpelSearchWindow win(smooth, centre, blk.x0, blk.y0,
                                       blk.w, blk.h, full, dsp);
            g_distortion_calls = 0;
            const MeResult fused = subpel_refine_views(
                blk, full, pred, params, steps, satd,
                [&](MotionVector mv) { return win.candidate(mv); });
            walk_calls += g_distortion_calls;
            g_distortion_calls = 0;
            const MeResult fused_rescoring = refine_rescoring(
                blk, full, pred, params, steps, satd, predict);
            rescoring_calls += g_distortion_calls;
            EXPECT_EQ(fused.mv, fused_rescoring.mv);
            EXPECT_EQ(fused.cost, fused_rescoring.cost);
            EXPECT_EQ(fused.sad, fused_rescoring.sad);
        }
    }
    EXPECT_LT(walk_calls, rescoring_calls);
}

TEST(SubpelRefine, SkipsRevisitsHalfSampleSteps)
{
    expect_same_walk_fewer_calls({1});
}

TEST(SubpelRefine, SkipsRevisitsDoubleSteps)
{
    expect_same_walk_fewer_calls({2});
}

TEST(SubpelRefine, SkipsRevisitsQuarterSampleWalk)
{
    expect_same_walk_fewer_calls({2, 1});
}

// ---- averaged candidates scored in place by the fused kernels ----

/** Which buffer-filling predictor a fused walk is checked against. */
enum class FusedPath { kHalfpel, kQpelTap, kH264Luma };

/**
 * The in-place walk against subpel_refine over the codec's MC function
 * at every SIMD level, on seeded random blocks, starts and predictors:
 * the same MeResult every time. The MPEG-2 walk scores
 * halfpel_candidate; the quarter-sample ones a QpelSearchWindow, SAD
 * for MPEG-4 and SATD for H.264.
 */
void
expect_fused_matches_copies(FusedPath path)
{
    const bool half = path == FusedPath::kHalfpel;
    const bool satd = path == FusedPath::kH264Luma;
    const auto mc = path == FusedPath::kQpelTap ? mc_qpel_tap : mc_h264_luma;
    for (int s = 0; s <= static_cast<int>(detected_simd_level()); ++s) {
        const Dsp &dsp = get_dsp(static_cast<SimdLevel>(s));
        SCOPED_TRACE(dsp.name);
        std::mt19937 rng(61 + static_cast<unsigned>(s));
        Plane ref, cur;
        make_walk_scene(rng, dsp, &ref, &cur);
        Plane centre(96, 96, kRefBorder);
        build_centre_plane(ref, &centre, dsp);
        const MeParams params{16, 32, half ? 1 : 2, &dsp, 0};
        const auto draw = [&](int span) {
            return static_cast<s16>(static_cast<int>(rng() % (2 * span + 1)) -
                                    span);
        };
        int moved = 0;
        for (int trial = 0; trial < 32; ++trial) {
            SCOPED_TRACE("trial " + std::to_string(trial));
            const MeBlock blk{&cur, &ref, 16 + static_cast<int>(rng() % 56),
                              16 + static_cast<int>(rng() % 56),
                              8 << (trial % 2), 8 << (trial / 2 % 2)};
            const MotionVector pred{draw(4), draw(4)};
            MeResult copied, fused;
            if (half) {
                const MotionVector start{draw(4), draw(4)};
                copied = subpel_refine(
                    blk, start, pred, params, {1}, false,
                    [&](MotionVector mv, Pixel *dst, int ds) {
                        mc_halfpel(ref, blk.x0, blk.y0, mv, dst, ds, blk.w,
                                   blk.h, dsp);
                    });
                fused = subpel_refine_views(
                    blk, start, pred, params, {1}, false,
                    [&](MotionVector mv) {
                        return halfpel_candidate(ref, blk.x0, blk.y0, mv);
                    });
                moved += fused.mv != start;
            } else {
                const MotionVector start{static_cast<s16>(4 * draw(2)),
                                         static_cast<s16>(4 * draw(2))};
                const auto predict = [&](MotionVector mv, Pixel *dst,
                                         int ds) {
                    mc(ref, blk.x0, blk.y0, mv, dst, ds, blk.w, blk.h, dsp);
                };
                const QpelSearchWindow win(ref, centre, blk.x0, blk.y0,
                                           blk.w, blk.h, start, dsp);
                const auto candidate = [&](MotionVector mv) {
                    return win.candidate(mv);
                };
                // The full walk, and the half-sample-only walk of the
                // approximation tier.
                if (trial % 8 < 6) {
                    copied = subpel_refine(blk, start, pred, params, {2, 1},
                                           satd, predict);
                    fused = subpel_refine_views(blk, start, pred, params,
                                                {2, 1}, satd, candidate);
                } else {
                    copied = subpel_refine(blk, start, pred, params, {2},
                                           satd, predict);
                    fused = subpel_refine_views(blk, start, pred, params,
                                                {2}, satd, candidate);
                }
                moved += fused.mv != start;
            }
            EXPECT_EQ(fused.mv, copied.mv);
            EXPECT_EQ(fused.cost, copied.cost);
            EXPECT_EQ(fused.sad, copied.sad);
        }
        // Walks that never leave their start would compare nothing
        // but the start's cost.
        EXPECT_GT(moved, 8);
    }
}

TEST(SubpelRefine, FusedMatchesHalfpel)
{
    expect_fused_matches_copies(FusedPath::kHalfpel);
}

TEST(SubpelRefine, FusedMatchesQpelSad)
{
    expect_fused_matches_copies(FusedPath::kQpelTap);
}

TEST(SubpelRefine, FusedMatchesH264Satd)
{
    expect_fused_matches_copies(FusedPath::kH264Luma);
}

/** Kernels that build a candidate, and how often the counting table
 * called them. */
long g_build_calls = 0;

void
counted_copy_rect(Pixel *dst, int ds, const Pixel *src, int ss, int w,
                  int h)
{
    ++g_build_calls;
    g_counted_dsp->copy_rect(dst, ds, src, ss, w, h);
}

void
counted_avg_rect(Pixel *dst, int ds, const Pixel *a, int as,
                 const Pixel *b, int bs, int w, int h)
{
    ++g_build_calls;
    g_counted_dsp->avg_rect(dst, ds, a, as, b, bs, w, h);
}

void
counted_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss, int w,
                  int h)
{
    ++g_build_calls;
    g_counted_dsp->avg4_rect(dst, ds, src, ss, w, h);
}

TEST(SubpelRefine, FusedSearchBuildsNoCandidate)
{
    // The encoders' three searches — MPEG-2 half-sample, MPEG-4
    // quarter-sample SAD, H.264 quarter-sample SATD — through a table
    // that counts every copy_rect, avg_rect and avg4_rect: not one
    // candidate may be built.
    const Dsp &dsp = get_dsp(best_simd_level());
    g_counted_dsp = &dsp;
    Dsp counting = dsp;
    counting.copy_rect = counted_copy_rect;
    counting.avg_rect = counted_avg_rect;
    counting.avg4_rect = counted_avg4_rect;
    std::mt19937 rng(67);
    Plane ref, cur;
    make_walk_scene(rng, dsp, &ref, &cur);
    Plane centre(96, 96, kRefBorder);
    build_centre_plane(ref, &centre, counting);
    const MeParams half_params{16, 32, 1, &counting, 0};
    const MeParams qpel_params{16, 32, 2, &counting, 0};

    g_build_calls = 0;
    long searches = 0;
    for (int y0 = 16; y0 < 80; y0 += 16) {
        for (int x0 = 16; x0 < 80; x0 += 16) {
            const MeBlock blk{&cur, &ref, x0, y0, 16, 16};
            subpel_refine_views(
                blk, {}, {}, half_params, {1}, false,
                [&](MotionVector mv) {
                    return halfpel_candidate(ref, x0, y0, mv);
                });
            const QpelSearchWindow win(ref, centre, x0, y0, 16, 16, {},
                                       counting);
            for (bool satd : {false, true}) {
                subpel_refine_views(
                    blk, {}, {}, qpel_params, {2, 1}, satd,
                    [&](MotionVector mv) { return win.candidate(mv); });
            }
            searches += 3;
        }
    }
    EXPECT_EQ(searches, 48);
    EXPECT_EQ(g_build_calls, 0);

    // The counter does see the buffer-filling path: every MPEG-2
    // candidate is built there.
    const MeBlock blk{&cur, &ref, 32, 32, 16, 16};
    subpel_refine(blk, {}, {}, half_params, {1}, false,
                  [&](MotionVector mv, Pixel *dst, int ds) {
                      mc_halfpel(ref, 32, 32, mv, dst, ds, 16, 16,
                                 counting);
                  });
    EXPECT_GE(g_build_calls, 9);
}

TEST(MvRateCost, GrowsWithDistanceFromPredictor)
{
    const int near = mv_rate_cost({2, 2}, {0, 0}, 64);
    const int far = mv_rate_cost({40, -40}, {0, 0}, 64);
    EXPECT_LT(near, far);
    EXPECT_EQ(mv_rate_cost({5, 5}, {5, 5}, 64),
              mv_rate_cost({0, 0}, {0, 0}, 64));
}

}  // namespace
}  // namespace hdvb
