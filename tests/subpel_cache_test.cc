/**
 * @file
 * The filter-once sub-sample search path against the filter-per-call
 * one: every candidate QpelSearchWindow hands the refinement must equal
 * mc_h264_luma at the same vector, for all 16 quarter positions, every
 * partition size and every SIMD level — in the interior and at the
 * extreme vectors a search can reach past each picture edge, where an
 * unfilled centre-plane sample or a window overread would show.
 */
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "common/thread_pool.h"
#include "mc/mc.h"
#include "me/me.h"

namespace hdvb {
namespace {

constexpr int kW = 80;
constexpr int kH = 64;

Plane
random_reference(unsigned seed)
{
    Plane plane(kW, kH, kRefBorder);
    std::mt19937 rng(seed);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            plane.at(x, y) = static_cast<Pixel>(rng());
    plane.extend_borders();
    return plane;
}

struct BlockSize {
    int w, h;
};
constexpr BlockSize kSizes[] = {{16, 16}, {16, 8}, {8, 16}, {8, 8}};

/** A block position with the full-sample start of its search, along
 * one axis: the extremes put the block kMeMargin past an edge, the
 * furthest mv_bounds lets a full-sample search go. */
struct AxisCase {
    const char *name;
    int pos;    ///< block origin
    int start;  ///< full-sample vector
};

std::vector<AxisCase>
axis_cases(int size, int block)
{
    return {{"low_edge", 0, -kMeMargin},
            {"interior", 32, 3},
            {"high_edge", size - block, kMeMargin}};
}

TEST(SubpelCache, CachedViewEqualsMcH264Luma)
{
    const Plane ref = random_reference(7);
    for (int s = 0; s <= static_cast<int>(detected_simd_level()); ++s) {
        const Dsp &dsp = get_dsp(static_cast<SimdLevel>(s));
        Plane centre(kW, kH, kRefBorder);
        build_centre_plane(ref, &centre, dsp);
        for (const BlockSize &bs : kSizes) {
            for (const AxisCase &cx : axis_cases(kW, bs.w)) {
                for (const AxisCase &cy : axis_cases(kH, bs.h)) {
                    SCOPED_TRACE(std::string(dsp.name) + " " +
                                 std::to_string(bs.w) + "x" +
                                 std::to_string(bs.h) + " x:" + cx.name +
                                 " y:" + cy.name);
                    const MotionVector start{
                        static_cast<s16>(cx.start * 4),
                        static_cast<s16>(cy.start * 4)};
                    const QpelSearchWindow win(ref, centre, cx.pos,
                                               cy.pos, bs.w, bs.h, start,
                                               dsp);
                    // +-6 quarter samples: the whole drift of a
                    // {2, 1}-step two-round refinement, which visits
                    // every one of the 16 quarter positions.
                    for (int dy = -6; dy <= 6; ++dy) {
                        for (int dx = -6; dx <= 6; ++dx) {
                            const MotionVector mv{
                                static_cast<s16>(start.x + dx),
                                static_cast<s16>(start.y + dy)};
                            Pixel want[16 * 16];
                            mc_h264_luma(ref, cx.pos, cy.pos, mv, want, 16,
                                         bs.w, bs.h, dsp);
                            Pixel got[16 * 16];
                            build_candidate(win.candidate(mv), got, 16,
                                            bs.w, bs.h, dsp);
                            for (int y = 0; y < bs.h; ++y) {
                                for (int x = 0; x < bs.w; ++x) {
                                    ASSERT_EQ(got[y * 16 + x],
                                              want[y * 16 + x])
                                        << "mv (" << mv.x << "," << mv.y
                                        << ") at (" << x << "," << y
                                        << ")";
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(SubpelCache, BandedCentrePlaneMatchesSerial)
{
    const Plane ref = random_reference(8);
    const Dsp &dsp = get_dsp(best_simd_level());
    Plane serial(kW, kH, kRefBorder);
    build_centre_plane(ref, &serial, dsp);
    ThreadPool pool(2);
    Plane banded(kW, kH, kRefBorder);
    build_centre_plane(ref, &banded, dsp, &pool);
    const int lo = 2 - kRefBorder;
    for (int y = lo; y < kH + kRefBorder - 3; ++y)
        for (int x = lo; x < kW + kRefBorder - 3; ++x)
            ASSERT_EQ(banded.at(x, y), serial.at(x, y))
                << "(" << x << "," << y << ")";
}

TEST(SubpelCache, RefineOnViewsMatchesRefineOnCopies)
{
    // The in-place refinement and the write-into-buffer adapter must
    // walk to the same vector with the same costs.
    const Plane ref = random_reference(9);
    Plane cur(kW, kH, kRefBorder);
    for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x)
            cur.at(x, y) = ref.at(std::min(x + 1, kW - 1), y);
    const Dsp &dsp = get_dsp(best_simd_level());
    Plane centre(kW, kH, kRefBorder);
    build_centre_plane(ref, &centre, dsp);
    const MeParams params{16, 32, 2, &dsp, 0};
    for (const BlockSize &bs : kSizes) {
        MeBlock blk;
        blk.cur = &cur;
        blk.ref = &ref;
        blk.x0 = 16;
        blk.y0 = 16;
        blk.w = bs.w;
        blk.h = bs.h;
        const MotionVector start{4, 0};
        for (bool satd : {false, true}) {
            const MeResult copied = subpel_refine(
                blk, start, MotionVector{}, params, {2, 1}, satd,
                [&](MotionVector mv, Pixel *dst, int ds) {
                    mc_h264_luma(ref, blk.x0, blk.y0, mv, dst, ds, bs.w,
                                 bs.h, dsp);
                });
            const QpelSearchWindow win(ref, centre, blk.x0, blk.y0, bs.w,
                                       bs.h, start, dsp);
            const MeResult viewed = subpel_refine_views(
                blk, start, MotionVector{}, params, {2, 1}, satd,
                [&](MotionVector mv) { return win.candidate(mv); });
            EXPECT_EQ(viewed.mv, copied.mv);
            EXPECT_EQ(viewed.cost, copied.cost);
            EXPECT_EQ(viewed.sad, copied.sad);
        }
    }
}

}  // namespace
}  // namespace hdvb
