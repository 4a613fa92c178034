/**
 * @file
 * Block motion estimation.
 *
 * The paper's Table IV fixes the search algorithms: EPZS (Enhanced
 * Predictive Zonal Search) for the MPEG-2/-4 encoders and hexagon-based
 * search (`--me hex`) for the H.264 encoder; we implement both, plus
 * exhaustive full search as the quality baseline for tests and
 * ablations.
 *
 * Full-sample search works on luma SAD plus an Exp-Golomb rate model for
 * the motion-vector difference; sub-sample refinement is generic over a
 * codec-supplied candidate callback so each codec refines with its own
 * filter (and the H.264-class encoder with SATD, its subme-style
 * metric), scoring averaged candidates without building them.
 */
#ifndef HDVB_ME_ME_H
#define HDVB_ME_ME_H

#include <vector>

#include "bitstream/exp_golomb.h"
#include "common/check.h"
#include "common/types.h"
#include "mc/mc.h"
#include "simd/dispatch.h"
#include "video/frame.h"
#include "video/plane.h"

namespace hdvb {

/** Margin (in samples) that motion vectors may reach past the picture
 * edge; leaves kRefBorder - kMeMargin samples for interpolation taps. */
inline constexpr int kMeMargin = 24;

/** Whole samples a subpel_refine walk may move a block's integer
 * position away from its full-sample start: two rounds of each step
 * reach +-6 quarter samples (+-3 half samples), whose integer part
 * lies within 2 samples left/up and 1 right/down. */
inline constexpr int kSubpelDrift = 2;

/** Furthest a refined block reaches past a picture edge. */
inline constexpr int kSubpelReach = kMeMargin + kSubpelDrift;

// A 6-tap filter reaches 3 samples past the sample it interpolates, so
// every position a search can reach must keep 3 samples of border.
static_assert(kSubpelReach + 3 <= kRefBorder,
              "sub-sample search reads past the reference border");

/** A block to estimate: position/size in the current picture. */
struct MeBlock {
    const Plane *cur = nullptr;  ///< current picture luma
    const Plane *ref = nullptr;  ///< reference luma, borders extended
    int x0 = 0;
    int y0 = 0;
    int w = 16;
    int h = 16;
};

/** Search configuration. */
struct MeParams {
    int range = 16;        ///< full-sample search range
    int lambda16 = 32;     ///< rate weight in Q4 (cost += l16*bits>>4)
    int subpel_shift = 1;  ///< log2 sub-samples per sample (1 or 2)
    const Dsp *dsp = nullptr;
    /**
     * Approximation level (CodecConfig::approx). 0 runs the exact
     * search paths unchanged. >= 1 dispatches early-termination SAD
     * in the candidate loops with bound = best_cost - rate - 1, which
     * provably produces the same accept/reject decisions as exact SAD
     * (a bail implies cost >= best_cost, i.e. rejection; an accepted
     * candidate never bailed, so its SAD is exact), and widens the
     * EPZS early-exit threshold by << approx. >= 2 additionally
     * breaks out of the zonal candidate scan once a candidate is
     * under threshold.
     */
    int approx = 0;
};

/** Search outcome; mv is in FULL-sample units, cost includes rate. */
struct MeResult {
    MotionVector mv;
    int cost = INT32_MAX;
    int sad = INT32_MAX;
};

/** Rate-model cost of coding @p mv (sub-pel) against @p pred. */
inline int
mv_rate_cost(MotionVector mv, MotionVector pred, int lambda16)
{
    const int bits = se_bits(mv.x - pred.x) + se_bits(mv.y - pred.y);
    return (lambda16 * bits) >> 4;
}

/**
 * Block motion estimator. Stateless apart from its parameters, and
 * every search method is const, so a single instance may be shared by
 * concurrent callers — the band-parallel encoders run one search per
 * macroblock-row worker against the same estimator.
 */
class MotionEstimator
{
  public:
    explicit MotionEstimator(const MeParams &params) : params_(params) {}

    const MeParams &params() const { return params_; }

    /** Exhaustive search over the clamped +/-range window. */
    MeResult full_search(const MeBlock &blk, MotionVector pred_sub) const;

    /**
     * EPZS-style search: test predictor candidates (@p cand_full, in
     * full-sample units) plus (0,0) and the rounded @p pred_sub, early
     * terminate on a good match, then iterate a small diamond.
     */
    MeResult epzs(const MeBlock &blk, MotionVector pred_sub,
                  const std::vector<MotionVector> &cand_full) const;

    /**
     * Hexagon search: best candidate start, large-hexagon iteration,
     * small-diamond ending.
     */
    MeResult hex(const MeBlock &blk, MotionVector pred_sub,
                 const std::vector<MotionVector> &cand_full) const;

    /** Legal full-sample MV window for @p blk (border safety). */
    void mv_bounds(const MeBlock &blk, int *min_x, int *max_x,
                   int *min_y, int *max_y) const;

    /** Early-exit distortion threshold for @p blk at this approx
     * level: ~1 grey level per sample, doubled per level. */
    int
    exit_threshold(const MeBlock &blk) const
    {
        return (blk.w * blk.h) << params_.approx;
    }

  private:
    int sad_at(const MeBlock &blk, int mx, int my) const;
    int sad_at_bounded(const MeBlock &blk, int mx, int my,
                       int bound) const;
    /** Evaluate candidate (mx, my). When @p best_cost is finite and
     * params_.approx >= 1, uses early-termination SAD with a bound
     * derived so a bail already implies cost >= best_cost — the
     * returned result then loses the comparison exactly as the exact
     * SAD would, and any result that wins carries an exact sad. */
    MeResult evaluate(const MeBlock &blk, MotionVector pred_sub,
                      int mx, int my,
                      int best_cost = INT32_MAX) const;
    /** Iterate a +-1 diamond from @p best until no improvement. */
    void diamond_refine(const MeBlock &blk, MotionVector pred_sub,
                        MeResult *best) const;

    MeParams params_;
};

/**
 * Distortion of the w x h block at @p cur against @p cand, scored in
 * place: an averaged candidate goes to the fused kernel that averages
 * as it loads (Dsp::sad_avg_rect and friends), so it is never built.
 * The diagonal quad is an MPEG-2 position, which is scored on SAD only.
 */
inline int
candidate_distortion(const Dsp &dsp, const Pixel *cur, int cs,
                     const SubpelCandidate &cand, int w, int h,
                     bool use_satd)
{
    const PixelView &a = cand.a;
    const PixelView &b = cand.b;
    switch (cand.kind) {
      case SubpelCandidate::Kind::kView:
        return use_satd ? dsp.satd_rect(cur, cs, a.data, a.stride, w, h)
                        : dsp.sad_rect(cur, cs, a.data, a.stride, w, h);
      case SubpelCandidate::Kind::kAverage:
        return use_satd ? dsp.satd_avg_rect(cur, cs, a.data, a.stride,
                                            b.data, b.stride, w, h)
                        : dsp.sad_avg_rect(cur, cs, a.data, a.stride,
                                           b.data, b.stride, w, h);
      case SubpelCandidate::Kind::kQuad:
        HDVB_DCHECK(!use_satd);
        return dsp.sad_avg4_rect(cur, cs, a.data, a.stride, w, h);
    }
    return INT32_MAX;
}

/**
 * Generic sub-sample refinement around @p start (sub-pel units),
 * scoring each candidate in place.
 *
 * @tparam CandidateFn SubpelCandidate(MotionVector mv_sub): the
 *         prediction at mv_sub as the samples it is made of — a
 *         reference plane, a cached half-sample plane or window, or
 *         averages of those (halfpel_candidate,
 *         QpelSearchWindow::candidate).
 * @param steps list of step sizes in sub-pel units to refine with,
 *        e.g. {1} for a half-pel codec, {2, 1} for quarter-pel.
 * @param use_satd refine on SATD instead of SAD (H.264 subme style).
 *
 * No candidate is scored twice. A revisit could never win: it scored
 * no better than the best of its time, the best only falls, and a win
 * needs a strictly lower cost.
 */
template <typename CandidateFn>
MeResult
subpel_refine_views(const MeBlock &blk, MotionVector start_sub,
                    MotionVector pred_sub, const MeParams &params,
                    std::initializer_list<int> steps, bool use_satd,
                    CandidateFn &&candidate)
{
    const Dsp &dsp = *params.dsp;
    const Pixel *cur = blk.cur->row(blk.y0) + blk.x0;
    const int cs = blk.cur->stride();

    auto distortion = [&](MotionVector mv) {
        return candidate_distortion(dsp, cur, cs, candidate(mv), blk.w,
                                    blk.h, use_satd);
    };

    // Two rounds of each step reach 2 * sum(steps) sub-samples from the
    // start per axis (6 for the {2, 1} walk). The bitmap has one row per
    // vertical offset and one bit per horizontal offset, both biased by
    // kReach.
    constexpr int kReach = 8;
    int reach = 0;
    for (int step : steps)
        reach += 2 * step;
    HDVB_CHECK(reach <= kReach);
    u32 visited[2 * kReach + 1] = {};
    auto first_visit = [&](MotionVector mv) {
        u32 &row = visited[mv.y - start_sub.y + kReach];
        const u32 bit = 1u << (mv.x - start_sub.x + kReach);
        const bool first = (row & bit) == 0;
        row |= bit;
        return first;
    };

    MeResult best;
    best.mv = start_sub;
    first_visit(start_sub);
    best.sad = distortion(start_sub);
    best.cost = best.sad + mv_rate_cost(start_sub, pred_sub,
                                        params.lambda16);

    for (int step : steps) {
        // Two rounds per step bound the drift to kSubpelDrift whole
        // samples, keeping interpolation taps inside the reference
        // border (the static_assert on kSubpelReach above).
        bool improved = true;
        for (int round = 0; round < 2 && improved; ++round) {
            improved = false;
            static const int kDx[8] = {-1, 1, 0, 0, -1, -1, 1, 1};
            static const int kDy[8] = {0, 0, -1, 1, -1, 1, -1, 1};
            MotionVector center = best.mv;
            for (int i = 0; i < 8; ++i) {
                MotionVector mv{
                    static_cast<s16>(center.x + kDx[i] * step),
                    static_cast<s16>(center.y + kDy[i] * step)};
                if (!first_visit(mv))
                    continue;
                const int d = distortion(mv);
                const int cost =
                    d + mv_rate_cost(mv, pred_sub, params.lambda16);
                if (cost < best.cost) {
                    best.cost = cost;
                    best.sad = d;
                    best.mv = mv;
                    improved = true;
                }
            }
        }
    }
    return best;
}

/**
 * subpel_refine_views for a predictor that writes each candidate into
 * a buffer, which is then scored as a plain view. The encoders score
 * candidates in place instead; this adapter serves filters that have
 * no candidate form (and replays of the older buffer-filling path).
 *
 * @tparam PredictFn void(MotionVector mv_sub, Pixel *dst, int ds)
 */
template <typename PredictFn>
MeResult
subpel_refine(const MeBlock &blk, MotionVector start_sub,
              MotionVector pred_sub, const MeParams &params,
              std::initializer_list<int> steps, bool use_satd,
              PredictFn &&predict)
{
    Pixel buf[kMaxBlockSize * kMaxBlockSize];
    return subpel_refine_views(
        blk, start_sub, pred_sub, params, steps, use_satd,
        [&](MotionVector mv) {
            predict(mv, buf, kMaxBlockSize);
            return SubpelCandidate{SubpelCandidate::Kind::kView,
                                   {buf, kMaxBlockSize}, {}};
        });
}

}  // namespace hdvb

#endif  // HDVB_ME_ME_H
