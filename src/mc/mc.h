/**
 * @file
 * Motion compensation for the three codec generations:
 *
 *  - MPEG-2-class: half-sample bilinear (copy / h-avg / v-avg / 4-avg).
 *  - MPEG-4-class: quarter-sample weighted bilinear (the ASP `qpel`
 *    coding option from the paper's Table IV command line).
 *  - H.264-class: 6-tap half-sample filter plus quarter-sample
 *    averaging (the standard's luma interpolation), and 1/8-sample
 *    bilinear chroma.
 *
 * All functions read from a reference Plane whose borders have been
 * extended (Plane::extend_borders); motion vectors must keep every read
 * inside the border (the motion-estimation layer enforces this).
 *
 * Alignment contract: reference reads are motion-shifted and therefore
 * unaligned by nature — MC kernels use unaligned loads throughout and
 * no aligned variants exist here. What the Plane layout (32-byte row
 * alignment + >= Plane::kRightSlack writable bytes past the right
 * border edge) buys MC is the *overread* guarantee: a SIMD kernel may
 * read a full vector at the tail of any legal block position without
 * leaving the allocation. See README "Memory model".
 */
#ifndef HDVB_MC_MC_H
#define HDVB_MC_MC_H

#include "common/types.h"
#include "simd/dispatch.h"
#include "video/plane.h"

namespace hdvb {

class ThreadPool;

/** A motion vector; units depend on the codec (half- or quarter-pel). */
struct MotionVector {
    s16 x = 0;
    s16 y = 0;

    bool operator==(const MotionVector &o) const
    {
        return x == o.x && y == o.y;
    }
    bool operator!=(const MotionVector &o) const { return !(*this == o); }
};

/** Largest supported prediction block (luma). */
inline constexpr int kMaxBlockSize = 16;

/** A read-only w x h block of samples somewhere in memory. */
struct PixelView {
    const Pixel *data;
    int stride;
};

/**
 * A sub-sample prediction as the samples it is made of, so that a
 * search can score it with a fused kernel (Dsp::sad_avg_rect and
 * friends) and never build it in memory.
 */
struct SubpelCandidate {
    enum class Kind : u8 {
        kView,     ///< the samples of view a themselves
        kAverage,  ///< (a + b + 1) >> 1, avg_rect of two views
        kQuad,     ///< avg4_rect of a: the MPEG-2 diagonal position
    };
    Kind kind;
    PixelView a;
    PixelView b;  ///< kAverage only
};

/** Write the w x h samples of @p cand to @p dst. Inline, like
 * halfpel_candidate, so mc_halfpel and the searches compile to the
 * direct kernel calls. */
inline void
build_candidate(const SubpelCandidate &cand, Pixel *dst, int ds, int w,
                int h, const Dsp &dsp)
{
    const PixelView &a = cand.a;
    switch (cand.kind) {
      case SubpelCandidate::Kind::kView:
        dsp.copy_rect(dst, ds, a.data, a.stride, w, h);
        return;
      case SubpelCandidate::Kind::kAverage:
        dsp.avg_rect(dst, ds, a.data, a.stride, cand.b.data,
                     cand.b.stride, w, h);
        return;
      case SubpelCandidate::Kind::kQuad:
        dsp.avg4_rect(dst, ds, a.data, a.stride, w, h);
        return;
    }
}

/**
 * The MPEG-2-class half-sample prediction of the block whose top-left
 * corner is (x0, y0) in @p ref at @p mv (half-sample units): the one
 * place that says which samples each half position uses.
 */
inline SubpelCandidate
halfpel_candidate(const Plane &ref, int x0, int y0, MotionVector mv)
{
    using Kind = SubpelCandidate::Kind;
    const int ss = ref.stride();
    const Pixel *src = ref.row(y0 + (mv.y >> 1)) + x0 + (mv.x >> 1);
    const PixelView at{src, ss};
    switch ((mv.y & 1) * 2 + (mv.x & 1)) {
      case 0:
        return {Kind::kView, at, {}};
      case 1:  // horizontal half: the sample and its right neighbour
        return {Kind::kAverage, at, {src + 1, ss}};
      case 2:  // vertical half: the sample and the one below
        return {Kind::kAverage, at, {src + ss, ss}};
      default:  // diagonal: all four neighbours
        return {Kind::kQuad, at, {}};
    }
}

/**
 * MPEG-2-class half-sample luma/chroma prediction of a w x h block whose
 * top-left corner is (x0, y0) in @p ref; @p mv is in half-sample units.
 * Builds halfpel_candidate().
 */
void mc_halfpel(const Plane &ref, int x0, int y0, MotionVector mv,
                Pixel *dst, int ds, int w, int h, const Dsp &dsp);

/** Derive the chroma MV (chroma half-sample units) from a luma
 * half-sample MV, MPEG-style (divide by two toward zero). */
MotionVector chroma_mv_from_halfpel(MotionVector luma_mv);

/**
 * MPEG-4-class quarter-sample bilinear prediction; @p mv is in
 * quarter-sample units.
 */
void mc_qpel_bilin(const Plane &ref, int x0, int y0, MotionVector mv,
                   Pixel *dst, int ds, int w, int h, const Dsp &dsp);

/** Derive the chroma MV (chroma quarter-sample units) from a luma
 * quarter-sample MV (divide by two toward zero). */
MotionVector chroma_mv_from_qpel(MotionVector luma_mv);

/**
 * MPEG-4-ASP-class quarter-sample luma prediction: FIR-filtered
 * half-sample positions (the ASP 8-tap filter, realised with the shared
 * 6-tap kernels) plus averaged quarter positions. Structurally the same
 * interpolation lattice as the H.264 luma filter, which it forwards to.
 */
void mc_qpel_tap(const Plane &ref, int x0, int y0, MotionVector mv,
                 Pixel *dst, int ds, int w, int h, const Dsp &dsp);

/**
 * H.264-class luma prediction with the 6-tap half-sample filter and
 * quarter-sample averaging; @p mv is in quarter-sample units.
 */
void mc_h264_luma(const Plane &ref, int x0, int y0, MotionVector mv,
                  Pixel *dst, int ds, int w, int h, const Dsp &dsp);

/** One lattice sample block of the H.264 position table (mc.cc). */
struct LatticeTap;

/**
 * Fill @p centre with the centre (j) half-sample plane of @p ref: j at
 * (x, y) is the half-sample at (x + 1/2, y + 1/2), equal to
 * h264_hpel_hv there. @p centre must have @p ref's geometry, so both
 * share a stride and the same address arithmetic. Every position whose
 * filter taps stay inside @p ref's border is filled — 2 - border up to
 * size + border - 4 on each axis — which covers every vector a search
 * can reach (see kSubpelReach in me/me.h). With a non-null @p pool the
 * rows are filled in bands on its workers.
 */
void build_centre_plane(const Plane &ref, Plane *centre, const Dsp &dsp,
                        ThreadPool *pool = nullptr);

/**
 * Sub-sample candidates of one block's H.264-lattice search, each
 * filtered at most once. The centre half-samples come from a cached
 * plane (build_centre_plane); the horizontal and vertical ones are
 * filtered on construction into a (w+4) x (h+4) window around the
 * full-sample start; full samples are read straight from the
 * reference. A candidate is then a view into one of those, or the
 * average of two; built (build_candidate), it is bit-identical to
 * mc_h264_luma.
 *
 * Covers every vector within 2 whole samples left/up and 1 right/down
 * of the start's integer position — the drift of a two-round
 * quarter-sample refinement (see subpel_refine).
 */
class QpelSearchWindow
{
  public:
    /** @p start is the full-sample search result in quarter-sample
     * units (a multiple of 4). */
    QpelSearchWindow(const Plane &ref, const Plane &centre, int x0,
                     int y0, int w, int h, MotionVector start,
                     const Dsp &dsp);

    /** The prediction at quarter-sample @p mv: a view into the
     * reference, the centre plane or the window, or — for a quarter
     * position — the average of two such views. Writes nothing. */
    SubpelCandidate candidate(MotionVector mv) const;

  private:
    /** Margin of the window around the block: 2 before, 2 after. */
    static constexpr int kPad = 2;
    static constexpr int kStride = 32;  ///< >= kMaxBlockSize + 2*kPad
    static constexpr int kRows = kMaxBlockSize + 2 * kPad;

    PixelView tap_view(const LatticeTap &tap, int ix, int iy) const;

    int x0_, y0_;
    int wx_, wy_;  ///< picture position of window sample (0, 0)
    /** Per lattice (LumaLattice order): its sample at picture position
     * (wx_, wy_), and its row stride. Every tap a walk within the drift
     * reads lies 0..2*kPad samples right of and below it. */
    const Pixel *origin_[4];
    int stride_[4];
    alignas(32) Pixel half_h_[kRows * kStride];
    alignas(32) Pixel half_v_[kRows * kStride];
};

/**
 * H.264-class chroma prediction: 1/8-sample bilinear driven directly by
 * the luma quarter-sample MV; (x0, y0) are chroma coordinates and w/h
 * chroma sizes.
 */
void mc_h264_chroma(const Plane &ref, int x0, int y0, MotionVector mv,
                    Pixel *dst, int ds, int w, int h);

}  // namespace hdvb

#endif  // HDVB_MC_MC_H
