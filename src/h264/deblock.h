/**
 * @file
 * In-loop deblocking filter for the H.264-class codec.
 *
 * Boundary strengths follow the standard's rules (intra MB edges
 * strongest, then coded blocks, then motion discontinuities); the filter
 * operations are the standard's normal and strong filters. The
 * alpha/beta thresholds are the standard tables; the clipping table is
 * a monotonic approximation (documented simplification — bitstream
 * compatibility is out of scope, encoder and decoder share this exact
 * code so reconstructions match).
 *
 * deblock_picture decides the strengths; the filters themselves are
 * Dsp kernels (simd/dispatch.h) that take 16 lines of one edge per
 * call: 16 luma lines, or the 8 Cb and 8 Cr lines of a chroma edge.
 * The scalar kernels are the reference; the SSE2 and AVX2 ones filter
 * the 16 lines as vector lanes and are bit-exact with it.
 */
#ifndef HDVB_H264_DEBLOCK_H
#define HDVB_H264_DEBLOCK_H

#include <vector>

#include "common/types.h"
#include "mc/mc.h"
#include "simd/dispatch.h"
#include "video/frame.h"

namespace hdvb::h264 {

/** Per-4x4-block coding metadata driving boundary strength. */
struct BlockInfo {
    u8 intra = 0;     ///< block belongs to an intra MB
    u8 nonzero = 0;   ///< block has coded coefficients
    s8 ref = -1;      ///< reference index (-1 for intra)
    MotionVector mv;  ///< quarter-sample motion vector
};

/** Picture-sized grid of BlockInfo at 4x4 granularity. */
class BlockInfoGrid
{
  public:
    BlockInfoGrid(int width, int height)
        : w4_(width / 4), h4_(height / 4),
          info_(static_cast<size_t>(w4_) * h4_)
    {
    }

    BlockInfo &
    at(int bx, int by)
    {
        return info_[static_cast<size_t>(by) * w4_ + bx];
    }

    const BlockInfo &
    at(int bx, int by) const
    {
        return info_[static_cast<size_t>(by) * w4_ + bx];
    }

    int width4() const { return w4_; }
    int height4() const { return h4_; }

    void
    clear()
    {
        std::fill(info_.begin(), info_.end(), BlockInfo{});
    }

  private:
    int w4_;
    int h4_;
    std::vector<BlockInfo> info_;
};

/** The filter thresholds of picture quantiser @p qp (clamped to
 * 0..51); with alpha or beta 0 nothing is filtered. */
struct DeblockThresholds {
    int alpha;
    int beta;
};
DeblockThresholds deblock_thresholds(int qp);

/** The clipping bound tc0 of an edge of strength @p bs (1..4). */
int deblock_tc0(int qp, int bs);

/**
 * Filter a reconstructed picture in place. Both the encoder (closed
 * loop) and the decoder call this with identical inputs.
 * @param qp picture quantiser (drives thresholds)
 * @param approx approximation tier (CodecConfig::approx). At >= 2,
 *   edges whose straddling samples are already flat skip the boundary
 *   strength computation and the filter entirely — a shared shortcut,
 *   so encoder and decoder reconstructions still match exactly.
 * @param dsp kernel table of the filters; every level gives the same
 *   picture.
 */
void deblock_picture(Frame *frame, const BlockInfoGrid &grid, int qp,
                     int approx = 0,
                     const Dsp &dsp = get_dsp(best_simd_level()));

}  // namespace hdvb::h264

#endif  // HDVB_H264_DEBLOCK_H
