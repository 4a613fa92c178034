/**
 * @file
 * Decode-side analysis export: the per-macroblock facts a decoder
 * recovers for free while parsing (motion vectors, reference picture,
 * intra/inter mode, quantiser) packaged so a downstream encoder can
 * reuse them instead of repeating the full search — the classic
 * transcoder "analysis reuse" trick.
 *
 * The channel is deliberately one-way and advisory. A decoder that has
 * been given a DecodeSideInfo sink pushes one PictureSideInfo per
 * decoded picture; the HintMap implementation buffers them by display
 * index so the encoding side of a transcode pipeline can claim the
 * matching picture when it arrives (the two sides share the same GOP
 * discipline, so display index is the stable join key even though both
 * run in coding order). Encoders treat every hint as a suggestion:
 * vectors seed motion-search candidates that the estimator clamps to
 * its own legal window, and mode hints prune trials but never skip the
 * final cost comparison, so a wrong or stale hint costs quality, never
 * correctness.
 */
#ifndef HDVB_CODEC_SIDE_INFO_H
#define HDVB_CODEC_SIDE_INFO_H

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "codec/codec.h"
#include "common/types.h"
#include "mc/mc.h"

namespace hdvb {

/** What one decoded macroblock told us about itself. */
struct MbSideInfo {
    /** Coding mode, normalised across the three codecs. */
    enum Mode : u8 {
        kIntra = 0,     ///< intra coded (no usable vectors)
        kInterFwd = 1,  ///< forward prediction only
        kInterBwd = 2,  ///< backward prediction only (B pictures)
        kInterBi = 3,   ///< bidirectional prediction
        kSkip = 4,      ///< skipped / copied macroblock
    };

    Mode mode = kIntra;
    /** Forward reference picture index (0 = nearest anchor; only the
     * H.264 decoder reports anything larger). */
    u8 ref = 0;
    /** Motion vectors in QUARTER-sample units regardless of source
     * codec (the MPEG-2 decoder scales its half-sample vectors up). */
    MotionVector fwd{};
    MotionVector bwd{};
};

/** A hint vector (quarter-sample) as a full-sample search candidate.
 * Estimators clamp every candidate to their legal window, so even an
 * out-of-range hint is safe. */
inline MotionVector
hint_full_pel(MotionVector quarter)
{
    return {static_cast<s16>(quarter.x >> 2),
            static_cast<s16>(quarter.y >> 2)};
}

/** Side info for one whole decoded picture. */
struct PictureSideInfo {
    s64 poc = 0;  ///< display index (Packet::poc)
    PictureType type = PictureType::kI;
    int mb_w = 0;   ///< macroblock columns
    int mb_h = 0;   ///< macroblock rows
    int quant = 0;  ///< picture quantiser (qscale or QP)
    std::vector<MbSideInfo> mbs;  ///< mb_w * mb_h, raster order

    MbSideInfo &
    at(int mbx, int mby)
    {
        return mbs[static_cast<size_t>(mby) * mb_w + mbx];
    }
    const MbSideInfo &
    at(int mbx, int mby) const
    {
        return mbs[static_cast<size_t>(mby) * mb_w + mbx];
    }
};

/** Sink for decoder side info (see VideoDecoder::export_side_info). */
class DecodeSideInfo
{
  public:
    virtual ~DecodeSideInfo() = default;

    /** Called once per decoded picture, from the decode() thread,
     * before the picture's frame is emitted. */
    virtual void push(PictureSideInfo info) = 0;
};

/** HintMap traffic counters (transcode reporting). */
struct HintMapStats {
    s64 pushed = 0;  ///< pictures received from the decoder
    s64 taken = 0;   ///< pictures claimed by the encoder
    s64 missed = 0;  ///< encoder asked for a poc that was not buffered
};

/**
 * The standard DecodeSideInfo sink: buffers pictures by display index
 * until the encoding side claims them. Thread-safe — in a pipelined
 * transcode the decode and encode sessions run on different scheduler
 * workers. take() removes the picture, so memory stays bounded by the
 * decode/encode skew (a few pictures).
 */
class HintMap final : public DecodeSideInfo
{
  public:
    void push(PictureSideInfo info) override;

    /** Claim the hint picture for display index @p poc, or null when
     * the decoder never pushed one (counted as a miss). */
    std::shared_ptr<const PictureSideInfo> take(s64 poc);

    HintMapStats stats() const;

    /** Drop every buffered picture (stats survive). */
    void clear();

  private:
    mutable std::mutex mu_;
    std::map<s64, std::shared_ptr<const PictureSideInfo>> by_poc_;
    HintMapStats stats_;
};

}  // namespace hdvb

#endif  // HDVB_CODEC_SIDE_INFO_H
