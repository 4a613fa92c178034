/**
 * @file
 * The MPEG-class picture driver: one encoder and one decoder shared by
 * the MPEG-2-class and MPEG-4-class codecs (src/mpeg2, src/mpeg4).
 *
 * The two generations are one hybrid block-codec design — 16x16
 * macroblocks, 8x8 DCT with MPEG weighting, I/P/B pictures, run/level
 * VLC — that differs only in a handful of tools. Each codec is an
 * MpegSyntax table of plain data naming its tools; the driver branches
 * on those tool properties and never on which codec it is running.
 */
#ifndef HDVB_MPEG_MPEG_H
#define HDVB_MPEG_MPEG_H

#include <memory>

#include "codec/codec.h"
#include "codec/run_level.h"

namespace hdvb {

/** How a P-picture macroblock's mode is coded. */
enum class MpegPModeCoding : u8 {
    kBit,  ///< one bit: 0 inter, 1 intra
    kUe,   ///< ue(v): 0 inter, 1 inter with four vectors, 2 intra
};

/** The motion-vector predictor of P-picture vector differences. */
enum class MpegMvPred : u8 {
    kLeft,    ///< the left neighbour's vector (zero at a row start)
    kMedian,  ///< median of left, above and above-right; left only in
              ///< the first row and in the error-resilient layout
};

/** Where the full-sample search takes its spatial candidates from. */
enum class MpegMeSeeds : u8 {
    /** The left vector of the row's chain for the searched direction
     * (zero at a row start), plus above and above-right from a grid
     * of every coded vector, B pictures included. */
    kRowChain,
    /** Left, above and above-right, where they exist, from a grid of
     * P-picture vectors (all zero in B pictures). */
    kPGrid,
};

/** One MPEG-class codec's tools and syntax. */
struct MpegSyntax {
    const char *name;  ///< Codec::name() and error messages

    /** log2 of vector units per sample. 1: half-sample vectors,
     * bilinear MC and a half-sample refinement. 2: quarter-sample
     * vectors, tap-filtered luma and bilinear chroma MC, refinement
     * on cached half-sample planes (quarter steps when
     * CodecConfig::qpel is on). */
    int mv_shift;

    MpegPModeCoding p_mode;
    MpegMvPred p_mv_pred;
    MpegMeSeeds me_seeds;
    /** P macroblocks may carry four 8x8 vectors (when
     * CodecConfig::four_mv is on); needs MpegPModeCoding::kUe. */
    bool four_mv;

    RunLevelProfile intra_rl;
    RunLevelProfile inter_rl;

    /** The inter MpegQuantizer's rounding offset, in 1/64 of a step
     * (intra always rounds to nearest). */
    int inter_dead_zone;
    /** MpegQuantizer step shift (4: step = W*q/16, 3: W*q/8); also
     * scales the approximation tier's dead-zone SAD. */
    int quant_step_shift;

    /** The picture header carries the qpel and four_mv flag bits. */
    bool header_tool_flags;
};

/** Whether the driver can code @p syntax: a known vector unit, and
 * four-vector macroblocks only where the P-mode code has a symbol for
 * them. Each codec's table is checked with static_assert. */
constexpr bool
mpeg_syntax_codable(const MpegSyntax &syntax)
{
    return (syntax.mv_shift == 1 || syntax.mv_shift == 2) &&
           (!syntax.four_mv || syntax.p_mode == MpegPModeCoding::kUe);
}

/** Create the MPEG-class encoder for @p syntax; config must
 * validate. @p syntax must outlive the encoder. */
std::unique_ptr<VideoEncoder> create_mpeg_encoder(
    const MpegSyntax &syntax, const CodecConfig &config);

/** Create the MPEG-class decoder for @p syntax; config must
 * validate. @p syntax must outlive the decoder. */
std::unique_ptr<VideoDecoder> create_mpeg_decoder(
    const MpegSyntax &syntax, const CodecConfig &config);

}  // namespace hdvb

#endif  // HDVB_MPEG_MPEG_H
