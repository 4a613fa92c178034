/**
 * @file
 * Macroblock-level pieces the MPEG-class encoder and decoder share:
 * syntax constants, the picture quantisers, motion-vector prediction,
 * the one function each side builds an inter macroblock's prediction
 * with, and the block reconstruction. Both sides calling exactly this
 * code is what keeps the encoder's reconstruction and the decoder's
 * output in step.
 */
#ifndef HDVB_MPEG_MACROBLOCK_H
#define HDVB_MPEG_MACROBLOCK_H

#include <cstring>
#include <vector>

#include "common/types.h"
#include "dsp/quant.h"
#include "mc/mc.h"
#include "mpeg/mpeg.h"
#include "simd/dispatch.h"
#include "video/frame.h"

namespace hdvb {
namespace mpeg {

/** Intra DC: predictor reset value (mid-grey level / DC step). */
inline constexpr int kDcPredReset = 128;
/** Intra DC quantiser step (full-precision coefficient units). */
inline constexpr int kDcStep = 8;

/** P-picture macroblock modes, as MpegPModeCoding::kUe codes them. */
enum PMode { kPInter = 0, kPInter4v = 1, kPIntra = 2 };

/** B-picture macroblock modes (ue-coded; bi-prediction cheapest). */
enum BMode { kBBi = 0, kBFwd = 1, kBBwd = 2, kBIntra = 3 };

/** Plane (0 Y, 1 Cb, 2 Cr) of block @p b: 0..3 luma, 4 Cb, 5 Cr. */
inline int
block_plane(int b)
{
    return b < 4 ? 0 : b - 3;
}

/** Top-left sample of block @p b of macroblock (mbx, mby). */
inline void
block_origin(int b, int mbx, int mby, int *x, int *y)
{
    *x = b < 4 ? mbx * 16 + (b & 1) * 8 : mbx * 8;
    *y = b < 4 ? mby * 16 + (b >> 1) * 8 : mby * 8;
}

/** Zero an 8x8 pixel block (intra reconstruction base). */
inline void
zero_block8(Pixel *dst, int ds)
{
    for (int y = 0; y < 8; ++y)
        std::memset(dst + y * ds, 0, 8);
}

/**
 * Reconstruct one 8x8 block from quantised levels and add it to @p dst
 * (which holds the prediction, or zeros for intra blocks).
 *
 * @param dc_coeff for intra blocks, the reconstructed DC transform
 *        coefficient (dc_level * kDcStep); pass a negative value for
 *        inter blocks, whose DC went through the regular quantiser.
 */
inline void
mpeg_recon_block(const Coeff levels[64], const MpegQuantizer &quant,
                 s32 dc_coeff, Pixel *dst, int ds, const Dsp &dsp)
{
    alignas(32) Coeff tmp[64];
    std::memcpy(tmp, levels, sizeof(tmp));
    quant.dequantize(tmp);
    if (dc_coeff >= 0)
        tmp[0] = static_cast<Coeff>(clamp<s32>(dc_coeff, 0, 2040));
    dsp.idct8x8(tmp);
    dsp.add_rect(dst, ds, tmp, 8, 8, 8);
}

/** The intra and inter quantisers of one picture. */
struct Quantizers {
    Quantizers(const MpegSyntax &syntax, int qscale, const Dsp &dsp);

    MpegQuantizer intra;
    MpegQuantizer inter;
};

/** Per-macroblock prediction (luma 16x16, chroma 8x8 each), aligned
 * so the SIMD kernels' loads and stores do not split cache lines. */
struct alignas(32) PredBuffers {
    Pixel luma[16 * 16];
    Pixel cb[8 * 8];
    Pixel cr[8 * 8];

    /** Block @p b's prediction and its stride. */
    const Pixel *
    block(int b, int *stride) const
    {
        *stride = b < 4 ? 16 : 8;
        if (b < 4)
            return luma + (b >> 1) * 8 * 16 + (b & 1) * 8;
        return b == 4 ? cb : cr;
    }
};

/** The motion of one inter macroblock, in the syntax's vector units.
 * The default is a skipped P macroblock: forward, zero vector. */
struct MbMotion {
    bool use_fwd = true;
    bool use_bwd = false;
    bool four = false;    ///< P only: four 8x8 vectors in fwd[0..3]
    MotionVector fwd[4];  ///< fwd[0] alone unless four
    MotionVector bwd;
};

/** The 16x16 luma prediction of macroblock (mbx, mby) from @p ref at
 * one vector: the luma of predict_mb's one-direction prediction. */
void predict_luma16(const MpegSyntax &syntax, const Dsp &dsp,
                    const Frame &ref, MotionVector mv, int mbx, int mby,
                    Pixel luma[16 * 16]);

/**
 * Build the prediction of macroblock (mbx, mby). P pictures predict
 * from @p last_anchor; B pictures forward from @p prev_anchor,
 * backward from @p last_anchor, and average the two when both are
 * used.
 */
void predict_mb(const MpegSyntax &syntax, const Dsp &dsp,
                const Frame &prev_anchor, const Frame &last_anchor,
                PictureType type, const MbMotion &motion, int mbx,
                int mby, PredBuffers *pred);

/** Write @p pred plus the dequantised residual of every block coded
 * in @p cbp into macroblock (mbx, mby) of @p frame. */
void recon_inter_mb(const PredBuffers &pred, const Coeff levels[6][64],
                    int cbp, const MpegQuantizer &quant, Frame *frame,
                    int mbx, int mby, const Dsp &dsp);

/**
 * Predictor of a P-picture vector difference at (mbx, mby) from
 * @p grid, the picture's vectors so far (zero where not coded).
 * Resilient rows must parse standalone, so the median falls back to
 * the left neighbour there, and a concealed row cannot skew the rows
 * below it.
 */
MotionVector p_mv_pred(const MpegSyntax &syntax, bool resilient,
                       const std::vector<MotionVector> &grid, int mb_w,
                       int mbx, int mby);

}  // namespace mpeg
}  // namespace hdvb

#endif  // HDVB_MPEG_MACROBLOCK_H
