#include "mpeg/macroblock.h"

namespace hdvb {
namespace mpeg {
namespace {

/** Average of four luma vectors, halved for chroma, with symmetric
 * rounding. */
MotionVector
chroma_mv_from_4mv(const MotionVector mv[4])
{
    const int sx = mv[0].x + mv[1].x + mv[2].x + mv[3].x;
    const int sy = mv[0].y + mv[1].y + mv[2].y + mv[3].y;
    return {static_cast<s16>(div_round(sx, 8)),
            static_cast<s16>(div_round(sy, 8))};
}

/** One direction's prediction from @p ref (four 8x8 luma vectors when
 * @p four). */
void
predict_one(const MpegSyntax &syntax, const Dsp &dsp, const Frame &ref,
            const MotionVector *mv, bool four, int mbx, int mby,
            PredBuffers *pred)
{
    const bool half = syntax.mv_shift == 1;
    const auto luma_mc = half ? mc_halfpel : mc_qpel_tap;
    const auto chroma_mc = half ? mc_halfpel : mc_qpel_bilin;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    if (four) {
        for (int b = 0; b < 4; ++b) {
            luma_mc(ref.luma(), lx + (b & 1) * 8, ly + (b >> 1) * 8,
                    mv[b], pred->luma + (b >> 1) * 8 * 16 + (b & 1) * 8,
                    16, 8, 8, dsp);
        }
    } else {
        predict_luma16(syntax, dsp, ref, mv[0], mbx, mby, pred->luma);
    }
    const MotionVector cmv =
        four ? chroma_mv_from_4mv(mv)
             : (half ? chroma_mv_from_halfpel(mv[0])
                     : chroma_mv_from_qpel(mv[0]));
    chroma_mc(ref.cb(), mbx * 8, mby * 8, cmv, pred->cb, 8, 8, 8, dsp);
    chroma_mc(ref.cr(), mbx * 8, mby * 8, cmv, pred->cr, 8, 8, 8, dsp);
}

}  // namespace

Quantizers::Quantizers(const MpegSyntax &syntax, int qscale,
                       const Dsp &dsp)
    // Intra levels round to nearest (offset 32/64) in every codec.
    : intra(kMpegIntraMatrix, qscale, 32, syntax.quant_step_shift, dsp),
      inter(kMpegInterMatrix, qscale, syntax.inter_dead_zone,
            syntax.quant_step_shift, dsp)
{
}

void
predict_luma16(const MpegSyntax &syntax, const Dsp &dsp, const Frame &ref,
               MotionVector mv, int mbx, int mby, Pixel luma[16 * 16])
{
    const auto luma_mc = syntax.mv_shift == 1 ? mc_halfpel : mc_qpel_tap;
    luma_mc(ref.luma(), mbx * 16, mby * 16, mv, luma, 16, 16, 16, dsp);
}

void
predict_mb(const MpegSyntax &syntax, const Dsp &dsp,
           const Frame &prev_anchor, const Frame &last_anchor,
           PictureType type, const MbMotion &motion, int mbx, int mby,
           PredBuffers *pred)
{
    if (type != PictureType::kB) {
        predict_one(syntax, dsp, last_anchor, motion.fwd, motion.four,
                    mbx, mby, pred);
        return;
    }
    if (!motion.use_fwd) {
        predict_one(syntax, dsp, last_anchor, &motion.bwd, false, mbx,
                    mby, pred);
        return;
    }
    predict_one(syntax, dsp, prev_anchor, motion.fwd, false, mbx, mby,
                pred);
    if (motion.use_bwd) {
        PredBuffers back;
        predict_one(syntax, dsp, last_anchor, &motion.bwd, false, mbx,
                    mby, &back);
        dsp.avg_rect(pred->luma, 16, pred->luma, 16, back.luma, 16, 16,
                     16);
        dsp.avg_rect(pred->cb, 8, pred->cb, 8, back.cb, 8, 8, 8);
        dsp.avg_rect(pred->cr, 8, pred->cr, 8, back.cr, 8, 8, 8);
    }
}

void
recon_inter_mb(const PredBuffers &pred, const Coeff levels[6][64],
               int cbp, const MpegQuantizer &quant, Frame *frame,
               int mbx, int mby, const Dsp &dsp)
{
    if (cbp == 0) {
        // Nothing coded (a skip, or a residual quantised to zero):
        // the reconstruction is the prediction, one copy per plane.
        for (int comp = 0; comp < 3; ++comp) {
            Plane &plane = frame->plane(comp);
            const int size = comp == 0 ? 16 : 8;
            const Pixel *pp =
                comp == 0 ? pred.luma : (comp == 1 ? pred.cb : pred.cr);
            dsp.copy_rect(plane.row(mby * size) + mbx * size,
                          plane.stride(), pp, size, size, size);
        }
        return;
    }
    for (int b = 0; b < 6; ++b) {
        Plane &plane = frame->plane(block_plane(b));
        int x, y, ps;
        block_origin(b, mbx, mby, &x, &y);
        const Pixel *pp = pred.block(b, &ps);
        Pixel *dst = plane.row(y) + x;
        dsp.copy_rect(dst, plane.stride(), pp, ps, 8, 8);
        if (cbp & (1 << b))
            mpeg_recon_block(levels[b], quant, -1, dst, plane.stride(),
                             dsp);
    }
}

MotionVector
p_mv_pred(const MpegSyntax &syntax, bool resilient,
          const std::vector<MotionVector> &grid, int mb_w, int mbx,
          int mby)
{
    const MotionVector zero{};
    const size_t idx = static_cast<size_t>(mby) * mb_w + mbx;
    const MotionVector a = mbx > 0 ? grid[idx - 1] : zero;
    if (syntax.p_mv_pred == MpegMvPred::kLeft || mby == 0 || resilient)
        return a;
    const MotionVector b = grid[idx - mb_w];
    const MotionVector c = mbx + 1 < mb_w ? grid[idx - mb_w + 1] : zero;
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

}  // namespace mpeg
}  // namespace hdvb
