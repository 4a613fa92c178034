/**
 * @file
 * H.264-class decoder: exact mirror of the encoder's range-coded syntax
 * and reconstruction, including the in-loop deblocking filter.
 *
 * With CodecConfig::threads > 1 the error-resilient path decodes in
 * two phases. Each row is an independent range-coded chunk, so phase 1
 * parses every row's syntax in parallel into per-MB records (all
 * failure conditions — coder errors, mode availability, reference
 * bounds, the row sentinel — are syntax-level, so a row's fate is
 * fully decided here). Phase 2 reconstructs from the records in
 * wavefront order across rows, because intra prediction reads pixels
 * from the row above; failed rows conceal in the same wavefront slot.
 * Output is identical to the serial schedule for any thread count.
 */
#include "h264/h264.h"

#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/resync.h"
#include "codec/codec.h"
#include "codec/conceal.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/wavefront.h"
#include "dsp/quant.h"
#include "dsp/transform4x4.h"
#include "h264/cabac_syntax.h"
#include "h264/deblock.h"
#include "h264/intra_pred.h"
#include "mc/mc.h"
#include "me/me.h"

namespace hdvb {

namespace {

using namespace hdvb::h264;

struct Partition {
    int x, y, w, h;
    MotionVector mv;
};

const Partition kPartGeom[4][4] = {
    {{0, 0, 16, 16, {}}, {}, {}, {}},
    {{0, 0, 16, 8, {}}, {0, 8, 16, 8, {}}, {}, {}},
    {{0, 0, 8, 16, {}}, {8, 0, 8, 16, {}}, {}, {}},
    {{0, 0, 8, 8, {}}, {8, 0, 8, 8, {}}, {0, 8, 8, 8, {}},
     {8, 8, 8, 8, {}}},
};

const int kPartCount[4] = {1, 2, 2, 4};

class H264Decoder final : public DecoderBase
{
  public:
    explicit H264Decoder(const CodecConfig &cfg)
        : DecoderBase(cfg),
          dsp_(get_dsp(cfg.simd)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          binfo_(cfg.width, cfg.height),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return "h264"; }

  protected:
    Status decode_picture(const Packet &packet, Frame *out) override;

  private:
    struct MbState {
        Frame *frame;
        PictureType type;
        int mbx;
        int mby;
        MotionVector left_fwd;
        MotionVector left_bwd;
        /** Side-info slot for the current MB (serial path only). */
        MbSideInfo *rec = nullptr;
    };

    Status decode_picture_resilient(const Packet &packet, Frame *out);
    bool decode_resilient_row(MbState &st, const std::vector<u8> &row,
                              int mby, int *bad_from);
    void conceal_row(Frame *frame, PictureType type, int from, int mby);
    /** Conceal MB (st.mbx, st.mby): temporal from the newest
     * reference, spatial DC in I pictures. */
    void conceal_mb(const MbState &st);
    /** Append @p picture to the DPB as the newest anchor. */
    void push_reference(const Frame &picture);

    /** Parsed syntax of one MB for the two-phase parallel decode. */
    struct MbRec {
        enum Kind : u8 { kSkipMb, kIntraMb, kInterPMb, kInterBMb };
        Kind kind = kSkipMb;
        bool use_i4 = false;
        u8 i16_mode = 0;
        u8 i4_modes[16] = {};
        u8 part_mode = 0;
        u8 ref = 0;
        u8 b_mode = 0;
        s16 mvd[4][2] = {};  ///< P: per partition; B: fwd=0 / bwd=1
        Coeff dc_levels[16] = {};
        Coeff luma[16][16] = {};
        Coeff chroma[2][4][16] = {};
    };

    bool parse_mb(RangeDecoder &rc, Contexts &cm, const Plane &luma,
                  PictureType type, int mbx, int mby, MbRec &rec) const;
    bool parse_intra_mb(RangeDecoder &rc, Contexts &cm,
                        const Plane &luma, int mbx, int mby,
                        MbRec &rec) const;
    bool parse_residual(RangeDecoder &rc, Contexts &cm, MbRec &rec) const;
    bool parse_resilient_row(const std::vector<u8> &row,
                             const Plane &luma, PictureType type,
                             int mby, MbRec *recs, int *bad_from) const;
    void recon_mb_rec(MbState &st, const MbRec &rec);
    void recon_intra_rec(MbState &st, const MbRec &rec);
    void recon_chroma_rec(MbState &st, const MbRec &rec,
                          const Pixel *cb_pred, const Pixel *cr_pred,
                          const H264Quantizer &quant);

    bool decode_mb(MbState &st);
    bool decode_intra_mb(MbState &st);
    bool decode_luma_intra16(MbState &st);
    bool decode_luma_intra4(MbState &st);
    bool decode_chroma(MbState &st, const Pixel *cb_pred,
                       const Pixel *cr_pred, bool intra);
    bool decode_residual(MbState &st, const Pixel *luma_pred,
                         const Pixel *cb_pred, const Pixel *cr_pred);
    void recon_skip(MbState &st);

    MotionVector median_pred(int mbx, int mby) const;
    MotionVector clamp_mv(MotionVector mv, int x0, int y0, int w,
                          int h) const;
    void fill_binfo(const MbState &st, bool intra, s8 ref,
                    const Partition *parts, int count, u16 nz_map);

    const Frame &ref_frame(int ref_idx) const
    {
        return dpb_[dpb_.size() - 1 - static_cast<size_t>(ref_idx)];
    }

    const Dsp &dsp_;
    int mb_w_;
    int mb_h_;

    std::deque<Frame> dpb_;
    BlockInfoGrid binfo_;
    std::vector<MotionVector> mv_grid_;
    std::vector<MbRec> records_;        ///< phase-1 output (threads > 1)
    std::unique_ptr<ThreadPool> pool_;  ///< row pool (threads > 1)
    Contexts ctx_;
    RangeDecoder *rc_ = nullptr;
    const H264Quantizer *quant_i_ = nullptr;
    const H264Quantizer *quant_p_ = nullptr;
    u16 mb_nz_map_ = 0;
};

MotionVector
H264Decoder::median_pred(int mbx, int mby) const
{
    const MotionVector zero{};
    const MotionVector a =
        mbx > 0 ? mv_grid_[mby * mb_w_ + mbx - 1] : zero;
    // Matches the encoder: resilient rows predict from the left only.
    if (mby == 0 || config().error_resilience)
        return a;
    const MotionVector b = mv_grid_[(mby - 1) * mb_w_ + mbx];
    const MotionVector c = mbx + 1 < mb_w_
                               ? mv_grid_[(mby - 1) * mb_w_ + mbx + 1]
                               : zero;
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

MotionVector
H264Decoder::clamp_mv(MotionVector mv, int x0, int y0, int w, int h) const
{
    const int margin = kMeMargin + 4;
    const int min_x = 4 * (-margin - x0);
    const int max_x = 4 * (config().width + margin - x0 - w);
    const int min_y = 4 * (-margin - y0);
    const int max_y = 4 * (config().height + margin - y0 - h);
    return {static_cast<s16>(clamp<int>(mv.x, min_x, max_x)),
            static_cast<s16>(clamp<int>(mv.y, min_y, max_y))};
}

void
H264Decoder::fill_binfo(const MbState &st, bool intra, s8 ref,
                        const Partition *parts, int count, u16 nz_map)
{
    const int bx0 = st.mbx * 4;
    const int by0 = st.mby * 4;
    for (int by = 0; by < 4; ++by) {
        for (int bx = 0; bx < 4; ++bx) {
            BlockInfo &info = binfo_.at(bx0 + bx, by0 + by);
            info.intra = intra ? 1 : 0;
            info.nonzero = (nz_map >> (by * 4 + bx)) & 1;
            info.ref = intra ? -1 : ref;
            info.mv = {};
            if (!intra) {
                for (int p = 0; p < count; ++p) {
                    const Partition &part = parts[p];
                    if (bx * 4 >= part.x && bx * 4 < part.x + part.w &&
                        by * 4 >= part.y && by * 4 < part.y + part.h) {
                        info.mv = part.mv;
                        break;
                    }
                }
            }
        }
    }
}

bool
H264Decoder::decode_chroma(MbState &st, const Pixel *cb_pred,
                           const Pixel *cr_pred, bool intra)
{
    const H264Quantizer &quant = intra ? *quant_i_ : *quant_p_;
    for (int comp = 1; comp < 3; ++comp) {
        Plane &plane = st.frame->plane(comp);
        const Pixel *pred = comp == 1 ? cb_pred : cr_pred;
        const int cx = st.mbx * 8;
        const int cy = st.mby * 8;
        dsp_.copy_rect(plane.row(cy) + cx, plane.stride(), pred, 8, 8, 8);
        for (int b = 0; b < 4; ++b) {
            const int x = cx + (b & 1) * 4;
            const int y = cy + (b >> 1) * 4;
            Coeff blk[16] = {};
            if (!decode_block4x4(*rc_, ctx_, blk, 0, 1))
                return false;
            quant.recon4x4(blk, INT32_MIN, plane.row(y) + x,
                           plane.stride());
        }
    }
    return true;
}

bool
H264Decoder::decode_luma_intra16(MbState &st)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;
    const int m0 = rc_->decode_bit(ctx_.intra16_mode[0]);
    const int m1 = rc_->decode_bit(ctx_.intra16_mode[1]);
    const Intra16Mode mode = static_cast<Intra16Mode>(m0 * 2 + m1);
    if (!intra16_mode_available(lx, ly, mode))
        return false;

    Plane &luma = st.frame->luma();
    Pixel pred[16 * 16];
    predict_intra16(luma, lx, ly, mode, pred, 16);

    Coeff dc_levels[16] = {};
    if (!decode_block4x4(*rc_, ctx_, dc_levels, 0, 2))
        return false;
    Coeff levels[16][16];
    for (int b = 0; b < 16; ++b) {
        std::memset(levels[b], 0, sizeof(levels[b]));
        if (!decode_block4x4(*rc_, ctx_, levels[b], 1, 0))
            return false;
    }

    s32 dc_rec[16];
    bool dc_nz = false;
    for (int b = 0; b < 16; ++b) {
        dc_rec[b] = quant_i_->dequantize_dc(dc_levels[b]);
        dc_nz |= dc_levels[b] != 0;
    }
    hadamard4x4_inv(dc_rec);
    mb_nz_map_ = 0;
    dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), pred, 16, 16, 16);
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        quant_i_->recon4x4(levels[b], (dc_rec[b] + 8) >> 4,
                           luma.row(y) + x, luma.stride());
        bool nz = dc_nz;
        for (int i = 1; i < 16; ++i)
            nz |= levels[b][i] != 0;
        if (nz)
            mb_nz_map_ |= 1u << b;
    }
    return true;
}

bool
H264Decoder::decode_luma_intra4(MbState &st)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;
    Plane &luma = st.frame->luma();
    mb_nz_map_ = 0;
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        const int m2 = rc_->decode_bit(ctx_.intra4_mode[0]);
        const int m1 = rc_->decode_bit(ctx_.intra4_mode[1]);
        const int m0 = rc_->decode_bit(ctx_.intra4_mode[2]);
        const int mode_idx = m2 * 4 + m1 * 2 + m0;
        if (mode_idx >= kI4ModeCount)
            return false;
        const Intra4Mode mode = static_cast<Intra4Mode>(mode_idx);
        if (!intra4_mode_available(luma, x, y, mode))
            return false;
        Pixel pred[16];
        predict_intra4(luma, x, y, mode, pred, 4);
        Coeff blk[16] = {};
        if (!decode_block4x4(*rc_, ctx_, blk, 0, 0))
            return false;
        Pixel *dst = luma.row(y) + x;
        dsp_.copy_rect(dst, luma.stride(), pred, 4, 4, 4);
        quant_i_->recon4x4(blk, INT32_MIN, dst, luma.stride());
        for (int i = 0; i < 16; ++i) {
            if (blk[i] != 0) {
                mb_nz_map_ |= 1u << b;
                break;
            }
        }
    }
    return true;
}

bool
H264Decoder::decode_intra_mb(MbState &st)
{
    const int use_i4 = rc_->decode_bit(ctx_.intra4_flag);
    const bool ok = use_i4 ? decode_luma_intra4(st)
                           : decode_luma_intra16(st);
    if (!ok)
        return false;

    Pixel cb_pred[8 * 8], cr_pred[8 * 8];
    predict_chroma_dc(st.frame->cb(), st.mbx * 8, st.mby * 8, cb_pred,
                      8);
    predict_chroma_dc(st.frame->cr(), st.mbx * 8, st.mby * 8, cr_pred,
                      8);
    if (!decode_chroma(st, cb_pred, cr_pred, true))
        return false;

    fill_binfo(st, true, -1, nullptr, 0, mb_nz_map_);
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
    st.left_fwd = st.left_bwd = MotionVector{};
    if (st.rec != nullptr)
        st.rec->mode = MbSideInfo::kIntra;
    return true;
}

bool
H264Decoder::decode_residual(MbState &st, const Pixel *luma_pred,
                             const Pixel *cb_pred, const Pixel *cr_pred)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;
    Plane &luma = st.frame->luma();
    mb_nz_map_ = 0;
    dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), luma_pred, 16, 16,
                   16);
    for (int b = 0; b < 16; ++b) {
        Coeff blk[16] = {};
        if (!decode_block4x4(*rc_, ctx_, blk, 0, 0))
            return false;
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        quant_p_->recon4x4(blk, INT32_MIN, luma.row(y) + x,
                           luma.stride());
        for (int i = 0; i < 16; ++i) {
            if (blk[i] != 0) {
                mb_nz_map_ |= 1u << b;
                break;
            }
        }
    }
    return decode_chroma(st, cb_pred, cr_pred, false);
}

void
H264Decoder::recon_skip(MbState &st)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;
    Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
    if (st.type == PictureType::kP) {
        const MotionVector mv =
            clamp_mv(median_pred(st.mbx, st.mby), lx, ly, 16, 16);
        const Frame &ref = ref_frame(0);
        mc_h264_luma(ref.luma(), lx, ly, mv, luma_pred, 16, 16, 16,
                     dsp_);
        mc_h264_chroma(ref.cb(), st.mbx * 8, st.mby * 8, mv, cb_pred, 8,
                       8, 8);
        mc_h264_chroma(ref.cr(), st.mbx * 8, st.mby * 8, mv, cr_pred, 8,
                       8, 8);
        Partition part = kPartGeom[kPart16x16][0];
        part.mv = mv;
        fill_binfo(st, false, 0, &part, 1, 0);
        mv_grid_[st.mby * mb_w_ + st.mbx] = mv;
        if (st.rec != nullptr) {
            st.rec->mode = MbSideInfo::kSkip;
            st.rec->fwd = mv;
        }
    } else {
        const Frame &fwd = dpb_[dpb_.size() - 2];
        const Frame &bwd = dpb_.back();
        Pixel fb[16 * 16], bb[16 * 16], fc[8 * 8], bc[8 * 8];
        mc_h264_luma(fwd.luma(), lx, ly, {}, fb, 16, 16, 16, dsp_);
        mc_h264_luma(bwd.luma(), lx, ly, {}, bb, 16, 16, 16, dsp_);
        dsp_.avg_rect(luma_pred, 16, fb, 16, bb, 16, 16, 16);
        mc_h264_chroma(fwd.cb(), st.mbx * 8, st.mby * 8, {}, fc, 8, 8,
                       8);
        mc_h264_chroma(bwd.cb(), st.mbx * 8, st.mby * 8, {}, bc, 8, 8,
                       8);
        dsp_.avg_rect(cb_pred, 8, fc, 8, bc, 8, 8, 8);
        mc_h264_chroma(fwd.cr(), st.mbx * 8, st.mby * 8, {}, fc, 8, 8,
                       8);
        mc_h264_chroma(bwd.cr(), st.mbx * 8, st.mby * 8, {}, bc, 8, 8,
                       8);
        dsp_.avg_rect(cr_pred, 8, fc, 8, bc, 8, 8, 8);
        Partition part = kPartGeom[kPart16x16][0];
        fill_binfo(st, false, 0, &part, 1, 0);
        st.left_fwd = st.left_bwd = MotionVector{};
        if (st.rec != nullptr)
            st.rec->mode = MbSideInfo::kSkip;
    }
    dsp_.copy_rect(st.frame->luma().row(ly) + lx,
                   st.frame->luma().stride(), luma_pred, 16, 16, 16);
    dsp_.copy_rect(st.frame->cb().row(st.mby * 8) + st.mbx * 8,
                   st.frame->cb().stride(), cb_pred, 8, 8, 8);
    dsp_.copy_rect(st.frame->cr().row(st.mby * 8) + st.mbx * 8,
                   st.frame->cr().stride(), cr_pred, 8, 8, 8);
}

bool
H264Decoder::decode_mb(MbState &st)
{
    const CodecConfig &cfg = config();
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;

    if (st.type == PictureType::kI)
        return decode_intra_mb(st);

    if (rc_->decode_bit(ctx_.mb_skip) != 0) {
        recon_skip(st);
        return !rc_->has_error();
    }
    if (rc_->decode_bit(ctx_.mb_intra) != 0)
        return decode_intra_mb(st);

    if (st.type == PictureType::kP) {
        const int m0 = rc_->decode_bit(ctx_.part_mode[0]);
        const int m1 = rc_->decode_bit(ctx_.part_mode[1]);
        const int mode = m0 * 2 + m1;
        int ref = 0;
        if (cfg.refs > 1) {
            const int max_ref =
                clamp<int>(static_cast<int>(dpb_.size()), 1, cfg.refs);
            ref = decode_ref_idx(*rc_, ctx_, max_ref);
        }
        if (ref >= static_cast<int>(dpb_.size()))
            return false;

        const int count = kPartCount[mode];
        Partition parts[4];
        MotionVector chain = median_pred(st.mbx, st.mby);
        for (int p = 0; p < count; ++p) {
            parts[p] = kPartGeom[mode][p];
            MotionVector mv{
                static_cast<s16>(chain.x + decode_mvd(*rc_, ctx_, 0)),
                static_cast<s16>(chain.y + decode_mvd(*rc_, ctx_, 1))};
            mv = clamp_mv(mv, lx + parts[p].x, ly + parts[p].y,
                          parts[p].w, parts[p].h);
            parts[p].mv = mv;
            chain = mv;
        }
        if (rc_->has_error())
            return false;

        const Frame &ref_frame_ = ref_frame(ref);
        Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
        for (int p = 0; p < count; ++p) {
            const Partition &part = parts[p];
            mc_h264_luma(ref_frame_.luma(), lx + part.x, ly + part.y,
                         part.mv, luma_pred + part.y * 16 + part.x, 16,
                         part.w, part.h, dsp_);
            mc_h264_chroma(ref_frame_.cb(),
                           st.mbx * 8 + part.x / 2,
                           st.mby * 8 + part.y / 2, part.mv,
                           cb_pred + (part.y / 2) * 8 + part.x / 2, 8,
                           part.w / 2, part.h / 2);
            mc_h264_chroma(ref_frame_.cr(),
                           st.mbx * 8 + part.x / 2,
                           st.mby * 8 + part.y / 2, part.mv,
                           cr_pred + (part.y / 2) * 8 + part.x / 2, 8,
                           part.w / 2, part.h / 2);
        }
        if (!decode_residual(st, luma_pred, cb_pred, cr_pred))
            return false;
        fill_binfo(st, false, static_cast<s8>(ref), parts, count,
                   mb_nz_map_);
        mv_grid_[st.mby * mb_w_ + st.mbx] = parts[0].mv;
        if (st.rec != nullptr) {
            st.rec->mode = MbSideInfo::kInterFwd;
            st.rec->ref = static_cast<u8>(ref);
            st.rec->fwd = parts[0].mv;
        }
        return true;
    }

    // B picture.
    const int b0 = rc_->decode_bit(ctx_.b_mode[0]);
    int mode = kBBi;
    if (b0 != 0)
        mode = rc_->decode_bit(ctx_.b_mode[1]) != 0 ? kBBwd : kBFwd;

    MotionVector fmv{}, bmv{};
    if (mode != kBBwd) {
        fmv = {static_cast<s16>(st.left_fwd.x +
                                decode_mvd(*rc_, ctx_, 0)),
               static_cast<s16>(st.left_fwd.y +
                                decode_mvd(*rc_, ctx_, 1))};
        fmv = clamp_mv(fmv, lx, ly, 16, 16);
    }
    if (mode != kBFwd) {
        bmv = {static_cast<s16>(st.left_bwd.x +
                                decode_mvd(*rc_, ctx_, 0)),
               static_cast<s16>(st.left_bwd.y +
                                decode_mvd(*rc_, ctx_, 1))};
        bmv = clamp_mv(bmv, lx, ly, 16, 16);
    }
    if (rc_->has_error())
        return false;

    const Frame &fwd_ref = dpb_[dpb_.size() - 2];
    const Frame &bwd_ref = dpb_.back();
    Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
    if (mode == kBFwd) {
        mc_h264_luma(fwd_ref.luma(), lx, ly, fmv, luma_pred, 16, 16, 16,
                     dsp_);
        mc_h264_chroma(fwd_ref.cb(), st.mbx * 8, st.mby * 8, fmv,
                       cb_pred, 8, 8, 8);
        mc_h264_chroma(fwd_ref.cr(), st.mbx * 8, st.mby * 8, fmv,
                       cr_pred, 8, 8, 8);
    } else if (mode == kBBwd) {
        mc_h264_luma(bwd_ref.luma(), lx, ly, bmv, luma_pred, 16, 16, 16,
                     dsp_);
        mc_h264_chroma(bwd_ref.cb(), st.mbx * 8, st.mby * 8, bmv,
                       cb_pred, 8, 8, 8);
        mc_h264_chroma(bwd_ref.cr(), st.mbx * 8, st.mby * 8, bmv,
                       cr_pred, 8, 8, 8);
    } else {
        Pixel fb[16 * 16], bb[16 * 16], fc[8 * 8], bc[8 * 8];
        mc_h264_luma(fwd_ref.luma(), lx, ly, fmv, fb, 16, 16, 16, dsp_);
        mc_h264_luma(bwd_ref.luma(), lx, ly, bmv, bb, 16, 16, 16, dsp_);
        dsp_.avg_rect(luma_pred, 16, fb, 16, bb, 16, 16, 16);
        mc_h264_chroma(fwd_ref.cb(), st.mbx * 8, st.mby * 8, fmv, fc, 8,
                       8, 8);
        mc_h264_chroma(bwd_ref.cb(), st.mbx * 8, st.mby * 8, bmv, bc, 8,
                       8, 8);
        dsp_.avg_rect(cb_pred, 8, fc, 8, bc, 8, 8, 8);
        mc_h264_chroma(fwd_ref.cr(), st.mbx * 8, st.mby * 8, fmv, fc, 8,
                       8, 8);
        mc_h264_chroma(bwd_ref.cr(), st.mbx * 8, st.mby * 8, bmv, bc, 8,
                       8, 8);
        dsp_.avg_rect(cr_pred, 8, fc, 8, bc, 8, 8, 8);
    }
    if (!decode_residual(st, luma_pred, cb_pred, cr_pred))
        return false;
    Partition part = kPartGeom[kPart16x16][0];
    part.mv = mode == kBBwd ? bmv : fmv;
    fill_binfo(st, false, 0, &part, 1, mb_nz_map_);
    st.left_fwd = mode == kBBwd ? MotionVector{} : fmv;
    st.left_bwd = mode == kBFwd ? MotionVector{} : bmv;
    if (st.rec != nullptr) {
        st.rec->mode = mode == kBBi
                           ? MbSideInfo::kInterBi
                           : (mode == kBFwd ? MbSideInfo::kInterFwd
                                            : MbSideInfo::kInterBwd);
        st.rec->fwd = fmv;
        st.rec->bwd = bmv;
    }
    return true;
}

void
H264Decoder::conceal_row(Frame *frame, PictureType type, int from,
                         int mby)
{
    MbState st{};
    st.frame = frame;
    st.type = type;
    st.mby = mby;
    for (int mbx = from; mbx < mb_w_; ++mbx) {
        st.mbx = mbx;
        conceal_mb(st);
    }
}

void
H264Decoder::conceal_mb(const MbState &st)
{
    if (st.type == PictureType::kI || dpb_.empty()) {
        conceal_mb_dc(st.frame, st.mbx, st.mby);
        fill_binfo(st, true, -1, nullptr, 0, 0);
    } else {
        const Partition part16 = kPartGeom[kPart16x16][0];
        conceal_mb_from_ref(st.frame, dpb_.back(), st.mbx, st.mby);
        fill_binfo(st, false, 0, &part16, 1, 0);
    }
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
}

bool
H264Decoder::decode_resilient_row(MbState &st, const std::vector<u8> &row,
                                  int mby, int *bad_from)
{
    *bad_from = 0;
    RangeDecoder rc(row);
    rc_ = &rc;
    ctx_.reset();
    st.mby = mby;
    st.left_fwd = st.left_bwd = MotionVector{};
    for (int mbx = 0; mbx < mb_w_; ++mbx) {
        st.mbx = mbx;
        if (!decode_mb(st) || rc.has_error()) {
            *bad_from = mbx;
            rc_ = nullptr;
            return false;
        }
    }
    // The range coder rarely self-detects garbage; a wrong sentinel
    // condemns the whole row (bad_from stays 0).
    const u32 sentinel = rc.decode_bypass_bits(8);
    const bool over_read = rc.has_error();
    rc_ = nullptr;
    return !over_read && sentinel == kRowSentinel;
}

// ---- phase 1: syntax parse (no pixel access) ----

bool
H264Decoder::parse_residual(RangeDecoder &rc, Contexts &cm,
                            MbRec &rec) const
{
    for (int b = 0; b < 16; ++b) {
        if (!decode_block4x4(rc, cm, rec.luma[b], 0, 0))
            return false;
    }
    for (int c = 0; c < 2; ++c) {
        for (int b = 0; b < 4; ++b) {
            if (!decode_block4x4(rc, cm, rec.chroma[c][b], 0, 1))
                return false;
        }
    }
    return true;
}

bool
H264Decoder::parse_intra_mb(RangeDecoder &rc, Contexts &cm,
                            const Plane &luma, int mbx, int mby,
                            MbRec &rec) const
{
    rec.kind = MbRec::kIntraMb;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    rec.use_i4 = rc.decode_bit(cm.intra4_flag) != 0;
    if (rec.use_i4) {
        // Availability is positional, so it validates at parse time;
        // the plane is only consulted for its geometry.
        for (int b = 0; b < 16; ++b) {
            const int x = lx + (b & 3) * 4;
            const int y = ly + (b >> 2) * 4;
            const int m2 = rc.decode_bit(cm.intra4_mode[0]);
            const int m1 = rc.decode_bit(cm.intra4_mode[1]);
            const int m0 = rc.decode_bit(cm.intra4_mode[2]);
            const int mode_idx = m2 * 4 + m1 * 2 + m0;
            if (mode_idx >= kI4ModeCount)
                return false;
            if (!intra4_mode_available(luma, x, y,
                                       static_cast<Intra4Mode>(
                                           mode_idx)))
                return false;
            rec.i4_modes[b] = static_cast<u8>(mode_idx);
            if (!decode_block4x4(rc, cm, rec.luma[b], 0, 0))
                return false;
        }
    } else {
        const int m0 = rc.decode_bit(cm.intra16_mode[0]);
        const int m1 = rc.decode_bit(cm.intra16_mode[1]);
        rec.i16_mode = static_cast<u8>(m0 * 2 + m1);
        if (!intra16_mode_available(
                lx, ly, static_cast<Intra16Mode>(rec.i16_mode)))
            return false;
        if (!decode_block4x4(rc, cm, rec.dc_levels, 0, 2))
            return false;
        for (int b = 0; b < 16; ++b) {
            if (!decode_block4x4(rc, cm, rec.luma[b], 1, 0))
                return false;
        }
    }
    for (int c = 0; c < 2; ++c) {
        for (int b = 0; b < 4; ++b) {
            if (!decode_block4x4(rc, cm, rec.chroma[c][b], 0, 1))
                return false;
        }
    }
    return true;
}

bool
H264Decoder::parse_mb(RangeDecoder &rc, Contexts &cm, const Plane &luma,
                      PictureType type, int mbx, int mby,
                      MbRec &rec) const
{
    const CodecConfig &cfg = config();

    if (type == PictureType::kI)
        return parse_intra_mb(rc, cm, luma, mbx, mby, rec);

    if (rc.decode_bit(cm.mb_skip) != 0) {
        rec.kind = MbRec::kSkipMb;
        return !rc.has_error();
    }
    if (rc.decode_bit(cm.mb_intra) != 0)
        return parse_intra_mb(rc, cm, luma, mbx, mby, rec);

    if (type == PictureType::kP) {
        rec.kind = MbRec::kInterPMb;
        const int m0 = rc.decode_bit(cm.part_mode[0]);
        const int m1 = rc.decode_bit(cm.part_mode[1]);
        rec.part_mode = static_cast<u8>(m0 * 2 + m1);
        int ref = 0;
        if (cfg.refs > 1) {
            const int max_ref =
                clamp<int>(static_cast<int>(dpb_.size()), 1, cfg.refs);
            ref = decode_ref_idx(rc, cm, max_ref);
        }
        if (ref >= static_cast<int>(dpb_.size()))
            return false;
        rec.ref = static_cast<u8>(ref);
        const int count = kPartCount[rec.part_mode];
        for (int p = 0; p < count; ++p) {
            rec.mvd[p][0] = static_cast<s16>(decode_mvd(rc, cm, 0));
            rec.mvd[p][1] = static_cast<s16>(decode_mvd(rc, cm, 1));
        }
        if (rc.has_error())
            return false;
        return parse_residual(rc, cm, rec);
    }

    rec.kind = MbRec::kInterBMb;
    const int b0 = rc.decode_bit(cm.b_mode[0]);
    int mode = kBBi;
    if (b0 != 0)
        mode = rc.decode_bit(cm.b_mode[1]) != 0 ? kBBwd : kBFwd;
    rec.b_mode = static_cast<u8>(mode);
    if (mode != kBBwd) {
        rec.mvd[0][0] = static_cast<s16>(decode_mvd(rc, cm, 0));
        rec.mvd[0][1] = static_cast<s16>(decode_mvd(rc, cm, 1));
    }
    if (mode != kBFwd) {
        rec.mvd[1][0] = static_cast<s16>(decode_mvd(rc, cm, 0));
        rec.mvd[1][1] = static_cast<s16>(decode_mvd(rc, cm, 1));
    }
    if (rc.has_error())
        return false;
    return parse_residual(rc, cm, rec);
}

bool
H264Decoder::parse_resilient_row(const std::vector<u8> &row,
                                 const Plane &luma, PictureType type,
                                 int mby, MbRec *recs,
                                 int *bad_from) const
{
    *bad_from = 0;
    RangeDecoder rc(row);
    Contexts cm;
    cm.reset();
    for (int mbx = 0; mbx < mb_w_; ++mbx) {
        recs[mbx] = MbRec{};
        if (!parse_mb(rc, cm, luma, type, mbx, mby, recs[mbx]) ||
            rc.has_error()) {
            *bad_from = mbx;
            return false;
        }
    }
    const u32 sentinel = rc.decode_bypass_bits(8);
    return !rc.has_error() && sentinel == kRowSentinel;
}

// ---- phase 2: reconstruction from records ----

void
H264Decoder::recon_chroma_rec(MbState &st, const MbRec &rec,
                              const Pixel *cb_pred, const Pixel *cr_pred,
                              const H264Quantizer &quant)
{
    for (int comp = 1; comp < 3; ++comp) {
        Plane &plane = st.frame->plane(comp);
        const int cx = st.mbx * 8;
        const int cy = st.mby * 8;
        dsp_.copy_rect(plane.row(cy) + cx, plane.stride(),
                       comp == 1 ? cb_pred : cr_pred, 8, 8, 8);
        for (int b = 0; b < 4; ++b) {
            quant.recon4x4(rec.chroma[comp - 1][b], INT32_MIN,
                           plane.row(cy + (b >> 1) * 4) + cx + (b & 1) * 4,
                           plane.stride());
        }
    }
}

void
H264Decoder::recon_intra_rec(MbState &st, const MbRec &rec)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;
    Plane &luma = st.frame->luma();
    u16 nz_map = 0;

    if (rec.use_i4) {
        for (int b = 0; b < 16; ++b) {
            const int x = lx + (b & 3) * 4;
            const int y = ly + (b >> 2) * 4;
            Pixel pred[16];
            predict_intra4(luma, x, y,
                           static_cast<Intra4Mode>(rec.i4_modes[b]),
                           pred, 4);
            Pixel *dst = luma.row(y) + x;
            dsp_.copy_rect(dst, luma.stride(), pred, 4, 4, 4);
            quant_i_->recon4x4(rec.luma[b], INT32_MIN, dst, luma.stride());
            for (int i = 0; i < 16; ++i) {
                if (rec.luma[b][i] != 0) {
                    nz_map |= 1u << b;
                    break;
                }
            }
        }
    } else {
        Pixel pred[16 * 16];
        predict_intra16(luma, lx, ly,
                        static_cast<Intra16Mode>(rec.i16_mode), pred,
                        16);
        s32 dc_rec[16];
        bool dc_nz = false;
        for (int b = 0; b < 16; ++b) {
            dc_rec[b] = quant_i_->dequantize_dc(rec.dc_levels[b]);
            dc_nz |= rec.dc_levels[b] != 0;
        }
        hadamard4x4_inv(dc_rec);
        dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), pred, 16, 16,
                       16);
        for (int b = 0; b < 16; ++b) {
            const int x = lx + (b & 3) * 4;
            const int y = ly + (b >> 2) * 4;
            quant_i_->recon4x4(rec.luma[b], (dc_rec[b] + 8) >> 4,
                               luma.row(y) + x, luma.stride());
            bool nz = dc_nz;
            for (int i = 1; i < 16; ++i)
                nz |= rec.luma[b][i] != 0;
            if (nz)
                nz_map |= 1u << b;
        }
    }

    Pixel cb_pred[8 * 8], cr_pred[8 * 8];
    predict_chroma_dc(st.frame->cb(), st.mbx * 8, st.mby * 8, cb_pred,
                      8);
    predict_chroma_dc(st.frame->cr(), st.mbx * 8, st.mby * 8, cr_pred,
                      8);
    recon_chroma_rec(st, rec, cb_pred, cr_pred, *quant_i_);

    fill_binfo(st, true, -1, nullptr, 0, nz_map);
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
    st.left_fwd = st.left_bwd = MotionVector{};
}

void
H264Decoder::recon_mb_rec(MbState &st, const MbRec &rec)
{
    const int lx = st.mbx * 16;
    const int ly = st.mby * 16;

    if (rec.kind == MbRec::kSkipMb) {
        recon_skip(st);
        return;
    }
    if (rec.kind == MbRec::kIntraMb) {
        recon_intra_rec(st, rec);
        return;
    }

    Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
    Partition parts[4];
    int count = 1;
    s8 binfo_ref = 0;
    if (rec.kind == MbRec::kInterPMb) {
        count = kPartCount[rec.part_mode];
        MotionVector chain = median_pred(st.mbx, st.mby);
        for (int p = 0; p < count; ++p) {
            parts[p] = kPartGeom[rec.part_mode][p];
            MotionVector mv{
                static_cast<s16>(chain.x + rec.mvd[p][0]),
                static_cast<s16>(chain.y + rec.mvd[p][1])};
            mv = clamp_mv(mv, lx + parts[p].x, ly + parts[p].y,
                          parts[p].w, parts[p].h);
            parts[p].mv = mv;
            chain = mv;
        }
        binfo_ref = static_cast<s8>(rec.ref);
        const Frame &ref = ref_frame(rec.ref);
        for (int p = 0; p < count; ++p) {
            const Partition &part = parts[p];
            mc_h264_luma(ref.luma(), lx + part.x, ly + part.y, part.mv,
                         luma_pred + part.y * 16 + part.x, 16, part.w,
                         part.h, dsp_);
            mc_h264_chroma(ref.cb(), st.mbx * 8 + part.x / 2,
                           st.mby * 8 + part.y / 2, part.mv,
                           cb_pred + (part.y / 2) * 8 + part.x / 2, 8,
                           part.w / 2, part.h / 2);
            mc_h264_chroma(ref.cr(), st.mbx * 8 + part.x / 2,
                           st.mby * 8 + part.y / 2, part.mv,
                           cr_pred + (part.y / 2) * 8 + part.x / 2, 8,
                           part.w / 2, part.h / 2);
        }
    } else {
        const int mode = rec.b_mode;
        MotionVector fmv{}, bmv{};
        if (mode != kBBwd) {
            fmv = {static_cast<s16>(st.left_fwd.x + rec.mvd[0][0]),
                   static_cast<s16>(st.left_fwd.y + rec.mvd[0][1])};
            fmv = clamp_mv(fmv, lx, ly, 16, 16);
        }
        if (mode != kBFwd) {
            bmv = {static_cast<s16>(st.left_bwd.x + rec.mvd[1][0]),
                   static_cast<s16>(st.left_bwd.y + rec.mvd[1][1])};
            bmv = clamp_mv(bmv, lx, ly, 16, 16);
        }
        const Frame &fwd_ref = dpb_[dpb_.size() - 2];
        const Frame &bwd_ref = dpb_.back();
        if (mode == kBFwd) {
            mc_h264_luma(fwd_ref.luma(), lx, ly, fmv, luma_pred, 16, 16,
                         16, dsp_);
            mc_h264_chroma(fwd_ref.cb(), st.mbx * 8, st.mby * 8, fmv,
                           cb_pred, 8, 8, 8);
            mc_h264_chroma(fwd_ref.cr(), st.mbx * 8, st.mby * 8, fmv,
                           cr_pred, 8, 8, 8);
        } else if (mode == kBBwd) {
            mc_h264_luma(bwd_ref.luma(), lx, ly, bmv, luma_pred, 16, 16,
                         16, dsp_);
            mc_h264_chroma(bwd_ref.cb(), st.mbx * 8, st.mby * 8, bmv,
                           cb_pred, 8, 8, 8);
            mc_h264_chroma(bwd_ref.cr(), st.mbx * 8, st.mby * 8, bmv,
                           cr_pred, 8, 8, 8);
        } else {
            Pixel fb[16 * 16], bb[16 * 16], fc[8 * 8], bc[8 * 8];
            mc_h264_luma(fwd_ref.luma(), lx, ly, fmv, fb, 16, 16, 16,
                         dsp_);
            mc_h264_luma(bwd_ref.luma(), lx, ly, bmv, bb, 16, 16, 16,
                         dsp_);
            dsp_.avg_rect(luma_pred, 16, fb, 16, bb, 16, 16, 16);
            mc_h264_chroma(fwd_ref.cb(), st.mbx * 8, st.mby * 8, fmv,
                           fc, 8, 8, 8);
            mc_h264_chroma(bwd_ref.cb(), st.mbx * 8, st.mby * 8, bmv,
                           bc, 8, 8, 8);
            dsp_.avg_rect(cb_pred, 8, fc, 8, bc, 8, 8, 8);
            mc_h264_chroma(fwd_ref.cr(), st.mbx * 8, st.mby * 8, fmv,
                           fc, 8, 8, 8);
            mc_h264_chroma(bwd_ref.cr(), st.mbx * 8, st.mby * 8, bmv,
                           bc, 8, 8, 8);
            dsp_.avg_rect(cr_pred, 8, fc, 8, bc, 8, 8, 8);
        }
        parts[0] = kPartGeom[kPart16x16][0];
        parts[0].mv = mode == kBBwd ? bmv : fmv;
        st.left_fwd = mode == kBBwd ? MotionVector{} : fmv;
        st.left_bwd = mode == kBFwd ? MotionVector{} : bmv;
    }

    // Residual add, shared for P and B.
    Plane &luma = st.frame->luma();
    u16 nz_map = 0;
    dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), luma_pred, 16, 16,
                   16);
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        quant_p_->recon4x4(rec.luma[b], INT32_MIN, luma.row(y) + x,
                           luma.stride());
        for (int i = 0; i < 16; ++i) {
            if (rec.luma[b][i] != 0) {
                nz_map |= 1u << b;
                break;
            }
        }
    }
    recon_chroma_rec(st, rec, cb_pred, cr_pred, *quant_p_);

    if (rec.kind == MbRec::kInterPMb) {
        fill_binfo(st, false, binfo_ref, parts, count, nz_map);
        mv_grid_[st.mby * mb_w_ + st.mbx] = parts[0].mv;
    } else {
        fill_binfo(st, false, 0, parts, 1, nz_map);
    }
}

void
H264Decoder::push_reference(const Frame &picture)
{
    // P pictures read the newest refs anchors and B pictures the newest
    // two. Evict before copying the newcomer in, so no more than that
    // many references are ever held and the evicted buffers can be
    // recycled for the copy.
    const size_t max_dpb =
        static_cast<size_t>(clamp(config().refs, 2, 16));
    while (dpb_.size() >= max_dpb)
        dpb_.pop_front();
    Frame ref = new_frame(kRefBorder);
    ref.copy_from(picture);
    ref.extend_borders();
    dpb_.push_back(std::move(ref));
}

Status
H264Decoder::decode_picture_resilient(const Packet &packet, Frame *out)
{
    ResilientPicture pic;
    if (!split_resilient_picture(packet.data, mb_h_, &pic))
        return Status::corrupt_stream("no resync markers in h264 picture");

    BitReader hbr(pic.header);
    const PictureType type = static_cast<PictureType>(hbr.get_bits(2));
    const int qp = static_cast<int>(hbr.get_bits(6));
    const bool deblock = hbr.get_bit() != 0;
    hbr.skip_bits(16);  // poc_lsb
    if (hbr.has_error() || type != packet.type)
        return Status::corrupt_stream("bad h264 picture header");
    if (qp < 0 || qp > 51)
        return Status::corrupt_stream("bad h264 qp");
    if (type == PictureType::kP && dpb_.empty())
        return Status::corrupt_stream("P picture without reference");
    if (type == PictureType::kB && dpb_.size() < 2)
        return Status::corrupt_stream("B picture without two references");

    const H264Quantizer quant_i(qp, true, dsp_);
    const H264Quantizer quant_p(qp, false, dsp_);
    quant_i_ = &quant_i;
    quant_p_ = &quant_p;

    *out = new_frame(kRefBorder);
    binfo_.clear();
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    std::vector<RowOutcome> rows(static_cast<size_t>(mb_h_));

    if (pool_ != nullptr) {
        // Two-phase parallel decode (see the file comment).
        records_.resize(static_cast<size_t>(mb_w_) * mb_h_);

        // Phase 1: rows are independent entropy chunks — parse them
        // all concurrently.
        parallel_for(*pool_, mb_h_, [&](int mby, int) {
            const ResyncSegment &seg = pic.rows[static_cast<size_t>(mby)];
            if (seg.size == 0)
                return;
            const std::vector<u8> row =
                unescape_emulation(seg.data, seg.size);
            RowOutcome &r = rows[static_cast<size_t>(mby)];
            r.ok = parse_resilient_row(row, out->luma(), type, mby,
                                       records_.data() + mby * mb_w_,
                                       &r.bad_from);
        });

        // Phase 2: reconstruct in wavefront order — intra prediction
        // and spatial concealment read pixels from the row above, so
        // row y-1 must be complete through column x+1 before MB (x, y)
        // runs (same lag as the encoder's analysis wavefront).
        WavefrontScheduler wf(mb_h_, mb_w_);
        parallel_for(*pool_, mb_h_, [&](int mby, int) {
            WavefrontRowGuard guard(wf, mby);
            MbState st{};
            st.frame = out;
            st.type = type;
            st.mby = mby;
            const RowOutcome &r = rows[static_cast<size_t>(mby)];
            const int good = r.ok ? mb_w_ : r.bad_from;
            for (int mbx = 0; mbx < mb_w_; ++mbx) {
                wf.wait_above(mby, mbx);
                st.mbx = mbx;
                if (mbx < good)
                    recon_mb_rec(st, records_[mby * mb_w_ + mbx]);
                else
                    conceal_mb(st);
                wf.publish(mby, mbx + 1);
            }
        });
    } else {
        MbState st{};
        st.frame = out;
        st.type = type;
        for (int mby = 0; mby < mb_h_; ++mby) {
            const ResyncSegment &seg = pic.rows[static_cast<size_t>(mby)];
            RowOutcome &r = rows[static_cast<size_t>(mby)];
            if (seg.data != nullptr) {
                const std::vector<u8> row =
                    unescape_emulation(seg.data, seg.size);
                r.ok = decode_resilient_row(st, row, mby, &r.bad_from);
            }
            if (!r.ok)
                conceal_row(out, type, r.bad_from, mby);
        }
    }

    quant_i_ = quant_p_ = nullptr;
    if (!tally_resilient_rows(rows, mb_w_, &stats_))
        return Status::corrupt_stream("every row of the picture lost");

    if (deblock)
        deblock_picture(out, binfo_, qp, config().approx, dsp_);

    if (type != PictureType::kB)
        push_reference(*out);
    return Status::ok();
}

Status
H264Decoder::decode_picture(const Packet &packet, Frame *out)
{
    if (config().error_resilience)
        return decode_picture_resilient(packet, out);

    RangeDecoder rc(packet.data);
    rc_ = &rc;
    ctx_.reset();

    const PictureType type =
        static_cast<PictureType>(rc.decode_bypass_bits(2));
    const int qp = static_cast<int>(rc.decode_bypass_bits(6));
    const bool deblock = rc.decode_bypass() != 0;
    rc.decode_bypass_bits(16);  // poc_lsb
    if (rc.has_error() || type != packet.type)
        return Status::corrupt_stream("bad h264 picture header");
    if (qp < 0 || qp > 51)
        return Status::corrupt_stream("bad h264 qp");
    if (type == PictureType::kP && dpb_.empty())
        return Status::corrupt_stream("P picture without reference");
    if (type == PictureType::kB && dpb_.size() < 2)
        return Status::corrupt_stream("B picture without two references");

    const H264Quantizer quant_i(qp, true, dsp_);
    const H264Quantizer quant_p(qp, false, dsp_);
    quant_i_ = &quant_i;
    quant_p_ = &quant_p;

    *out = new_frame(kRefBorder);
    binfo_.clear();
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    const bool record = side_info_sink() != nullptr;
    PictureSideInfo si;
    if (record) {
        si.poc = packet.poc;
        si.type = type;
        si.mb_w = mb_w_;
        si.mb_h = mb_h_;
        si.quant = qp;
        si.mbs.resize(static_cast<size_t>(mb_w_) * mb_h_);
    }

    MbState st{};
    st.frame = out;
    st.type = type;
    for (int mby = 0; mby < mb_h_; ++mby) {
        st.mby = mby;
        st.left_fwd = st.left_bwd = MotionVector{};
        for (int mbx = 0; mbx < mb_w_; ++mbx) {
            st.mbx = mbx;
            st.rec = record ? &si.at(mbx, mby) : nullptr;
            if (!decode_mb(st)) {
                rc_ = nullptr;
                return Status::corrupt_stream("bad h264 MB data");
            }
        }
    }
    rc_ = nullptr;
    quant_i_ = quant_p_ = nullptr;

    if (record)
        side_info_sink()->push(std::move(si));

    if (deblock)
        deblock_picture(out, binfo_, qp, config().approx, dsp_);

    if (type != PictureType::kB)
        push_reference(*out);
    return Status::ok();
}

}  // namespace

std::unique_ptr<VideoDecoder>
create_h264_decoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<H264Decoder>(config);
}

}  // namespace hdvb
