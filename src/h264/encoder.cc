/**
 * @file
 * H.264-class encoder: hexagon motion estimation with SATD sub-sample
 * refinement (the paper's `--me hex --subme 7`), variable block sizes,
 * multiple reference pictures (`--ref`), Intra4/Intra16 prediction,
 * 4x4 integer transform, in-loop deblocking and adaptive binary range
 * coding.
 *
 * Like the MPEG encoders, encoding is split into an analysis phase
 * (all decisions, quantised levels and the reconstruction, wavefront-
 * parallel across MB rows when CodecConfig::threads > 1) and a serial
 * write phase that replays per-MB records through the adaptive range
 * coder in raster order. The range coder is inherently sequential —
 * every bin shifts the context models — so it lives entirely in the
 * replay, which emits the identical bit sequence for any thread count.
 */
#include "h264/h264.h"

#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/resync.h"
#include "codec/codec.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/wavefront.h"
#include "dsp/approx.h"
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

/** One luma partition: geometry plus its chosen motion. */
struct Partition {
    int x, y, w, h;  ///< offsets within the MB / sizes
    MotionVector mv;
};

/** Partition geometries per PartMode. */
const Partition kPartGeom[4][4] = {
    {{0, 0, 16, 16, {}}, {}, {}, {}},
    {{0, 0, 16, 8, {}}, {0, 8, 16, 8, {}}, {}, {}},
    {{0, 0, 8, 16, {}}, {8, 0, 8, 16, {}}, {}, {}},
    {{0, 0, 8, 8, {}}, {8, 0, 8, 8, {}}, {0, 8, 8, 8, {}},
     {8, 8, 8, 8, {}}},
};

const int kPartCount[4] = {1, 2, 2, 4};

class H264Encoder final : public EncoderBase
{
  public:
    explicit H264Encoder(const CodecConfig &cfg)
        : EncoderBase(cfg),
          dsp_(get_dsp(cfg.simd)),
          quant_i_(cfg.qp, true, dsp_),
          quant_p_(cfg.qp, false, dsp_),
          me_(MeParams{cfg.me_range,
                       static_cast<int>(16.0 *
                                        std::pow(2.0,
                                                 (cfg.qp - 12) / 6.0)),
                       2, &dsp_, cfg.approx}),
          dead_zone_sad_(h264_dead_zone_sad(cfg.qp, cfg.approx)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          binfo_(cfg.width, cfg.height),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          anchor_mvs_(static_cast<size_t>(mb_w_) * mb_h_),
          records_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return "h264"; }

    const Frame *last_reconstruction() const override { return last_recon_; }

  protected:
    std::vector<u8> encode_picture(const Frame &src,
                                   PictureType type) override;

  private:
    /** Everything the serial write phase needs to replay one MB
     * through the range coder. */
    struct MbRecord {
        enum Kind : u8 { kSkip, kIntra, kInterP, kInterB };
        Kind kind = kIntra;
        // intra
        bool use_i4 = false;
        u8 i16_mode = 0;       ///< Intra16Mode
        u8 i4_modes[16] = {};  ///< Intra4Mode per 4x4 block
        // inter (P)
        u8 part_mode = 0;
        u8 ref = 0;
        MotionVector part_mv[4];
        MotionVector pred_mv;  ///< median predictor, MVD chain start
        // inter (B)
        u8 b_mode = 0;
        MotionVector fmv;
        MotionVector bmv;
        // residual levels as quantised by the analysis phase
        Coeff dc_levels[16] = {};      ///< intra16 Hadamard DC
        Coeff luma[16][16] = {};
        Coeff chroma[2][4][16] = {};
    };

    /** A reconstructed anchor and the centre half-sample plane its
     * sub-sample searches read (built once, when it enters dpb_). */
    struct Reference {
        Frame frame;
        Plane centre;
    };

    /** Analysis-side row-scoped B-picture MV chains. */
    struct RowState {
        MotionVector left_fwd;
        MotionVector left_bwd;
    };

    void analyze_picture(const Frame &src, PictureType type);
    void analyze_mb(RowState &rs, const Frame &src, PictureType type,
                    int mbx, int mby, MbRecord &rec);
    void analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                          int mby, MbRecord &rec);
    u16 analyze_luma_intra16(const Frame &src, int mbx, int mby,
                             MbRecord &rec);
    u16 analyze_luma_intra4(const Frame &src, int mbx, int mby,
                            MbRecord &rec);
    void analyze_chroma(const Frame &src, int mbx, int mby, bool intra,
                        const Pixel *cb_pred, const Pixel *cr_pred,
                        MbRecord &rec);
    /** Transform + quantise the inter residual into @p rec and return
     * whether any coefficient is nonzero; @p nz_map gets the per-4x4
     * luma nonzero map. Does not touch the reconstruction. */
    bool quantize_inter_residual(const Frame &src, int mbx, int mby,
                                 const Pixel *luma_pred,
                                 const Pixel *cb_pred,
                                 const Pixel *cr_pred, MbRecord &rec,
                                 u16 *nz_map);
    void recon_inter_mb(int mbx, int mby, const Pixel *luma_pred,
                        const Pixel *cb_pred, const Pixel *cr_pred,
                        const MbRecord &rec);

    /** Write-side replay of one record (see the file comment). */
    struct WriteChains {
        MotionVector left_fwd;
        MotionVector left_bwd;
    };
    void write_mb(RangeEncoder &rc, WriteChains &wc,
                  const MbRecord &rec, PictureType type);

    MotionVector median_pred(int mbx, int mby) const;
    MeResult estimate(const Frame &src, const Reference &ref, int x0,
                      int y0, int w, int h, MotionVector pred_sub,
                      const std::vector<MotionVector> &cands) const;
    void predict_inter_luma(const Plane &ref, int mbx, int mby,
                            const Partition *parts, int count,
                            Pixel luma[16 * 16]) const;
    void fill_binfo(int mbx, int mby, bool intra, s8 ref,
                    const Partition *parts, int count, u16 nz_map);

    /** List0 entry @p ref_idx: newest anchor first. */
    const Reference &reference(int ref_idx) const;

    const Dsp &dsp_;
    H264Quantizer quant_i_;
    H264Quantizer quant_p_;
    MotionEstimator me_;
    int dead_zone_sad_;  ///< per-4x4 skip zone, 0 when approx == 0
    int mb_w_;
    int mb_h_;

    std::deque<Reference> dpb_;  ///< anchors, newest last
    RangeEncoder rc_;        ///< persistent coder (capacity reuse)
    BitWriter hbw_;          ///< persistent header writer
    std::vector<u8> wbuf_;   ///< persistent finish_into() scratch
    BlockInfoGrid binfo_;
    std::vector<MotionVector> mv_grid_;     ///< quarter-pel, current
    std::vector<MotionVector> anchor_mvs_;  ///< full-pel collocated
    Frame recon_;
    const Frame *last_recon_ = nullptr;  ///< recon_ or its dpb_ copy
    Contexts ctx_models_;
    std::vector<MbRecord> records_;   ///< one per MB, raster order
    std::unique_ptr<ThreadPool> pool_;  ///< band pool (threads > 1)

    /** Hints for the picture being analysed (read-only during the
     * wavefront phase), or null for full analysis. */
    std::shared_ptr<const PictureSideInfo> hint_pic_;

    const MbSideInfo *
    hint_mb(int mbx, int mby) const
    {
        return hint_pic_ ? &hint_pic_->at(mbx, mby) : nullptr;
    }
};

const H264Encoder::Reference &
H264Encoder::reference(int ref_idx) const
{
    HDVB_DCHECK(ref_idx < static_cast<int>(dpb_.size()));
    return dpb_[dpb_.size() - 1 - static_cast<size_t>(ref_idx)];
}

MotionVector
H264Encoder::median_pred(int mbx, int mby) const
{
    const MotionVector zero{};
    const MotionVector a =
        mbx > 0 ? mv_grid_[mby * mb_w_ + mbx - 1] : zero;
    // Resilient rows must parse standalone: predict from the left only.
    if (mby == 0 || config().error_resilience)
        return a;
    const MotionVector b = mv_grid_[(mby - 1) * mb_w_ + mbx];
    const MotionVector c = mbx + 1 < mb_w_
                               ? mv_grid_[(mby - 1) * mb_w_ + mbx + 1]
                               : zero;
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

MeResult
H264Encoder::estimate(const Frame &src, const Reference &ref, int x0,
                      int y0, int w, int h, MotionVector pred_sub,
                      const std::vector<MotionVector> &cands) const
{
    MeBlock blk;
    blk.cur = &src.luma();
    blk.ref = &ref.frame.luma();
    blk.x0 = x0;
    blk.y0 = y0;
    blk.w = w;
    blk.h = h;
    const MeResult full = me_.hex(blk, pred_sub, cands);
    const MotionVector start{static_cast<s16>(full.mv.x * 4),
                             static_cast<s16>(full.mv.y * 4)};
    const int approx = me_.params().approx;
    if (approx >= 1 && full.sad < me_.exit_threshold(blk)) {
        // Full-pel match is already near-noise: keep its SAD cost and
        // skip the fractional refinement entirely.
        MeResult r = full;
        r.mv = start;
        return r;
    }
    // SATD-driven half- then quarter-sample refinement (subme-style),
    // comparing candidates in place in the reference, its centre plane
    // and a window of the other half-samples — quarter positions by
    // the fused averaging SATD; the top approximation levels stop at
    // half-sample.
    const QpelSearchWindow win(ref.frame.luma(), ref.centre, x0, y0, w, h,
                               start, dsp_);
    const auto view = [&](MotionVector mv) { return win.candidate(mv); };
    return approx >= 2 ? subpel_refine_views(blk, start, pred_sub,
                                             me_.params(), {2},
                                             /*use_satd=*/true, view)
                       : subpel_refine_views(blk, start, pred_sub,
                                             me_.params(), {2, 1},
                                             /*use_satd=*/true, view);
}

void
H264Encoder::predict_inter_luma(const Plane &ref, int mbx, int mby,
                                const Partition *parts, int count,
                                Pixel luma[16 * 16]) const
{
    for (int p = 0; p < count; ++p) {
        const Partition &part = parts[p];
        mc_h264_luma(ref, mbx * 16 + part.x, mby * 16 + part.y, part.mv,
                     luma + part.y * 16 + part.x, 16, part.w, part.h,
                     dsp_);
    }
}

void
H264Encoder::fill_binfo(int mbx, int mby, bool intra, s8 ref,
                        const Partition *parts, int count, u16 nz_map)
{
    const int bx0 = mbx * 4;
    const int by0 = mby * 4;
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

// ---- residual helpers ----

namespace {

/** Extract a 4x4 residual, transform and quantise it. Returns nonzero
 * count; levels left in @p blk. */
inline int
transform_quant4x4(const Dsp &dsp, const Plane &src_plane, int x, int y,
                   const Pixel *pred, int ps, const H264Quantizer &quant,
                   Coeff blk[16], Coeff *dc_out)
{
    dsp.sub_rect(blk, 4, src_plane.row(y) + x, src_plane.stride(), pred,
                 ps, 4, 4);
    h264_fwd4x4(blk);
    if (dc_out != nullptr) {
        *dc_out = blk[0];
        blk[0] = 0;
    }
    return quant.quantize4x4(blk);
}

}  // namespace

void
H264Encoder::analyze_chroma(const Frame &src, int mbx, int mby,
                            bool intra, const Pixel *cb_pred,
                            const Pixel *cr_pred, MbRecord &rec)
{
    const H264Quantizer &quant = intra ? quant_i_ : quant_p_;
    for (int comp = 1; comp < 3; ++comp) {
        const Plane &src_plane = src.plane(comp);
        Plane &rec_plane = recon_.plane(comp);
        const Pixel *pred = comp == 1 ? cb_pred : cr_pred;
        const int cx = mbx * 8;
        const int cy = mby * 8;
        dsp_.copy_rect(rec_plane.row(cy) + cx, rec_plane.stride(), pred, 8,
                       8, 8);
        for (int b = 0; b < 4; ++b) {
            const int x = cx + (b & 1) * 4;
            const int y = cy + (b >> 1) * 4;
            Coeff *blk = rec.chroma[comp - 1][b];
            const Pixel *pp = pred + (b >> 1) * 4 * 8 + (b & 1) * 4;
            transform_quant4x4(dsp_, src_plane, x, y, pp, 8, quant, blk,
                               nullptr);
            quant.recon4x4(blk, INT32_MIN, rec_plane.row(y) + x,
                           rec_plane.stride());
        }
    }
}

u16
H264Encoder::analyze_luma_intra16(const Frame &src, int mbx, int mby,
                                  MbRecord &rec)
{
    const int lx = mbx * 16;
    const int ly = mby * 16;
    Pixel pred[16 * 16];
    predict_intra16(recon_.luma(), lx, ly,
                    static_cast<Intra16Mode>(rec.i16_mode), pred, 16);

    // Transform all 16 blocks; pull the DCs through the Hadamard.
    s32 dc[16];
    for (int b = 0; b < 16; ++b) {
        Coeff dc_c;
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        transform_quant4x4(dsp_, src.luma(), x, y,
                           pred + (b >> 2) * 4 * 16 + (b & 3) * 4, 16,
                           quant_i_, rec.luma[b], &dc_c);
        dc[b] = dc_c;
    }
    hadamard4x4_fwd(dc);
    for (int b = 0; b < 16; ++b)
        rec.dc_levels[b] = quant_i_.quantize_dc(dc[b]);

    // Reconstruction.
    s32 dc_rec[16];
    bool dc_nz = false;
    for (int b = 0; b < 16; ++b) {
        dc_rec[b] = quant_i_.dequantize_dc(rec.dc_levels[b]);
        dc_nz |= rec.dc_levels[b] != 0;
    }
    hadamard4x4_inv(dc_rec);
    u16 nz_map = 0;
    Plane &luma = recon_.luma();
    dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), pred, 16, 16, 16);
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        quant_i_.recon4x4(rec.luma[b], (dc_rec[b] + 8) >> 4,
                          luma.row(y) + x, luma.stride());
        bool nz = dc_nz;
        for (int i = 1; i < 16; ++i)
            nz |= rec.luma[b][i] != 0;
        if (nz)
            nz_map |= 1u << b;
    }
    return nz_map;
}

u16
H264Encoder::analyze_luma_intra4(const Frame &src, int mbx, int mby,
                                 MbRecord &rec)
{
    const int lx = mbx * 16;
    const int ly = mby * 16;
    const Plane &src_luma = src.luma();
    u16 nz_map = 0;
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        // Pick the SATD-best available mode against the source.
        Intra4Mode best_mode = kI4Dc;
        int best_cost = INT32_MAX;
        Pixel pred[16];
        for (int m = 0; m < kI4ModeCount; ++m) {
            const Intra4Mode mode = static_cast<Intra4Mode>(m);
            if (!intra4_mode_available(recon_.luma(), x, y, mode))
                continue;
            predict_intra4(recon_.luma(), x, y, mode, pred, 4);
            const int cost =
                dsp_.satd4x4(src_luma.row(y) + x, src_luma.stride(),
                             pred, 4) + (m != kI4Dc ? 1 : 0);
            if (cost < best_cost) {
                best_cost = cost;
                best_mode = mode;
            }
        }
        rec.i4_modes[b] = static_cast<u8>(best_mode);

        predict_intra4(recon_.luma(), x, y, best_mode, pred, 4);
        const int nz = transform_quant4x4(dsp_, src_luma, x, y, pred, 4,
                                          quant_i_, rec.luma[b],
                                          nullptr);
        Pixel *dst = recon_.luma().row(y) + x;
        dsp_.copy_rect(dst, recon_.luma().stride(), pred, 4, 4, 4);
        quant_i_.recon4x4(rec.luma[b], INT32_MIN, dst,
                          recon_.luma().stride());
        if (nz != 0)
            nz_map |= 1u << b;
    }
    return nz_map;
}

void
H264Encoder::analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                              int mby, MbRecord &rec)
{
    rec.kind = MbRecord::kIntra;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    const Plane &src_luma = src.luma();

    // Choose Intra16 mode by SATD.
    Intra16Mode best16 = kI16Dc;
    int cost16 = INT32_MAX;
    Pixel pred[16 * 16];
    for (int m = 0; m < 4; ++m) {
        const Intra16Mode mode = static_cast<Intra16Mode>(m);
        if (!intra16_mode_available(lx, ly, mode))
            continue;
        predict_intra16(recon_.luma(), lx, ly, mode, pred, 16);
        const int cost = dsp_.satd_rect(src_luma.row(ly) + lx,
                                        src_luma.stride(), pred, 16, 16,
                                        16);
        if (cost < cost16) {
            cost16 = cost;
            best16 = mode;
        }
    }

    bool use_i4 = false;
    if (config().intra4) {
        // Estimate the Intra4 cost with every block predicted from the
        // reconstruction as it stands before this MB is coded (a cheap
        // proxy; the real coding below reconstructs block by block).
        // Blocks inside the MB therefore see its uncoded samples, which
        // read as zero: clear them, so a recycled recon_ buffer's stale
        // contents can never steer the decision.
        for (int y = 0; y < 16; ++y)
            std::memset(recon_.luma().row(ly + y) + lx, 0, 16);
        int cost4 = (me_.params().lambda16 * 48) >> 4;
        Pixel p4[16];
        for (int b = 0; b < 16 && cost4 < cost16; ++b) {
            const int x = lx + (b & 3) * 4;
            const int y = ly + (b >> 2) * 4;
            int best = INT32_MAX;
            for (int m = 0; m < kI4ModeCount; ++m) {
                const Intra4Mode mode = static_cast<Intra4Mode>(m);
                if (!intra4_mode_available(recon_.luma(), x, y, mode))
                    continue;
                predict_intra4(recon_.luma(), x, y, mode, p4, 4);
                const int c = dsp_.satd4x4(src_luma.row(y) + x,
                                           src_luma.stride(), p4, 4);
                best = best < c ? best : c;
            }
            cost4 += best;
        }
        use_i4 = cost4 < cost16;
    }

    rec.use_i4 = use_i4;
    rec.i16_mode = static_cast<u8>(best16);
    const u16 nz_map = use_i4 ? analyze_luma_intra4(src, mbx, mby, rec)
                              : analyze_luma_intra16(src, mbx, mby, rec);

    Pixel cb_pred[8 * 8], cr_pred[8 * 8];
    predict_chroma_dc(recon_.cb(), mbx * 8, mby * 8, cb_pred, 8);
    predict_chroma_dc(recon_.cr(), mbx * 8, mby * 8, cr_pred, 8);
    analyze_chroma(src, mbx, mby, true, cb_pred, cr_pred, rec);

    fill_binfo(mbx, mby, true, -1, nullptr, 0, nz_map);
    mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
    rs.left_fwd = rs.left_bwd = MotionVector{};
}

bool
H264Encoder::quantize_inter_residual(const Frame &src, int mbx, int mby,
                                     const Pixel *luma_pred,
                                     const Pixel *cb_pred,
                                     const Pixel *cr_pred, MbRecord &rec,
                                     u16 *nz_map)
{
    const int lx = mbx * 16;
    const int ly = mby * 16;
    bool any = false;
    *nz_map = 0;
    for (int b = 0; b < 16; ++b) {
        const int x = lx + (b & 3) * 4;
        const int y = ly + (b >> 2) * 4;
        const Pixel *pp = luma_pred + (b >> 2) * 4 * 16 + (b & 3) * 4;
        if (dead_zone_sad_ > 0 &&
            dsp_.sad_rect(src.luma().row(y) + x, src.luma().stride(),
                          pp, 16, 4, 4) < dead_zone_sad_) {
            // Near-zero residual: code the block as all-zero without
            // running the transform. Records are reused across MBs, so
            // the levels must be cleared explicitly.
            std::memset(rec.luma[b], 0, sizeof(rec.luma[b]));
            continue;
        }
        const int nz = transform_quant4x4(dsp_, src.luma(), x, y, pp,
                                          16, quant_p_, rec.luma[b],
                                          nullptr);
        if (nz != 0) {
            any = true;
            *nz_map |= 1u << b;
        }
    }

    // Chroma residual (evaluated for the skip test as well).
    for (int comp = 1; comp < 3; ++comp) {
        const Plane &src_plane = src.plane(comp);
        const Pixel *pred = comp == 1 ? cb_pred : cr_pred;
        for (int b = 0; b < 4; ++b) {
            const int x = mbx * 8 + (b & 1) * 4;
            const int y = mby * 8 + (b >> 1) * 4;
            const Pixel *pp = pred + (b >> 1) * 4 * 8 + (b & 1) * 4;
            if (dead_zone_sad_ > 0 &&
                dsp_.sad_rect(src_plane.row(y) + x, src_plane.stride(),
                              pp, 8, 4, 4) < dead_zone_sad_) {
                std::memset(rec.chroma[comp - 1][b], 0,
                            sizeof(rec.chroma[comp - 1][b]));
                continue;
            }
            const int nz = transform_quant4x4(
                dsp_, src_plane, x, y, pp, 8, quant_p_,
                rec.chroma[comp - 1][b], nullptr);
            any |= nz != 0;
        }
    }
    return any;
}

void
H264Encoder::recon_inter_mb(int mbx, int mby, const Pixel *luma_pred,
                            const Pixel *cb_pred, const Pixel *cr_pred,
                            const MbRecord &rec)
{
    const int lx = mbx * 16;
    const int ly = mby * 16;
    Plane &luma = recon_.luma();
    dsp_.copy_rect(luma.row(ly) + lx, luma.stride(), luma_pred, 16, 16,
                   16);
    for (int b = 0; b < 16; ++b) {
        quant_p_.recon4x4(rec.luma[b], INT32_MIN,
                          luma.row(ly + (b >> 2) * 4) + lx + (b & 3) * 4,
                          luma.stride());
    }
    for (int comp = 1; comp < 3; ++comp) {
        Plane &rec_plane = recon_.plane(comp);
        const int cx = mbx * 8;
        const int cy = mby * 8;
        dsp_.copy_rect(rec_plane.row(cy) + cx, rec_plane.stride(),
                       comp == 1 ? cb_pred : cr_pred, 8, 8, 8);
        for (int b = 0; b < 4; ++b) {
            quant_p_.recon4x4(
                rec.chroma[comp - 1][b], INT32_MIN,
                rec_plane.row(cy + (b >> 1) * 4) + cx + (b & 1) * 4,
                rec_plane.stride());
        }
    }
}

void
H264Encoder::analyze_mb(RowState &rs, const Frame &src, PictureType type,
                        int mbx, int mby, MbRecord &rec)
{
    const CodecConfig &cfg = config();
    const Plane &src_luma = src.luma();
    const int lx = mbx * 16;
    const int ly = mby * 16;

    if (type == PictureType::kI) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    // Analysis-reuse hints (see src/codec/side_info.h): decode-side
    // intra goes straight to intra; a decode-side vector is seeded as
    // a search candidate while the intra scan, the extra references
    // and the partition split trials are pruned; B MBs search only the
    // hinted direction(s). Each pruned branch keeps a legal fallback;
    // a null hint runs the original code path bit-for-bit.
    const MbSideInfo *hint = hint_mb(mbx, mby);
    if (hint != nullptr && hint->mode == MbSideInfo::kIntra) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    // ---- inter candidates ----
    const MotionVector pred_mv = median_pred(mbx, mby);
    std::vector<MotionVector> cands;
    cands.reserve(4);
    const int idx = mby * mb_w_ + mbx;
    if (mbx > 0)
        cands.push_back({static_cast<s16>(mv_grid_[idx - 1].x >> 2),
                         static_cast<s16>(mv_grid_[idx - 1].y >> 2)});
    if (mby > 0)
        cands.push_back(
            {static_cast<s16>(mv_grid_[idx - mb_w_].x >> 2),
             static_cast<s16>(mv_grid_[idx - mb_w_].y >> 2)});
    cands.push_back(anchor_mvs_[idx]);

    // Rough intra cost for the mode decision (a hinted MB already
    // settled on inter at decode time, so skip the SATD scan).
    Pixel ipred[16 * 16];
    int intra_cost = INT32_MAX;
    if (hint == nullptr) {
        for (int m = 0; m < 4; ++m) {
            const Intra16Mode mode = static_cast<Intra16Mode>(m);
            if (!intra16_mode_available(lx, ly, mode))
                continue;
            predict_intra16(recon_.luma(), lx, ly, mode, ipred, 16);
            const int cost = dsp_.satd_rect(src_luma.row(ly) + lx,
                                            src_luma.stride(), ipred, 16,
                                            16, 16);
            intra_cost = intra_cost < cost ? intra_cost : cost;
        }
        intra_cost += (me_.params().lambda16 * 32) >> 4;
    }

    if (type == PictureType::kP) {
        // 16x16 over every reference; a hint pins the decode-side
        // reference (clamped to this encoder's dpb depth).
        const int nrefs =
            clamp<int>(static_cast<int>(dpb_.size()), 1, cfg.refs);
        int r_lo = 0;
        int r_hi = nrefs;
        if (hint != nullptr) {
            cands.push_back(hint_full_pel(hint->fwd));
            r_lo = clamp<int>(hint->ref, 0, nrefs - 1);
            r_hi = r_lo + 1;
        }
        MeResult best16;
        int best_ref = r_lo;
        for (int r = r_lo; r < r_hi; ++r) {
            MeResult res =
                estimate(src, reference(r), lx, ly, 16, 16, pred_mv, cands);
            res.cost += (me_.params().lambda16 * 2 * r) >> 4;
            if (res.cost < best16.cost) {
                best16 = res;
                best_ref = r;
            }
        }
        const Reference &ref = reference(best_ref);

        // Partition decision on the chosen reference (the hint is a
        // 16x16 seed, so trust it and skip the split trials).
        int best_mode = kPart16x16;
        Partition parts[4] = {kPartGeom[kPart16x16][0], {}, {}, {}};
        parts[0].mv = best16.mv;
        int best_cost = best16.cost;
        // Approximation levels >= 2 trust the 16x16 result unless its
        // residual is clearly large enough for a split to pay off.
        const bool try_parts =
            cfg.partitions && hint == nullptr &&
            (me_.params().approx < 2 ||
             best16.sad >= (256 << me_.params().approx) * 4);
        if (try_parts) {
            std::vector<MotionVector> sub_cands = cands;
            sub_cands.push_back({static_cast<s16>(best16.mv.x >> 2),
                                 static_cast<s16>(best16.mv.y >> 2)});
            for (int mode = kPart16x8; mode <= kPart8x8; ++mode) {
                const int count = kPartCount[mode];
                Partition trial[4];
                int cost = (me_.params().lambda16 * 8 * count) >> 4;
                for (int p = 0; p < count && cost < best_cost; ++p) {
                    trial[p] = kPartGeom[mode][p];
                    const MeResult r = estimate(
                        src, ref, lx + trial[p].x, ly + trial[p].y,
                        trial[p].w, trial[p].h, best16.mv, sub_cands);
                    trial[p].mv = r.mv;
                    cost += r.cost;
                }
                if (cost < best_cost) {
                    best_cost = cost;
                    best_mode = mode;
                    for (int p = 0; p < count; ++p)
                        parts[p] = trial[p];
                }
            }
        }

        if (intra_cost < best_cost) {
            analyze_intra_mb(rs, src, mbx, mby, rec);
            return;
        }

        // Build the prediction and quantise the residual.
        Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
        const int count = kPartCount[best_mode];
        predict_inter_luma(ref.frame.luma(), mbx, mby, parts, count,
                           luma_pred);
        {
            // Chroma from the partition MVs.
            for (int p = 0; p < count; ++p) {
                const Partition &part = parts[p];
                mc_h264_chroma(ref.frame.cb(), mbx * 8 + part.x / 2,
                               mby * 8 + part.y / 2, part.mv,
                               cb_pred + (part.y / 2) * 8 + part.x / 2,
                               8, part.w / 2, part.h / 2);
                mc_h264_chroma(ref.frame.cr(), mbx * 8 + part.x / 2,
                               mby * 8 + part.y / 2, part.mv,
                               cr_pred + (part.y / 2) * 8 + part.x / 2,
                               8, part.w / 2, part.h / 2);
            }
        }

        u16 nz_map = 0;
        const bool any = quantize_inter_residual(
            src, mbx, mby, luma_pred, cb_pred, cr_pred, rec, &nz_map);

        // Skip test: 16x16, ref 0, MV == predictor, zero residual.
        const bool skip_candidate = best_mode == kPart16x16 &&
                                    best_ref == 0 &&
                                    parts[0].mv == pred_mv;
        if (skip_candidate && !any) {
            rec.kind = MbRecord::kSkip;
            // Reconstruction = prediction.
            dsp_.copy_rect(recon_.luma().row(ly) + lx,
                           recon_.luma().stride(), luma_pred, 16, 16,
                           16);
            dsp_.copy_rect(recon_.cb().row(mby * 8) + mbx * 8,
                           recon_.cb().stride(), cb_pred, 8, 8, 8);
            dsp_.copy_rect(recon_.cr().row(mby * 8) + mbx * 8,
                           recon_.cr().stride(), cr_pred, 8, 8, 8);
            fill_binfo(mbx, mby, false, 0, parts, 1, 0);
            mv_grid_[idx] = parts[0].mv;
            return;
        }

        rec.kind = MbRecord::kInterP;
        rec.part_mode = static_cast<u8>(best_mode);
        rec.ref = static_cast<u8>(best_ref);
        rec.pred_mv = pred_mv;
        for (int p = 0; p < count; ++p)
            rec.part_mv[p] = parts[p].mv;
        recon_inter_mb(mbx, mby, luma_pred, cb_pred, cr_pred, rec);
        fill_binfo(mbx, mby, false, static_cast<s8>(best_ref), parts,
                   count, nz_map);
        mv_grid_[idx] = parts[0].mv;
        return;
    }

    // ---- B picture: 16x16 fwd/bwd/bi (+ intra) ----
    // A single-direction hint prunes the opposite estimate and the
    // bi-prediction build.
    const Reference &fwd_anchor = dpb_[dpb_.size() - 2];
    const Reference &bwd_anchor = dpb_.back();
    const Frame &fwd_ref = fwd_anchor.frame;
    const Frame &bwd_ref = bwd_anchor.frame;
    const bool want_fwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterBwd;
    const bool want_bwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterFwd;

    MeResult fwd;
    MeResult bwd;
    Pixel fbuf[16 * 16], bbuf[16 * 16];
    if (want_fwd) {
        std::vector<MotionVector> fcands = cands;
        if (hint != nullptr)
            fcands.push_back(hint_full_pel(hint->fwd));
        fwd = estimate(src, fwd_anchor, lx, ly, 16, 16, rs.left_fwd,
                       fcands);
        mc_h264_luma(fwd_ref.luma(), lx, ly, fwd.mv, fbuf, 16, 16, 16,
                     dsp_);
    }
    if (want_bwd) {
        std::vector<MotionVector> bcands = cands;
        if (hint != nullptr)
            bcands.push_back(hint_full_pel(hint->bwd));
        bwd = estimate(src, bwd_anchor, lx, ly, 16, 16, rs.left_bwd,
                       bcands);
        mc_h264_luma(bwd_ref.luma(), lx, ly, bwd.mv, bbuf, 16, 16, 16,
                     dsp_);
    }

    int mode;
    int best_cost;
    if (want_fwd && want_bwd) {
        // The bi prediction is scored in place and built only if it
        // wins (below).
        const int bi_sad = dsp_.satd_avg_rect(src_luma.row(ly) + lx,
                                              src_luma.stride(), fbuf, 16,
                                              bbuf, 16, 16, 16);
        const int bi_cost =
            bi_sad +
            mv_rate_cost(fwd.mv, rs.left_fwd, me_.params().lambda16) +
            mv_rate_cost(bwd.mv, rs.left_bwd, me_.params().lambda16);

        mode = kBBi;
        best_cost = bi_cost;
        if (fwd.cost < best_cost) {
            mode = kBFwd;
            best_cost = fwd.cost;
        }
        if (bwd.cost < best_cost) {
            mode = kBBwd;
            best_cost = bwd.cost;
        }
    } else if (want_fwd) {
        mode = kBFwd;
        best_cost = fwd.cost;
    } else {
        mode = kBBwd;
        best_cost = bwd.cost;
    }
    if (intra_cost < best_cost) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    const MotionVector fmv = mode == kBBwd ? MotionVector{} : fwd.mv;
    const MotionVector bmv = mode == kBFwd ? MotionVector{} : bwd.mv;

    Pixel luma_pred[16 * 16], cb_pred[8 * 8], cr_pred[8 * 8];
    if (mode == kBFwd) {
        std::memcpy(luma_pred, fbuf, sizeof(fbuf));
        mc_h264_chroma(fwd_ref.cb(), mbx * 8, mby * 8, fmv, cb_pred, 8,
                       8, 8);
        mc_h264_chroma(fwd_ref.cr(), mbx * 8, mby * 8, fmv, cr_pred, 8,
                       8, 8);
    } else if (mode == kBBwd) {
        std::memcpy(luma_pred, bbuf, sizeof(bbuf));
        mc_h264_chroma(bwd_ref.cb(), mbx * 8, mby * 8, bmv, cb_pred, 8,
                       8, 8);
        mc_h264_chroma(bwd_ref.cr(), mbx * 8, mby * 8, bmv, cr_pred, 8,
                       8, 8);
    } else {
        dsp_.avg_rect(luma_pred, 16, fbuf, 16, bbuf, 16, 16, 16);
        Pixel fc[8 * 8], bc[8 * 8];
        mc_h264_chroma(fwd_ref.cb(), mbx * 8, mby * 8, fmv, fc, 8, 8, 8);
        mc_h264_chroma(bwd_ref.cb(), mbx * 8, mby * 8, bmv, bc, 8, 8, 8);
        dsp_.avg_rect(cb_pred, 8, fc, 8, bc, 8, 8, 8);
        mc_h264_chroma(fwd_ref.cr(), mbx * 8, mby * 8, fmv, fc, 8, 8, 8);
        mc_h264_chroma(bwd_ref.cr(), mbx * 8, mby * 8, bmv, bc, 8, 8, 8);
        dsp_.avg_rect(cr_pred, 8, fc, 8, bc, 8, 8, 8);
    }

    u16 nz_map = 0;
    const bool any = quantize_inter_residual(src, mbx, mby, luma_pred,
                                             cb_pred, cr_pred, rec,
                                             &nz_map);

    // B-skip: bi-prediction at (0,0) with zero residual.
    if (mode == kBBi && fmv == MotionVector{} && bmv == MotionVector{} &&
        !any) {
        rec.kind = MbRecord::kSkip;
        dsp_.copy_rect(recon_.luma().row(ly) + lx,
                       recon_.luma().stride(), luma_pred, 16, 16, 16);
        dsp_.copy_rect(recon_.cb().row(mby * 8) + mbx * 8,
                       recon_.cb().stride(), cb_pred, 8, 8, 8);
        dsp_.copy_rect(recon_.cr().row(mby * 8) + mbx * 8,
                       recon_.cr().stride(), cr_pred, 8, 8, 8);
        Partition part = kPartGeom[kPart16x16][0];
        fill_binfo(mbx, mby, false, 0, &part, 1, 0);
        rs.left_fwd = rs.left_bwd = MotionVector{};
        return;
    }

    rec.kind = MbRecord::kInterB;
    rec.b_mode = static_cast<u8>(mode);
    rec.fmv = fmv;
    rec.bmv = bmv;
    recon_inter_mb(mbx, mby, luma_pred, cb_pred, cr_pred, rec);
    Partition part = kPartGeom[kPart16x16][0];
    part.mv = mode == kBBwd ? bmv : fmv;
    fill_binfo(mbx, mby, false, 0, &part, 1, nz_map);
    rs.left_fwd = mode == kBBwd ? MotionVector{} : fmv;
    rs.left_bwd = mode == kBFwd ? MotionVector{} : bmv;
}

void
H264Encoder::write_mb(RangeEncoder &rc, WriteChains &wc,
                      const MbRecord &rec, PictureType type)
{
    const CodecConfig &cfg = config();

    if (type != PictureType::kI) {
        rc.encode_bit(ctx_models_.mb_skip,
                      rec.kind == MbRecord::kSkip ? 1 : 0);
        if (rec.kind == MbRecord::kSkip) {
            wc.left_fwd = wc.left_bwd = MotionVector{};
            return;
        }
        rc.encode_bit(ctx_models_.mb_intra,
                      rec.kind == MbRecord::kIntra ? 1 : 0);
    }

    if (rec.kind == MbRecord::kIntra) {
        rc.encode_bit(ctx_models_.intra4_flag, rec.use_i4 ? 1 : 0);
        if (rec.use_i4) {
            for (int b = 0; b < 16; ++b) {
                const int mode = rec.i4_modes[b];
                rc.encode_bit(ctx_models_.intra4_mode[0],
                              (mode >> 2) & 1);
                rc.encode_bit(ctx_models_.intra4_mode[1],
                              (mode >> 1) & 1);
                rc.encode_bit(ctx_models_.intra4_mode[2], mode & 1);
                encode_block4x4(rc, ctx_models_, rec.luma[b], 0, 0);
            }
        } else {
            rc.encode_bit(ctx_models_.intra16_mode[0],
                          (rec.i16_mode >> 1) & 1);
            rc.encode_bit(ctx_models_.intra16_mode[1],
                          rec.i16_mode & 1);
            encode_block4x4(rc, ctx_models_, rec.dc_levels, 0, 2);
            for (int b = 0; b < 16; ++b)
                encode_block4x4(rc, ctx_models_, rec.luma[b], 1, 0);
        }
        for (int c = 0; c < 2; ++c)
            for (int b = 0; b < 4; ++b)
                encode_block4x4(rc, ctx_models_, rec.chroma[c][b], 0, 1);
        wc.left_fwd = wc.left_bwd = MotionVector{};
        return;
    }

    if (rec.kind == MbRecord::kInterP) {
        rc.encode_bit(ctx_models_.part_mode[0], rec.part_mode >> 1);
        rc.encode_bit(ctx_models_.part_mode[1], rec.part_mode & 1);
        if (cfg.refs > 1) {
            encode_ref_idx(rc, ctx_models_, rec.ref,
                           clamp<int>(static_cast<int>(dpb_.size()), 1,
                                      cfg.refs));
        }
        MotionVector chain = rec.pred_mv;
        const int count = kPartCount[rec.part_mode];
        for (int p = 0; p < count; ++p) {
            encode_mvd(rc, ctx_models_, 0, rec.part_mv[p].x - chain.x);
            encode_mvd(rc, ctx_models_, 1, rec.part_mv[p].y - chain.y);
            chain = rec.part_mv[p];
        }
    } else {
        rc.encode_bit(ctx_models_.b_mode[0],
                      rec.b_mode == kBBi ? 0 : 1);
        if (rec.b_mode != kBBi)
            rc.encode_bit(ctx_models_.b_mode[1],
                          rec.b_mode == kBBwd ? 1 : 0);
        if (rec.b_mode != kBBwd) {
            encode_mvd(rc, ctx_models_, 0, rec.fmv.x - wc.left_fwd.x);
            encode_mvd(rc, ctx_models_, 1, rec.fmv.y - wc.left_fwd.y);
        }
        if (rec.b_mode != kBFwd) {
            encode_mvd(rc, ctx_models_, 0, rec.bmv.x - wc.left_bwd.x);
            encode_mvd(rc, ctx_models_, 1, rec.bmv.y - wc.left_bwd.y);
        }
        wc.left_fwd = rec.b_mode == kBBwd ? MotionVector{} : rec.fmv;
        wc.left_bwd = rec.b_mode == kBFwd ? MotionVector{} : rec.bmv;
    }

    for (int b = 0; b < 16; ++b)
        encode_block4x4(rc, ctx_models_, rec.luma[b], 0, 0);
    for (int c = 0; c < 2; ++c)
        for (int b = 0; b < 4; ++b)
            encode_block4x4(rc, ctx_models_, rec.chroma[c][b], 0, 1);
}

void
H264Encoder::analyze_picture(const Frame &src, PictureType type)
{
    if (pool_ == nullptr || mb_h_ < 2) {
        for (int mby = 0; mby < mb_h_; ++mby) {
            RowState rs{};
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                analyze_mb(rs, src, type, mbx, mby,
                           records_[mby * mb_w_ + mbx]);
        }
        return;
    }

    // Wavefront bands. MB (x, y) reads from row y-1: reconstructed
    // pixels for intra prediction (Intra16 planes reach x0+15, the
    // Intra4 down-left modes reach the above-right MB's first columns)
    // and mv_grid_ for the median predictor / ME candidates — all
    // within the above-right neighbour, so row y-1 must be done
    // through column x+1 first.
    WavefrontScheduler wf(mb_h_, mb_w_);
    parallel_for(*pool_, mb_h_, [&](int mby, int) {
        WavefrontRowGuard guard(wf, mby);
        RowState rs{};
        for (int mbx = 0; mbx < mb_w_; ++mbx) {
            wf.wait_above(mby, mbx);
            analyze_mb(rs, src, type, mbx, mby,
                       records_[mby * mb_w_ + mbx]);
            wf.publish(mby, mbx + 1);
        }
    });
}

std::vector<u8>
H264Encoder::encode_picture(const Frame &src, PictureType type)
{
    const CodecConfig &cfg = config();

    recon_ = new_frame(kRefBorder);
    binfo_.clear();
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    hint_pic_ = take_hints(src, type);
    analyze_picture(src, type);
    hint_pic_.reset();

    std::vector<u8> out;
    if (cfg.error_resilience) {
        // Plain-bit header segment (the range coder cannot resume after
        // damage, so the header must parse without it), escaped so it
        // cannot fake a resync marker.
        hbw_.clear();
        hbw_.put_bits(static_cast<u32>(type), 2);
        hbw_.put_bits(static_cast<u32>(cfg.qp), 6);
        hbw_.put_bit(cfg.deblock ? 1 : 0);
        hbw_.put_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
        hbw_.finish_into(&wbuf_);
        escape_emulation(wbuf_.data(), wbuf_.size(), &out);

        // Each MB row is an independently decodable range-coded chunk:
        // fresh coder state and fresh context models per row.
        for (int mby = 0; mby < mb_h_; ++mby) {
            rc_.reset();
            ctx_models_.reset();
            WriteChains wc;
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(rc_, wc, records_[mby * mb_w_ + mbx], type);
            rc_.encode_bypass_bits(kRowSentinel, 8);
            rc_.finish_into(&wbuf_);
            append_resync_marker(&out, mby);
            escape_emulation(wbuf_.data(), wbuf_.size(), &out);
        }
    } else {
        rc_.reset();
        ctx_models_.reset();
        rc_.encode_bypass_bits(static_cast<u32>(type), 2);
        rc_.encode_bypass_bits(static_cast<u32>(cfg.qp), 6);
        rc_.encode_bypass(cfg.deblock ? 1 : 0);
        rc_.encode_bypass_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
        for (int mby = 0; mby < mb_h_; ++mby) {
            WriteChains wc;
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(rc_, wc, records_[mby * mb_w_ + mbx], type);
        }
        rc_.finish_into(&out);
    }

    if (cfg.deblock)
        deblock_picture(&recon_, binfo_, cfg.qp, cfg.approx, dsp_);
    recon_.extend_borders();

    if (type != PictureType::kB) {
        for (size_t i = 0; i < mv_grid_.size(); ++i)
            anchor_mvs_[i] = {static_cast<s16>(mv_grid_[i].x >> 2),
                              static_cast<s16>(mv_grid_[i].y >> 2)};
        // P pictures read the newest refs anchors and B pictures the
        // newest two. Evict before building the newcomer's centre plane
        // so no more than that many references are ever held.
        const size_t max_dpb = static_cast<size_t>(clamp(cfg.refs, 2, 16));
        while (dpb_.size() >= max_dpb)
            dpb_.pop_front();
        Reference ref{std::move(recon_), new_plane(kRefBorder)};
        build_centre_plane(ref.frame.luma(), &ref.centre, dsp_,
                           pool_.get());
        dpb_.push_back(std::move(ref));
        last_recon_ = &dpb_.back().frame;
    } else {
        last_recon_ = &recon_;
    }
    return out;
}

}  // namespace

std::unique_ptr<VideoEncoder>
create_h264_encoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<H264Encoder>(config);
}

}  // namespace hdvb
