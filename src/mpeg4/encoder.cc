/**
 * @file
 * MPEG-4-ASP-class encoder: EPZS motion estimation, quarter-sample MC,
 * optional four-MV macroblocks, median MV prediction, 8x8 DCT with a
 * tuned dead zone.
 *
 * Structured as analysis (decisions + reconstruction, wavefront-
 * parallel across MB rows when CodecConfig::threads > 1) followed by a
 * serial entropy-coding replay of per-MB records, exactly like the
 * MPEG-2 encoder — see src/mpeg2/encoder.cc for the pipeline notes.
 * The replay emits the identical bit sequence for any thread count.
 */
#include "mpeg4/mpeg4.h"

#include <cstring>
#include <memory>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/resync.h"
#include "codec/mpeg_block.h"
#include "codec/run_level.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/wavefront.h"
#include "dsp/approx.h"
#include "dsp/quant.h"
#include "mc/mc.h"
#include "me/me.h"

namespace hdvb {

namespace {

using mpeg4::kDcPredReset;
using mpeg4::kDcStep;

/** Hint vector (quarter-sample) as a clamped-by-the-estimator
 * full-sample search candidate. */
inline MotionVector
hint_full_pel(MotionVector quarter)
{
    return {static_cast<s16>(quarter.x >> 2),
            static_cast<s16>(quarter.y >> 2)};
}

struct PredBuffers {
    Pixel luma[16 * 16];
    Pixel cb[8 * 8];
    Pixel cr[8 * 8];
};

/** Average of four quarter-sample MVs then halved for chroma, with
 * symmetric rounding — must match the decoder exactly. */
MotionVector
chroma_mv_from_4mv(const MotionVector mv[4])
{
    const int sx = mv[0].x + mv[1].x + mv[2].x + mv[3].x;
    const int sy = mv[0].y + mv[1].y + mv[2].y + mv[3].y;
    return {static_cast<s16>(div_round(sx, 8)),
            static_cast<s16>(div_round(sy, 8))};
}

class Mpeg4Encoder final : public EncoderBase
{
  public:
    explicit Mpeg4Encoder(const CodecConfig &cfg)
        : EncoderBase(cfg),
          dsp_(get_dsp(cfg.simd)),
          intra_quant_(kMpegIntraMatrix, cfg.qscale, 32),
          inter_quant_(kMpegInterMatrix, cfg.qscale, 10),
          intra_rl_(RunLevelCoder::get(RunLevelProfile::kMpeg4Intra)),
          inter_rl_(RunLevelCoder::get(RunLevelProfile::kMpeg4Inter)),
          me_(MeParams{cfg.me_range, cfg.qscale * 16, 2, &dsp_,
                       cfg.approx}),
          dead_zone_sad_(mpeg_dead_zone_sad(cfg.qscale, 3, cfg.approx)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          anchor_mvs_(static_cast<size_t>(mb_w_) * mb_h_),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          records_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return "mpeg4"; }

  protected:
    std::vector<u8> encode_picture(const Frame &src,
                                   PictureType type) override;

  private:
    /** Everything the serial write phase needs to replay one MB. */
    struct MbRecord {
        enum Kind : u8 { kIntra, kInter, kSkip };
        Kind kind = kIntra;
        u8 mode = 0;  ///< mpeg4 mode code (kPInter16/kPInter4v/kB*)
        u8 cbp = 0;
        bool four = false;
        bool use_fwd = false;
        bool use_bwd = false;
        MotionVector mv[4];  // quarter-sample; fwd (4MV uses all four)
        MotionVector bwd;
        MotionVector pred_p;  ///< P-picture median predictor for MVDs
        s16 dc[6] = {};
        Coeff levels[6][64] = {};
    };

    /** Analysis-side row-scoped predictor state (B-picture chains). */
    struct RowState {
        MotionVector left_fwd;  // quarter-sample
        MotionVector left_bwd;
    };

    /** Write-side row/picture-scoped predictor state. */
    struct WriteState {
        int dc_pred[3] = {kDcPredReset, kDcPredReset, kDcPredReset};
        MotionVector left_fwd;
        MotionVector left_bwd;
        int pending_skips = 0;

        void
        reset_row()
        {
            dc_pred[0] = dc_pred[1] = dc_pred[2] = kDcPredReset;
            left_fwd = left_bwd = MotionVector{};
        }
    };

    void analyze_picture(const Frame &src, PictureType type);
    void analyze_mb(RowState &rs, const Frame &src, PictureType type,
                    int mbx, int mby, MbRecord &rec);
    void analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                          int mby, MbRecord &rec);
    void analyze_inter_mb(RowState &rs, const Frame &src,
                          PictureType type, int mode,
                          const MotionVector *mv, MotionVector bwd,
                          int mbx, int mby, MbRecord &rec);
    void write_mb(BitWriter &bw, WriteState &ws, const MbRecord &rec,
                  PictureType type) const;

    /** Median MV predictor from the decoded-MV grid (P pictures). */
    MotionVector median_pred(int mbx, int mby) const;
    MeResult estimate(const Frame &src, const Frame &ref,
                      const Plane &centre, int x0, int y0, int size,
                      MotionVector pred_sub,
                      const std::vector<MotionVector> &cands) const;
    void predict_luma(const Frame &ref, int mbx, int mby,
                      const MotionVector *mv, bool four,
                      Pixel luma[16 * 16]) const;
    void predict_chroma(const Frame &ref, int mbx, int mby,
                        MotionVector cmv, Pixel cb[8 * 8],
                        Pixel cr[8 * 8]) const;
    void build_pred(const Frame &fwd_ref, const Frame *bwd_ref,
                    const MotionVector *fwd, bool four, MotionVector bwd,
                    int mbx, int mby, PredBuffers *pred) const;
    int intra_cost(const Frame &src, int mbx, int mby) const;
    std::vector<MotionVector> gather_candidates(int mbx, int mby) const;
    MotionVector quantize_mv(MotionVector mv) const;

    const Dsp &dsp_;
    MpegQuantizer intra_quant_;
    MpegQuantizer inter_quant_;
    const RunLevelCoder &intra_rl_;
    const RunLevelCoder &inter_rl_;
    MotionEstimator me_;
    /** approx >= 1: per-8x8 SAD below which the residual is coded as
     * all-zero without running fdct + quant (0 disables). */
    int dead_zone_sad_;
    int mb_w_;
    int mb_h_;

    Frame prev_anchor_;
    Frame last_anchor_;
    /** Centre half-sample planes of the two anchors, built once each
     * (see build_centre_plane) for the sub-sample searches. */
    Plane prev_centre_;
    Plane last_centre_;
    std::vector<MotionVector> anchor_mvs_;  ///< full-pel collocated
    std::vector<MotionVector> mv_grid_;     ///< quarter-pel, current
    Frame recon_;
    std::vector<MbRecord> records_;   ///< one per MB, raster order
    std::unique_ptr<ThreadPool> pool_;  ///< band pool (threads > 1)
    BitWriter bw_;           ///< persistent writer (capacity reuse)
    std::vector<u8> wbuf_;   ///< persistent finish_into() scratch

    /** Hints for the picture being analysed (read-only during the
     * wavefront phase), or null for full analysis. */
    std::shared_ptr<const PictureSideInfo> hint_pic_;

    const MbSideInfo *
    hint_mb(int mbx, int mby) const
    {
        return hint_pic_ ? &hint_pic_->at(mbx, mby) : nullptr;
    }
};

MotionVector
Mpeg4Encoder::quantize_mv(MotionVector mv) const
{
    if (config().qpel)
        return mv;
    // qpel disabled: restrict to half-sample positions (even values).
    return {static_cast<s16>(mv.x & ~1), static_cast<s16>(mv.y & ~1)};
}

MotionVector
Mpeg4Encoder::median_pred(int mbx, int mby) const
{
    const MotionVector zero{};
    const MotionVector a =
        mbx > 0 ? mv_grid_[mby * mb_w_ + mbx - 1] : zero;
    // Resilient rows must parse standalone: predict from the left
    // neighbour only, so a concealed row cannot skew the MVs of the
    // rows below it (the decoder mirrors this).
    if (mby == 0 || config().error_resilience)
        return a;
    const MotionVector b = mv_grid_[(mby - 1) * mb_w_ + mbx];
    const MotionVector c = mbx + 1 < mb_w_
                               ? mv_grid_[(mby - 1) * mb_w_ + mbx + 1]
                               : zero;
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

std::vector<MotionVector>
Mpeg4Encoder::gather_candidates(int mbx, int mby) const
{
    std::vector<MotionVector> cands;
    cands.reserve(4);
    const int idx = mby * mb_w_ + mbx;
    if (mbx > 0) {
        const MotionVector l = mv_grid_[idx - 1];
        cands.push_back({static_cast<s16>(l.x >> 2),
                         static_cast<s16>(l.y >> 2)});
    }
    if (mby > 0) {
        const MotionVector t = mv_grid_[idx - mb_w_];
        cands.push_back({static_cast<s16>(t.x >> 2),
                         static_cast<s16>(t.y >> 2)});
        if (mbx + 1 < mb_w_) {
            const MotionVector tr = mv_grid_[idx - mb_w_ + 1];
            cands.push_back({static_cast<s16>(tr.x >> 2),
                             static_cast<s16>(tr.y >> 2)});
        }
    }
    cands.push_back(anchor_mvs_[idx]);
    return cands;
}

MeResult
Mpeg4Encoder::estimate(const Frame &src, const Frame &ref,
                       const Plane &centre, int x0, int y0, int size,
                       MotionVector pred_sub,
                       const std::vector<MotionVector> &cands) const
{
    MeBlock blk;
    blk.cur = &src.luma();
    blk.ref = &ref.luma();
    blk.x0 = x0;
    blk.y0 = y0;
    blk.w = size;
    blk.h = size;
    const MeResult full = me_.epzs(blk, pred_sub, cands);
    const MotionVector start{static_cast<s16>(full.mv.x * 4),
                             static_cast<s16>(full.mv.y * 4)};
    const int approx = me_.params().approx;
    if (approx >= 1 && full.sad < me_.exit_threshold(blk)) {
        // Full-pel match already under the exit threshold: skip the
        // sub-sample refinement walk at this approximation level.
        MeResult r = full;
        r.mv = start;  // full-pel position, already qpel-legal
        return r;
    }
    // mc_qpel_tap's lattice, compared in place (see QpelSearchWindow).
    const QpelSearchWindow win(ref.luma(), centre, x0, y0, size, size,
                               start, dsp_);
    const auto view = [&](MotionVector mv, Pixel *scratch, int ss) {
        return win.predict(mv, scratch, ss);
    };
    // approx >= 2 drops the quarter-sample pass: half-sample steps
    // only, halving the candidates per refined block.
    MeResult res =
        config().qpel && approx < 2
            ? subpel_refine_views(blk, start, pred_sub, me_.params(),
                                  {2, 1}, /*use_satd=*/false, view)
            : subpel_refine_views(blk, start, pred_sub, me_.params(),
                                  {2}, /*use_satd=*/false, view);
    res.mv = quantize_mv(res.mv);
    return res;
}

void
Mpeg4Encoder::predict_luma(const Frame &ref, int mbx, int mby,
                           const MotionVector *mv, bool four,
                           Pixel luma[16 * 16]) const
{
    const int lx = mbx * 16;
    const int ly = mby * 16;
    if (!four) {
        mc_qpel_tap(ref.luma(), lx, ly, mv[0], luma, 16, 16, 16, dsp_);
        return;
    }
    for (int b = 0; b < 4; ++b) {
        const int bx = lx + (b & 1) * 8;
        const int by = ly + (b >> 1) * 8;
        mc_qpel_tap(ref.luma(), bx, by, mv[b],
                      luma + (b >> 1) * 8 * 16 + (b & 1) * 8, 16, 8, 8,
                      dsp_);
    }
}

void
Mpeg4Encoder::predict_chroma(const Frame &ref, int mbx, int mby,
                             MotionVector cmv, Pixel cb[8 * 8],
                             Pixel cr[8 * 8]) const
{
    const int cx = mbx * 8;
    const int cy = mby * 8;
    mc_qpel_bilin(ref.cb(), cx, cy, cmv, cb, 8, 8, 8, dsp_);
    mc_qpel_bilin(ref.cr(), cx, cy, cmv, cr, 8, 8, 8, dsp_);
}

void
Mpeg4Encoder::build_pred(const Frame &fwd_ref, const Frame *bwd_ref,
                         const MotionVector *fwd, bool four,
                         MotionVector bwd, int mbx, int mby,
                         PredBuffers *pred) const
{
    predict_luma(fwd_ref, mbx, mby, fwd, four, pred->luma);
    const MotionVector cmv = four ? chroma_mv_from_4mv(fwd)
                                  : chroma_mv_from_qpel(fwd[0]);
    predict_chroma(fwd_ref, mbx, mby, cmv, pred->cb, pred->cr);
    if (bwd_ref != nullptr) {
        PredBuffers back;
        const MotionVector bmv[4] = {bwd, bwd, bwd, bwd};
        predict_luma(*bwd_ref, mbx, mby, bmv, false, back.luma);
        predict_chroma(*bwd_ref, mbx, mby, chroma_mv_from_qpel(bwd),
                       back.cb, back.cr);
        dsp_.avg_rect(pred->luma, 16, pred->luma, 16, back.luma, 16, 16,
                      16);
        dsp_.avg_rect(pred->cb, 8, pred->cb, 8, back.cb, 8, 8, 8);
        dsp_.avg_rect(pred->cr, 8, pred->cr, 8, back.cr, 8, 8, 8);
    }
}

int
Mpeg4Encoder::intra_cost(const Frame &src, int mbx, int mby) const
{
    const Plane &luma = src.luma();
    int sum = 0;
    for (int y = 0; y < 16; ++y) {
        const Pixel *row = luma.row(mby * 16 + y) + mbx * 16;
        for (int x = 0; x < 16; ++x)
            sum += row[x];
    }
    const int mean = (sum + 128) >> 8;
    int dev = 0;
    for (int y = 0; y < 16; ++y) {
        const Pixel *row = luma.row(mby * 16 + y) + mbx * 16;
        for (int x = 0; x < 16; ++x) {
            const int d = row[x] - mean;
            dev += d < 0 ? -d : d;
        }
    }
    return dev + ((me_.params().lambda16 * 96) >> 4);
}

std::vector<u8>
Mpeg4Encoder::encode_picture(const Frame &src, PictureType type)
{
    const CodecConfig &cfg = config();
    recon_ = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    hint_pic_ = take_hints(src, type);
    analyze_picture(src, type);
    hint_pic_.reset();

    std::vector<u8> out;
    if (cfg.error_resilience) {
        // Resilient layout (see src/bitstream/resync.h): escaped
        // header, then per row a resync marker plus an escaped,
        // sentinel-terminated segment with row-scoped skip runs.
        bw_.clear();
        bw_.put_bits(static_cast<u32>(type), 2);
        bw_.put_bits(static_cast<u32>(cfg.qscale), 5);
        bw_.put_bit(cfg.qpel);
        bw_.put_bit(cfg.four_mv);
        bw_.put_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
        bw_.finish_into(&wbuf_);
        escape_emulation(wbuf_.data(), wbuf_.size(), &out);

        for (int mby = 0; mby < mb_h_; ++mby) {
            WriteState ws;
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(bw_, ws, records_[mby * mb_w_ + mbx], type);
            if (type != PictureType::kI && ws.pending_skips > 0)
                write_ue(bw_, static_cast<u32>(ws.pending_skips));
            bw_.put_bits(kRowSentinel, 8);
            bw_.finish_into(&wbuf_);
            append_resync_marker(&out, mby);
            escape_emulation(wbuf_.data(), wbuf_.size(), &out);
        }
    } else {
        bw_.clear();
        bw_.put_bits(static_cast<u32>(type), 2);
        bw_.put_bits(static_cast<u32>(cfg.qscale), 5);
        bw_.put_bit(cfg.qpel);
        bw_.put_bit(cfg.four_mv);
        bw_.put_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
        WriteState ws;
        for (int mby = 0; mby < mb_h_; ++mby) {
            ws.reset_row();
            for (int mbx = 0; mbx < mb_w_; ++mbx)
                write_mb(bw_, ws, records_[mby * mb_w_ + mbx], type);
        }
        if (type != PictureType::kI)
            write_ue(bw_, static_cast<u32>(ws.pending_skips));
        bw_.finish_into(&out);
    }

    recon_.extend_borders();
    if (type != PictureType::kB) {
        prev_anchor_ = std::move(last_anchor_);
        prev_centre_ = std::move(last_centre_);
        last_anchor_ = std::move(recon_);
        last_centre_ = new_plane(kRefBorder);
        build_centre_plane(last_anchor_.luma(), &last_centre_, dsp_,
                           pool_.get());
        for (size_t i = 0; i < mv_grid_.size(); ++i)
            anchor_mvs_[i] = {static_cast<s16>(mv_grid_[i].x >> 2),
                              static_cast<s16>(mv_grid_[i].y >> 2)};
    }
    return out;
}

void
Mpeg4Encoder::analyze_picture(const Frame &src, PictureType type)
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

    // Wavefront bands: MB (x, y) may read mv_grid_ above and
    // above-right (median predictor + ME candidates), so row y-1 must
    // be done through column x+1 first.
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

void
Mpeg4Encoder::analyze_mb(RowState &rs, const Frame &src,
                         PictureType type, int mbx, int mby,
                         MbRecord &rec)
{
    if (type == PictureType::kI) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    // Analysis-reuse hints (see src/codec/side_info.h): decode-side
    // intra goes straight to intra, a decode-side vector is seeded as
    // a search candidate and the intra trial plus the 4MV refinement
    // are pruned, and B MBs search only the hinted direction(s). Each
    // pruned branch keeps a legal fallback; a null hint runs the
    // original code path bit-for-bit.
    const MbSideInfo *hint = hint_mb(mbx, mby);
    if (hint != nullptr && hint->mode == MbSideInfo::kIntra) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    const int icost =
        hint != nullptr ? INT32_MAX : intra_cost(src, mbx, mby);

    if (type == PictureType::kP) {
        const MotionVector pred = median_pred(mbx, mby);
        std::vector<MotionVector> cands = gather_candidates(mbx, mby);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->fwd));
        const MeResult r16 = estimate(src, last_anchor_, last_centre_,
                                      mbx * 16, mby * 16, 16, pred,
                                      cands);

        MotionVector mv[4] = {r16.mv, r16.mv, r16.mv, r16.mv};
        bool four = false;
        // The hint is a 16x16 seed, so trust it and skip the 4MV
        // split trial (the decoder's 4MV collapses to one vector).
        // approx >= 2 also prunes the trial — four separate 8x8
        // searches plus refinements for a rate win the coarse
        // quantiser rarely cashes in — unless the 16x16 match is bad.
        const bool try_four_mv =
            config().four_mv && hint == nullptr &&
            (me_.params().approx < 2 ||
             r16.sad >= (256 << me_.params().approx) * 4);
        if (try_four_mv) {
            // 4MV: refine each 8x8 quadrant; adopt if the summed cost
            // beats 16x16 plus the extra vector overhead.
            MeResult sub[4];
            int cost4 = (me_.params().lambda16 * 40) >> 4;
            std::vector<MotionVector> c8 = cands;
            c8.push_back({static_cast<s16>(r16.mv.x >> 2),
                          static_cast<s16>(r16.mv.y >> 2)});
            for (int b = 0; b < 4; ++b) {
                sub[b] = estimate(src, last_anchor_, last_centre_,
                                  mbx * 16 + (b & 1) * 8,
                                  mby * 16 + (b >> 1) * 8, 8, pred, c8);
                cost4 += sub[b].cost;
            }
            if (cost4 < r16.cost) {
                four = true;
                for (int b = 0; b < 4; ++b)
                    mv[b] = sub[b].mv;
            }
        }

        const int inter_cost = four ? 0 : r16.cost;  // four => chosen
        if (!four && icost < inter_cost) {
            analyze_intra_mb(rs, src, mbx, mby, rec);
            return;
        }
        analyze_inter_mb(rs, src, type,
                         four ? mpeg4::kPInter4v : mpeg4::kPInter16, mv,
                         {}, mbx, mby, rec);
        return;
    }

    // B picture: a single-direction hint prunes the opposite estimate
    // and the bi-prediction build.
    const bool want_fwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterBwd;
    const bool want_bwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterFwd;

    MeResult fwd;
    MeResult bwd;
    if (want_fwd) {
        std::vector<MotionVector> cands = gather_candidates(mbx, mby);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->fwd));
        fwd = estimate(src, prev_anchor_, prev_centre_, mbx * 16,
                       mby * 16, 16, rs.left_fwd, cands);
    }
    if (want_bwd) {
        std::vector<MotionVector> cands = gather_candidates(mbx, mby);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->bwd));
        bwd = estimate(src, last_anchor_, last_centre_, mbx * 16,
                       mby * 16, 16, rs.left_bwd, cands);
    }

    int best;
    int best_cost;
    if (want_fwd && want_bwd) {
        PredBuffers bi;
        const MotionVector fmv[4] = {fwd.mv, fwd.mv, fwd.mv, fwd.mv};
        build_pred(prev_anchor_, &last_anchor_, fmv, false, bwd.mv, mbx,
                   mby, &bi);
        const Plane &luma = src.luma();
        const int bi_sad = dsp_.sad16x16(luma.row(mby * 16) + mbx * 16,
                                         luma.stride(), bi.luma, 16);
        const int bi_cost =
            bi_sad +
            mv_rate_cost(fwd.mv, rs.left_fwd, me_.params().lambda16) +
            mv_rate_cost(bwd.mv, rs.left_bwd, me_.params().lambda16);

        best = mpeg4::kBBi;
        best_cost = bi_cost;
        if (fwd.cost < best_cost) {
            best = mpeg4::kBFwd;
            best_cost = fwd.cost;
        }
        if (bwd.cost < best_cost) {
            best = mpeg4::kBBwd;
            best_cost = bwd.cost;
        }
    } else if (want_fwd) {
        best = mpeg4::kBFwd;
        best_cost = fwd.cost;
    } else {
        best = mpeg4::kBBwd;
        best_cost = bwd.cost;
    }
    if (icost < best_cost) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    const MotionVector bmv[4] = {fwd.mv, fwd.mv, fwd.mv, fwd.mv};
    analyze_inter_mb(rs, src, type, best, bmv, bwd.mv, mbx, mby, rec);
}

void
Mpeg4Encoder::analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                               int mby, MbRecord &rec)
{
    rec.kind = MbRecord::kIntra;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    for (int b = 0; b < 6; ++b) {
        const int comp = b < 4 ? 0 : b - 3;
        const Plane &src_plane = src.plane(comp);
        Plane &rec_plane = recon_.plane(comp);
        const int x = b < 4 ? lx + (b & 1) * 8 : mbx * 8;
        const int y = b < 4 ? ly + (b >> 1) * 8 : mby * 8;

        Coeff *blk = rec.levels[b];
        for (int yy = 0; yy < 8; ++yy) {
            const Pixel *row = src_plane.row(y + yy) + x;
            for (int xx = 0; xx < 8; ++xx)
                blk[yy * 8 + xx] = row[xx];
        }
        dsp_.fdct8x8(blk);
        const int dc_level = clamp(div_round(blk[0], kDcStep), 0, 255);
        blk[0] = 0;
        intra_quant_.quantize(blk);
        rec.dc[b] = static_cast<s16>(dc_level);

        Pixel *dst = rec_plane.row(y) + x;
        zero_block8(dst, rec_plane.stride());
        mpeg_recon_block(blk, intra_quant_, dc_level * kDcStep, dst,
                         rec_plane.stride(), dsp_);
    }
    rs.left_fwd = rs.left_bwd = MotionVector{};
    mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
}

void
Mpeg4Encoder::analyze_inter_mb(RowState &rs, const Frame &src,
                               PictureType type, int mode,
                               const MotionVector *mv, MotionVector bwd,
                               int mbx, int mby, MbRecord &rec)
{
    const bool is_b = type == PictureType::kB;
    const bool four = !is_b && mode == mpeg4::kPInter4v;
    bool use_fwd = true;
    bool use_bwd = false;
    MotionVector fwd = mv[0];
    if (is_b) {
        use_fwd = mode == mpeg4::kBFwd || mode == mpeg4::kBBi;
        use_bwd = mode == mpeg4::kBBwd || mode == mpeg4::kBBi;
        if (!use_fwd)
            fwd = {};
        if (!use_bwd)
            bwd = {};
    }

    PredBuffers pred;
    if (is_b) {
        if (!use_fwd) {
            const MotionVector bmv[4] = {bwd, bwd, bwd, bwd};
            build_pred(last_anchor_, nullptr, bmv, false, {}, mbx, mby,
                       &pred);
        } else {
            const MotionVector fmv[4] = {fwd, fwd, fwd, fwd};
            build_pred(prev_anchor_, use_bwd ? &last_anchor_ : nullptr,
                       fmv, false, bwd, mbx, mby, &pred);
        }
    } else {
        build_pred(last_anchor_, nullptr, mv, four, {}, mbx, mby,
                   &pred);
    }

    int cbp = 0;
    const int lx = mbx * 16;
    const int ly = mby * 16;
    for (int b = 0; b < 6; ++b) {
        const int comp = b < 4 ? 0 : b - 3;
        const Plane &src_plane = src.plane(comp);
        const int x = b < 4 ? lx + (b & 1) * 8 : mbx * 8;
        const int y = b < 4 ? ly + (b >> 1) * 8 : mby * 8;
        const Pixel *pp;
        int ps;
        if (b < 4) {
            pp = pred.luma + (b >> 1) * 8 * 16 + (b & 1) * 8;
            ps = 16;
        } else {
            pp = b == 4 ? pred.cb : pred.cr;
            ps = 8;
        }
        if (dead_zone_sad_ > 0 &&
            dsp_.sad_rect(src_plane.row(y) + x, src_plane.stride(), pp,
                          ps, 8, 8) < dead_zone_sad_) {
            // Near-zero residual: skip fdct + quant, leave the cbp bit
            // clear (recon = prediction, as for any all-zero block).
            continue;
        }
        dsp_.sub_rect(rec.levels[b], 8, src_plane.row(y) + x,
                      src_plane.stride(), pp, ps, 8, 8);
        if (me_.params().approx >= 3)
            fdct8x8_low4(rec.levels[b]);
        else
            dsp_.fdct8x8(rec.levels[b]);
        if (inter_quant_.quantize(rec.levels[b]) != 0)
            cbp |= 1 << b;
    }

    const bool skippable =
        cbp == 0 && !four &&
        (is_b ? (mode == mpeg4::kBBi && fwd == MotionVector{} &&
                 bwd == MotionVector{})
              : fwd == MotionVector{});
    if (skippable) {
        rec.kind = MbRecord::kSkip;
        rs.left_fwd = rs.left_bwd = MotionVector{};
        mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
    } else {
        rec.kind = MbRecord::kInter;
        rec.mode = static_cast<u8>(mode);
        rec.cbp = static_cast<u8>(cbp);
        rec.four = four;
        rec.use_fwd = use_fwd;
        rec.use_bwd = use_bwd;
        for (int b = 0; b < 4; ++b)
            rec.mv[b] = is_b ? (b == 0 ? fwd : MotionVector{}) : mv[b];
        rec.bwd = bwd;
        if (is_b) {
            rs.left_fwd = use_fwd ? fwd : MotionVector{};
            rs.left_bwd = use_bwd ? bwd : MotionVector{};
        } else {
            // Recorded at the same sequence point the serial encoder
            // evaluated it: after the left MB's mv_grid_ update,
            // before this MB's own.
            rec.pred_p = median_pred(mbx, mby);
            mv_grid_[mby * mb_w_ + mbx] = mv[0];
        }
    }

    for (int b = 0; b < 6; ++b) {
        const int comp = b < 4 ? 0 : b - 3;
        Plane &rec_plane = recon_.plane(comp);
        const int x = b < 4 ? lx + (b & 1) * 8 : mbx * 8;
        const int y = b < 4 ? ly + (b >> 1) * 8 : mby * 8;
        const Pixel *pp;
        int ps;
        if (b < 4) {
            pp = pred.luma + (b >> 1) * 8 * 16 + (b & 1) * 8;
            ps = 16;
        } else {
            pp = b == 4 ? pred.cb : pred.cr;
            ps = 8;
        }
        Pixel *dst = rec_plane.row(y) + x;
        dsp_.copy_rect(dst, rec_plane.stride(), pp, ps, 8, 8);
        if (cbp & (1 << b)) {
            mpeg_recon_block(rec.levels[b], inter_quant_, -1, dst,
                             rec_plane.stride(), dsp_);
        }
    }
}

void
Mpeg4Encoder::write_mb(BitWriter &bw, WriteState &ws,
                       const MbRecord &rec, PictureType type) const
{
    const bool is_b = type == PictureType::kB;

    if (rec.kind == MbRecord::kSkip) {
        ++ws.pending_skips;
        ws.left_fwd = ws.left_bwd = MotionVector{};
        ws.dc_pred[0] = ws.dc_pred[1] = ws.dc_pred[2] = kDcPredReset;
        return;
    }

    if (rec.kind == MbRecord::kIntra) {
        if (type != PictureType::kI) {
            write_ue(bw, static_cast<u32>(ws.pending_skips));
            ws.pending_skips = 0;
            write_ue(bw, is_b ? static_cast<u32>(mpeg4::kBIntra)
                              : static_cast<u32>(mpeg4::kPIntra));
        }
        for (int b = 0; b < 6; ++b) {
            const int comp = b < 4 ? 0 : b - 3;
            write_se(bw, rec.dc[b] - ws.dc_pred[comp]);
            ws.dc_pred[comp] = rec.dc[b];
            intra_rl_.encode_block(bw, rec.levels[b], 1);
        }
        ws.left_fwd = ws.left_bwd = MotionVector{};
        return;
    }

    write_ue(bw, static_cast<u32>(ws.pending_skips));
    ws.pending_skips = 0;
    write_ue(bw, static_cast<u32>(rec.mode));
    if (is_b) {
        if (rec.use_fwd) {
            write_se(bw, rec.mv[0].x - ws.left_fwd.x);
            write_se(bw, rec.mv[0].y - ws.left_fwd.y);
        }
        if (rec.use_bwd) {
            write_se(bw, rec.bwd.x - ws.left_bwd.x);
            write_se(bw, rec.bwd.y - ws.left_bwd.y);
        }
        ws.left_fwd = rec.use_fwd ? rec.mv[0] : MotionVector{};
        ws.left_bwd = rec.use_bwd ? rec.bwd : MotionVector{};
    } else {
        const int count = rec.four ? 4 : 1;
        for (int b = 0; b < count; ++b) {
            write_se(bw, rec.mv[b].x - rec.pred_p.x);
            write_se(bw, rec.mv[b].y - rec.pred_p.y);
        }
    }
    bw.put_bits(rec.cbp, 6);
    for (int b = 0; b < 6; ++b) {
        if (rec.cbp & (1 << b))
            inter_rl_.encode_block(bw, rec.levels[b], 0);
    }
    ws.dc_pred[0] = ws.dc_pred[1] = ws.dc_pred[2] = kDcPredReset;
}

}  // namespace

std::unique_ptr<VideoEncoder>
create_mpeg4_encoder(const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<Mpeg4Encoder>(config);
}

}  // namespace hdvb
