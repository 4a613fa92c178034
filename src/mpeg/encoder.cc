/**
 * @file
 * MPEG-class encoder: EPZS motion estimation, sub-sample refinement,
 * 8x8 DCT with the MPEG weighting matrices, run/level VLC entropy
 * coding; the codec's MpegSyntax selects the tools.
 *
 * Encoding is a two-phase pipeline so CodecConfig::threads can
 * parallelise the expensive part without touching a single emitted bit:
 * an analysis phase makes every decision (ME, mode, quantised levels,
 * reconstruction) into per-MB records — wavefront-ordered across MB
 * rows when a thread pool is configured — and a serial write phase
 * replays the records through the entropy coder in raster order. The
 * same two phases run back-to-back on the caller's thread when
 * threads == 1, so the bitstream is byte-identical for any thread
 * count.
 */
#include <memory>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/resync.h"
#include "codec/run_level.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/wavefront.h"
#include "dsp/approx.h"
#include "me/me.h"
#include "mpeg/macroblock.h"

namespace hdvb {

namespace {

using namespace hdvb::mpeg;

class MpegEncoder final : public EncoderBase
{
  public:
    MpegEncoder(const MpegSyntax &syntax, const CodecConfig &cfg)
        : EncoderBase(cfg),
          syntax_(syntax),
          dsp_(get_dsp(cfg.simd)),
          quant_(syntax, cfg.qscale, dsp_),
          intra_rl_(RunLevelCoder::get(syntax.intra_rl)),
          inter_rl_(RunLevelCoder::get(syntax.inter_rl)),
          me_(MeParams{cfg.me_range, cfg.qscale * 16, syntax.mv_shift,
                       &dsp_, cfg.approx}),
          dead_zone_sad_(mpeg_dead_zone_sad(
              cfg.qscale, syntax.quant_step_shift, cfg.approx)),
          four_mv_(syntax.four_mv && cfg.four_mv),
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

    const char *name() const override { return syntax_.name; }

  protected:
    std::vector<u8> encode_picture(const Frame &src,
                                   PictureType type) override;

  private:
    /** Everything the serial write phase needs to replay one MB. */
    struct MbRecord {
        enum Kind : u8 { kIntra, kInter, kSkip };
        Kind kind = kIntra;
        u8 b_mode = 0;  ///< B pictures: BMode
        u8 cbp = 0;
        MbMotion motion;
        MotionVector pred_p;  ///< P pictures: vector predictor
        s16 dc[6] = {};            ///< intra DC levels (absolute)
        alignas(32) Coeff levels[6][64] = {};  ///< quantised levels
    };

    /** Analysis-side row-scoped vector chains. */
    struct RowState {
        MotionVector left_fwd;
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

    void write_header(const Frame &src, PictureType type);
    void analyze_picture(const Frame &src, PictureType type);
    void analyze_mb(RowState &rs, const Frame &src, PictureType type,
                    int mbx, int mby, MbRecord &rec);
    void analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                          int mby, MbRecord &rec);
    void analyze_inter_mb(RowState &rs, const Frame &src,
                          PictureType type, int b_mode,
                          const MbMotion &motion, MotionVector pred_p,
                          int mbx, int mby, MbRecord &rec);
    void write_mb(BitWriter &bw, WriteState &ws, const MbRecord &rec,
                  PictureType type) const;

    MeResult estimate(const Frame &src, const Frame &ref,
                      const Plane &centre, int x0, int y0, int size,
                      MotionVector pred_sub,
                      const std::vector<MotionVector> &cands) const;
    int intra_cost(const Frame &src, int mbx, int mby) const;
    std::vector<MotionVector> gather_candidates(const RowState &rs,
                                                int mbx, int mby,
                                                bool backward) const;

    /** @p mv in full samples (toward minus infinity). */
    MotionVector
    full_pel(MotionVector mv) const
    {
        return {static_cast<s16>(mv.x >> syntax_.mv_shift),
                static_cast<s16>(mv.y >> syntax_.mv_shift)};
    }

    const MpegSyntax &syntax_;
    const Dsp &dsp_;
    const Quantizers quant_;
    const RunLevelCoder &intra_rl_;
    const RunLevelCoder &inter_rl_;
    MotionEstimator me_;
    /** approx >= 1: per-8x8 SAD below which the residual is coded as
     * all-zero without running fdct + quant (0 disables). */
    int dead_zone_sad_;
    bool four_mv_;  ///< 4MV trials on (syntax and config allow it)
    int mb_w_;
    int mb_h_;

    Frame prev_anchor_;  ///< forward reference for B pictures
    Frame last_anchor_;  ///< forward ref for P, backward ref for B
    /** Centre half-sample planes of the two anchors, built once each
     * (see build_centre_plane) for quarter-sample searches. */
    Plane prev_centre_;
    Plane last_centre_;
    std::vector<MotionVector> anchor_mvs_;  ///< full-pel, last anchor
    /** The current picture's vectors (see MpegMeSeeds for which). */
    std::vector<MotionVector> mv_grid_;
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

void
MpegEncoder::write_header(const Frame &src, PictureType type)
{
    const CodecConfig &cfg = config();
    bw_.put_bits(static_cast<u32>(type), 2);
    bw_.put_bits(static_cast<u32>(cfg.qscale), 5);
    if (syntax_.header_tool_flags) {
        bw_.put_bit(cfg.qpel);
        bw_.put_bit(cfg.four_mv);
    }
    bw_.put_bits(static_cast<u32>(src.poc() & 0xFFFF), 16);
}

std::vector<u8>
MpegEncoder::encode_picture(const Frame &src, PictureType type)
{
    recon_ = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    hint_pic_ = take_hints(src, type);
    analyze_picture(src, type);
    hint_pic_.reset();

    std::vector<u8> out;
    bw_.clear();
    write_header(src, type);
    if (config().error_resilience) {
        // Resilient layout (see src/bitstream/resync.h): escaped
        // header, then per row a resync marker plus an escaped,
        // sentinel-terminated segment with row-scoped skip runs, so
        // each segment parses standalone.
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
        last_anchor_ = std::move(recon_);
        if (syntax_.mv_shift == 2) {
            prev_centre_ = std::move(last_centre_);
            last_centre_ = new_plane(kRefBorder);
            build_centre_plane(last_anchor_.luma(), &last_centre_, dsp_,
                               pool_.get());
        }
        for (size_t i = 0; i < mv_grid_.size(); ++i)
            anchor_mvs_[i] = full_pel(mv_grid_[i]);
    }
    return out;
}

void
MpegEncoder::analyze_picture(const Frame &src, PictureType type)
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

    // One band per MB row, wavefront-ordered: before MB (x, y) runs,
    // row y-1 must be done through column x+1 (its above-right
    // neighbour), which covers every cross-row read — the mv_grid_
    // predictor and candidates. Row-local chains live in RowState, so
    // bands share no mutable state beyond the published per-MB
    // results.
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

std::vector<MotionVector>
MpegEncoder::gather_candidates(const RowState &rs, int mbx, int mby,
                               bool backward) const
{
    std::vector<MotionVector> cands;
    cands.reserve(4);
    const int idx = mby * mb_w_ + mbx;
    if (syntax_.me_seeds == MpegMeSeeds::kRowChain)
        cands.push_back(full_pel(backward ? rs.left_bwd : rs.left_fwd));
    else if (mbx > 0)
        cands.push_back(full_pel(mv_grid_[idx - 1]));
    if (mby > 0) {
        cands.push_back(full_pel(mv_grid_[idx - mb_w_]));
        if (mbx + 1 < mb_w_)
            cands.push_back(full_pel(mv_grid_[idx - mb_w_ + 1]));
    }
    cands.push_back(anchor_mvs_[idx]);  // collocated (temporal)
    return cands;
}

MeResult
MpegEncoder::estimate(const Frame &src, const Frame &ref,
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
    const MotionVector start{
        static_cast<s16>(full.mv.x * (1 << syntax_.mv_shift)),
        static_cast<s16>(full.mv.y * (1 << syntax_.mv_shift))};
    const int approx = me_.params().approx;
    if (approx >= 1 && full.sad < me_.exit_threshold(blk)) {
        // The full-pel match is already under the exit threshold:
        // sub-sample refinement cannot buy enough to matter at this
        // approximation level.
        MeResult r = full;
        r.mv = start;
        return r;
    }
    // Candidates are compared in place, averaged ones by the fused
    // kernels: mc_halfpel's positions in the reference itself, or
    // mc_qpel_tap's lattice (see QpelSearchWindow).
    if (syntax_.mv_shift == 1) {
        return subpel_refine_views(
            blk, start, pred_sub, me_.params(), {1}, /*use_satd=*/false,
            [&](MotionVector mv) {
                return halfpel_candidate(ref.luma(), x0, y0, mv);
            });
    }
    const QpelSearchWindow win(ref.luma(), centre, x0, y0, size, size,
                               start, dsp_);
    const auto view = [&](MotionVector mv) { return win.candidate(mv); };
    // Half-sample steps only without qpel, and at approx >= 2, which
    // halves the candidates per refined block.
    return config().qpel && approx < 2
               ? subpel_refine_views(blk, start, pred_sub, me_.params(),
                                     {2, 1}, /*use_satd=*/false, view)
               : subpel_refine_views(blk, start, pred_sub, me_.params(),
                                     {2}, /*use_satd=*/false, view);
}

int
MpegEncoder::intra_cost(const Frame &src, int mbx, int mby) const
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
    // Rough intra rate surcharge keeps intra from winning on noise.
    return dev + ((me_.params().lambda16 * 96) >> 4);
}

void
MpegEncoder::analyze_mb(RowState &rs, const Frame &src, PictureType type,
                        int mbx, int mby, MbRecord &rec)
{
    if (type == PictureType::kI) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }

    // Analysis-reuse hints (see src/codec/side_info.h): decode-side
    // intra goes straight to intra, a decode-side vector is seeded as
    // a search candidate and the intra trial plus the 4MV trial are
    // pruned, and B MBs search only the hinted direction(s). Each
    // pruned branch keeps a legal fallback, so hints never make the
    // stream undecodable — only cheaper to produce; a null hint runs
    // the full analysis.
    const MbSideInfo *hint = hint_mb(mbx, mby);
    if (hint != nullptr && hint->mode == MbSideInfo::kIntra) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    const int icost =
        hint != nullptr ? INT32_MAX : intra_cost(src, mbx, mby);
    const MeParams &mp = me_.params();

    if (type == PictureType::kP) {
        const MotionVector pred =
            p_mv_pred(syntax_, config().error_resilience, mv_grid_,
                      mb_w_, mbx, mby);
        std::vector<MotionVector> cands =
            gather_candidates(rs, mbx, mby, false);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->fwd));
        const MeResult r16 = estimate(src, last_anchor_, last_centre_,
                                      mbx * 16, mby * 16, 16, pred,
                                      cands);

        MbMotion motion;
        for (MotionVector &mv : motion.fwd)
            mv = r16.mv;
        // The hint is a 16x16 seed, so trust it and skip the 4MV
        // split trial (the decoder's 4MV collapses to one vector).
        // approx >= 2 also prunes the trial — four separate 8x8
        // searches plus refinements for a rate win the coarse
        // quantiser rarely cashes in — unless the 16x16 match is bad.
        const bool try_four_mv =
            four_mv_ && hint == nullptr &&
            (mp.approx < 2 || r16.sad >= (256 << mp.approx) * 4);
        if (try_four_mv) {
            // 4MV: refine each 8x8 quadrant; adopt if the summed cost
            // beats 16x16 plus the extra vector overhead.
            MeResult sub[4];
            int cost4 = (mp.lambda16 * 40) >> 4;
            std::vector<MotionVector> c8 = cands;
            c8.push_back(full_pel(r16.mv));
            for (int b = 0; b < 4; ++b) {
                sub[b] = estimate(src, last_anchor_, last_centre_,
                                  mbx * 16 + (b & 1) * 8,
                                  mby * 16 + (b >> 1) * 8, 8, pred, c8);
                cost4 += sub[b].cost;
            }
            if (cost4 < r16.cost) {
                motion.four = true;
                for (int b = 0; b < 4; ++b)
                    motion.fwd[b] = sub[b].mv;
            }
        }

        if (!motion.four && icost < r16.cost) {
            analyze_intra_mb(rs, src, mbx, mby, rec);
            return;
        }
        analyze_inter_mb(rs, src, type, 0, motion, pred, mbx, mby, rec);
        return;
    }

    // B picture: forward / backward / bi / intra decision. A
    // single-direction hint prunes the opposite estimate and the
    // bi-prediction build.
    const bool want_fwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterBwd;
    const bool want_bwd =
        hint == nullptr || hint->mode != MbSideInfo::kInterFwd;

    MeResult fwd;
    MeResult bwd;
    if (want_fwd) {
        std::vector<MotionVector> cands =
            gather_candidates(rs, mbx, mby, false);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->fwd));
        fwd = estimate(src, prev_anchor_, prev_centre_, mbx * 16,
                       mby * 16, 16, rs.left_fwd, cands);
    }
    if (want_bwd) {
        std::vector<MotionVector> cands =
            gather_candidates(rs, mbx, mby, true);
        if (hint != nullptr)
            cands.push_back(hint_full_pel(hint->bwd));
        bwd = estimate(src, last_anchor_, last_centre_, mbx * 16,
                       mby * 16, 16, rs.left_bwd, cands);
    }

    int best;
    int best_cost;
    if (want_fwd && want_bwd) {
        // Score the average of the two one-direction luma predictions
        // in place; the bi prediction itself (chroma too) is built
        // only if bi wins.
        alignas(32) Pixel fwd_luma[16 * 16];
        alignas(32) Pixel bwd_luma[16 * 16];
        predict_luma16(syntax_, dsp_, prev_anchor_, fwd.mv, mbx, mby,
                       fwd_luma);
        predict_luma16(syntax_, dsp_, last_anchor_, bwd.mv, mbx, mby,
                       bwd_luma);
        const Plane &luma = src.luma();
        const int bi_sad = dsp_.sad_avg_rect(
            luma.row(mby * 16) + mbx * 16, luma.stride(), fwd_luma, 16,
            bwd_luma, 16, 16, 16);
        const int bi_cost = bi_sad +
                            mv_rate_cost(fwd.mv, rs.left_fwd, mp.lambda16) +
                            mv_rate_cost(bwd.mv, rs.left_bwd, mp.lambda16);

        best = kBBi;
        best_cost = bi_cost;
        if (fwd.cost < best_cost) {
            best = kBFwd;
            best_cost = fwd.cost;
        }
        if (bwd.cost < best_cost) {
            best = kBBwd;
            best_cost = bwd.cost;
        }
    } else if (want_fwd) {
        best = kBFwd;
        best_cost = fwd.cost;
    } else {
        best = kBBwd;
        best_cost = bwd.cost;
    }
    if (icost < best_cost) {
        analyze_intra_mb(rs, src, mbx, mby, rec);
        return;
    }
    MbMotion motion;
    motion.use_fwd = best == kBFwd || best == kBBi;
    motion.use_bwd = best == kBBwd || best == kBBi;
    if (motion.use_fwd)
        motion.fwd[0] = fwd.mv;
    if (motion.use_bwd)
        motion.bwd = bwd.mv;
    analyze_inter_mb(rs, src, type, best, motion, {}, mbx, mby, rec);
}

void
MpegEncoder::analyze_intra_mb(RowState &rs, const Frame &src, int mbx,
                              int mby, MbRecord &rec)
{
    rec.kind = MbRecord::kIntra;
    for (int b = 0; b < 6; ++b) {
        const Plane &src_plane = src.plane(block_plane(b));
        Plane &rec_plane = recon_.plane(block_plane(b));
        int x, y;
        block_origin(b, mbx, mby, &x, &y);

        Coeff *blk = rec.levels[b];
        for (int yy = 0; yy < 8; ++yy) {
            const Pixel *row = src_plane.row(y + yy) + x;
            for (int xx = 0; xx < 8; ++xx)
                blk[yy * 8 + xx] = row[xx];
        }
        dsp_.fdct8x8(blk);
        const int dc_level = clamp(div_round(blk[0], kDcStep), 0, 255);
        blk[0] = 0;
        quant_.intra.quantize(blk);
        rec.dc[b] = static_cast<s16>(dc_level);

        Pixel *dst = rec_plane.row(y) + x;
        zero_block8(dst, rec_plane.stride());
        mpeg_recon_block(blk, quant_.intra, dc_level * kDcStep, dst,
                         rec_plane.stride(), dsp_);
    }
    // Intra interrupts the vector prediction chains.
    rs.left_fwd = rs.left_bwd = MotionVector{};
    mv_grid_[mby * mb_w_ + mbx] = MotionVector{};
}

void
MpegEncoder::analyze_inter_mb(RowState &rs, const Frame &src,
                              PictureType type, int b_mode,
                              const MbMotion &motion,
                              MotionVector pred_p, int mbx, int mby,
                              MbRecord &rec)
{
    const bool is_b = type == PictureType::kB;
    PredBuffers pred;
    predict_mb(syntax_, dsp_, prev_anchor_, last_anchor_, type, motion,
               mbx, mby, &pred);

    // Transform/quantise the six residual blocks.
    int cbp = 0;
    for (int b = 0; b < 6; ++b) {
        const Plane &src_plane = src.plane(block_plane(b));
        int x, y, ps;
        block_origin(b, mbx, mby, &x, &y);
        const Pixel *pp = pred.block(b, &ps);
        if (dead_zone_sad_ > 0 &&
            dsp_.sad_rect(src_plane.row(y) + x, src_plane.stride(), pp,
                          ps, 8, 8) < dead_zone_sad_) {
            // Near-zero residual: the quantiser would have flattened
            // it anyway; code the block as all-zero without running
            // fdct + quant (cbp bit stays clear, recon = prediction).
            continue;
        }
        dsp_.sub_rect(rec.levels[b], 8, src_plane.row(y) + x,
                      src_plane.stride(), pp, ps, 8, 8);
        if (me_.params().approx >= 3)
            fdct8x8_low4(rec.levels[b]);
        else
            dsp_.fdct8x8(rec.levels[b]);
        if (quant_.inter.quantize(rec.levels[b]) != 0)
            cbp |= 1 << b;
    }

    // Skip decision (must match the decoder's skip semantics):
    // P-skip copies the forward reference at (0,0); B-skip is
    // bi-prediction at (0,0).
    const MotionVector fwd = motion.fwd[0];
    const bool skippable =
        cbp == 0 && !motion.four &&
        (is_b ? (b_mode == kBBi && fwd == MotionVector{} &&
                 motion.bwd == MotionVector{})
              : fwd == MotionVector{});
    MotionVector &grid = mv_grid_[mby * mb_w_ + mbx];
    if (skippable) {
        rec.kind = MbRecord::kSkip;
        rs.left_fwd = rs.left_bwd = MotionVector{};
        grid = MotionVector{};
    } else {
        rec.kind = MbRecord::kInter;
        rec.b_mode = static_cast<u8>(b_mode);
        rec.cbp = static_cast<u8>(cbp);
        rec.motion = motion;
        rec.pred_p = pred_p;
        rs.left_fwd = motion.use_fwd ? fwd : MotionVector{};
        rs.left_bwd = motion.use_bwd ? motion.bwd : MotionVector{};
        if (!is_b)
            grid = fwd;
        else if (syntax_.me_seeds == MpegMeSeeds::kRowChain)
            grid = motion.use_fwd ? fwd : motion.bwd;
    }

    // Reconstruction: prediction plus coded residual.
    recon_inter_mb(pred, rec.levels, cbp, quant_.inter, &recon_, mbx,
                   mby, dsp_);
}

void
MpegEncoder::write_mb(BitWriter &bw, WriteState &ws, const MbRecord &rec,
                      PictureType type) const
{
    const bool is_b = type == PictureType::kB;
    // P-picture mode: one bit (0 inter, 1 intra) or ue(PMode).
    const auto put_p_mode = [&](PMode mode) {
        if (syntax_.p_mode == MpegPModeCoding::kBit)
            bw.put_bit(mode == kPIntra);
        else
            write_ue(bw, static_cast<u32>(mode));
    };

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
            if (is_b)
                write_ue(bw, kBIntra);
            else
                put_p_mode(kPIntra);
        }
        for (int b = 0; b < 6; ++b) {
            const int comp = block_plane(b);
            write_se(bw, rec.dc[b] - ws.dc_pred[comp]);
            ws.dc_pred[comp] = rec.dc[b];
            intra_rl_.encode_block(bw, rec.levels[b], 1);
        }
        ws.left_fwd = ws.left_bwd = MotionVector{};
        return;
    }

    const MbMotion &m = rec.motion;
    write_ue(bw, static_cast<u32>(ws.pending_skips));
    ws.pending_skips = 0;
    if (is_b) {
        write_ue(bw, static_cast<u32>(rec.b_mode));
        if (m.use_fwd) {
            write_se(bw, m.fwd[0].x - ws.left_fwd.x);
            write_se(bw, m.fwd[0].y - ws.left_fwd.y);
        }
        if (m.use_bwd) {
            write_se(bw, m.bwd.x - ws.left_bwd.x);
            write_se(bw, m.bwd.y - ws.left_bwd.y);
        }
    } else {
        put_p_mode(m.four ? kPInter4v : kPInter);
        for (int b = 0; b < (m.four ? 4 : 1); ++b) {
            write_se(bw, m.fwd[b].x - rec.pred_p.x);
            write_se(bw, m.fwd[b].y - rec.pred_p.y);
        }
    }
    bw.put_bits(rec.cbp, 6);
    for (int b = 0; b < 6; ++b) {
        if (rec.cbp & (1 << b))
            inter_rl_.encode_block(bw, rec.levels[b], 0);
    }
    ws.left_fwd = m.use_fwd ? m.fwd[0] : MotionVector{};
    ws.left_bwd = m.use_bwd ? m.bwd : MotionVector{};
    ws.dc_pred[0] = ws.dc_pred[1] = ws.dc_pred[2] = kDcPredReset;
}

}  // namespace

std::unique_ptr<VideoEncoder>
create_mpeg_encoder(const MpegSyntax &syntax, const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<MpegEncoder>(syntax, config);
}

}  // namespace hdvb
