/**
 * @file
 * MPEG-class decoder: the mirror of the encoder's syntax for the
 * codec's MpegSyntax. It builds predictions and residuals through the
 * same functions as the encoder (mpeg/macroblock.h), so its output
 * equals the encoder's closed-loop reconstruction.
 */
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/resync.h"
#include "codec/conceal.h"
#include "codec/run_level.h"
#include "codec/side_info.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "me/me.h"
#include "mpeg/macroblock.h"

namespace hdvb {

namespace {

using namespace hdvb::mpeg;

class MpegDecoder final : public DecoderBase
{
  public:
    MpegDecoder(const MpegSyntax &syntax, const CodecConfig &cfg)
        : DecoderBase(cfg),
          syntax_(syntax),
          dsp_(get_dsp(cfg.simd)),
          intra_rl_(RunLevelCoder::get(syntax.intra_rl)),
          inter_rl_(RunLevelCoder::get(syntax.inter_rl)),
          mb_w_(cfg.width / 16),
          mb_h_(cfg.height / 16),
          mv_grid_(static_cast<size_t>(mb_w_) * mb_h_),
          pool_(cfg.threads > 1
                    ? std::make_unique<ThreadPool>(cfg.threads)
                    : nullptr)
    {
    }

    const char *name() const override { return syntax_.name; }

  protected:
    Status decode_picture(const Packet &packet, Frame *out) override;

  private:
    struct MbState {
        BitReader *br;
        Frame *frame;
        PictureType type;
        const Quantizers *quant;
        int mbx;
        int mby;
        int dc_pred[3];
        MotionVector left_fwd;
        MotionVector left_bwd;
        /** Side-info slot for the current MB (serial path only). */
        MbSideInfo *rec = nullptr;

        void
        reset_row()
        {
            dc_pred[0] = dc_pred[1] = dc_pred[2] = kDcPredReset;
            left_fwd = left_bwd = MotionVector{};
        }
    };

    Status parse_header(BitReader &br, const Packet &packet,
                        PictureType *type, int *qscale) const;
    bool decode_coded_mb(MbState &st);
    bool decode_intra_mb(MbState &st);
    bool decode_inter_mb(MbState &st, int b_mode, bool four);
    void recon_skip_mb(MbState &st);
    Status decode_picture_resilient(const Packet &packet, Frame *out);
    bool decode_resilient_row(MbState &st, const std::vector<u8> &bytes,
                              int mby, int *bad_from);
    void conceal_row(Frame *out, PictureType type, int from, int mby);
    void promote_anchor(Frame *out);
    MotionVector clamp_mv(MotionVector mv, int mbx, int mby,
                          int block) const;

    Status
    corrupt(const char *what) const
    {
        return Status::corrupt_stream(std::string("bad ") + syntax_.name +
                                      " " + what);
    }

    const MpegSyntax &syntax_;
    const Dsp &dsp_;
    const RunLevelCoder &intra_rl_;
    const RunLevelCoder &inter_rl_;
    int mb_w_;
    int mb_h_;

    Frame prev_anchor_;
    Frame last_anchor_;
    /** The current picture's P vectors (p_mv_pred's input). */
    std::vector<MotionVector> mv_grid_;
    std::unique_ptr<ThreadPool> pool_;  ///< row pool (threads > 1)
};

MotionVector
MpegDecoder::clamp_mv(MotionVector mv, int mbx, int mby, int block) const
{
    // Keep all reads inside the extended border even for corrupt
    // input; block < 0 means the whole 16x16. The margin allows the
    // encoder's sub-sample refinement drift (kMeMargin + 4 still
    // clears kRefBorder with the interpolation taps).
    const int scale = 1 << syntax_.mv_shift;
    const int size = block < 0 ? 16 : 8;
    const int x0 = mbx * 16 + (block > 0 ? (block & 1) * 8 : 0);
    const int y0 = mby * 16 + (block > 0 ? (block >> 1) * 8 : 0);
    const int margin = kMeMargin + 4;
    const int min_x = scale * (-margin - x0);
    const int max_x = scale * (config().width + margin - x0 - size);
    const int min_y = scale * (-margin - y0);
    const int max_y = scale * (config().height + margin - y0 - size);
    return {static_cast<s16>(clamp<int>(mv.x, min_x, max_x)),
            static_cast<s16>(clamp<int>(mv.y, min_y, max_y))};
}

Status
MpegDecoder::parse_header(BitReader &br, const Packet &packet,
                          PictureType *type, int *qscale) const
{
    *type = static_cast<PictureType>(br.get_bits(2));
    *qscale = static_cast<int>(br.get_bits(5));
    if (syntax_.header_tool_flags)
        br.skip_bits(2);  // qpel / 4MV flags (informational)
    br.skip_bits(16);     // poc_lsb, unused
    if (br.has_error() || *type != packet.type)
        return corrupt("picture header");
    if (*qscale < 1 || *qscale > 31)
        return corrupt("qscale");
    if (*type != PictureType::kI && last_anchor_.empty())
        return Status::corrupt_stream("inter picture without reference");
    if (*type == PictureType::kB && prev_anchor_.empty())
        return Status::corrupt_stream("B picture without two references");
    return Status::ok();
}

bool
MpegDecoder::decode_intra_mb(MbState &st)
{
    for (int b = 0; b < 6; ++b) {
        const int comp = block_plane(b);
        Plane &plane = st.frame->plane(comp);
        int x, y;
        block_origin(b, st.mbx, st.mby, &x, &y);

        const int dc_level = st.dc_pred[comp] + read_se(*st.br);
        if (dc_level < 0 || dc_level > 255 || st.br->has_error())
            return false;
        st.dc_pred[comp] = dc_level;

        alignas(32) Coeff blk[64] = {};
        if (!intra_rl_.decode_block(*st.br, blk, 1))
            return false;

        Pixel *dst = plane.row(y) + x;
        zero_block8(dst, plane.stride());
        mpeg_recon_block(blk, st.quant->intra, dc_level * kDcStep, dst,
                         plane.stride(), dsp_);
    }
    st.left_fwd = st.left_bwd = MotionVector{};
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
    if (st.rec != nullptr)
        st.rec->mode = MbSideInfo::kIntra;
    return true;
}

bool
MpegDecoder::decode_inter_mb(MbState &st, int b_mode, bool four)
{
    BitReader &br = *st.br;
    const bool is_b = st.type == PictureType::kB;
    MbMotion m;
    if (is_b) {
        m.use_fwd = b_mode == kBFwd || b_mode == kBBi;
        m.use_bwd = b_mode == kBBwd || b_mode == kBBi;
        if (m.use_fwd) {
            m.fwd[0] = clamp_mv(
                {static_cast<s16>(st.left_fwd.x + read_se(br)),
                 static_cast<s16>(st.left_fwd.y + read_se(br))},
                st.mbx, st.mby, -1);
        }
        if (m.use_bwd) {
            m.bwd = clamp_mv(
                {static_cast<s16>(st.left_bwd.x + read_se(br)),
                 static_cast<s16>(st.left_bwd.y + read_se(br))},
                st.mbx, st.mby, -1);
        }
    } else {
        const MotionVector pred =
            p_mv_pred(syntax_, config().error_resilience, mv_grid_,
                      mb_w_, st.mbx, st.mby);
        m.four = four;
        for (int b = 0; b < (four ? 4 : 1); ++b) {
            m.fwd[b] = clamp_mv({static_cast<s16>(pred.x + read_se(br)),
                                 static_cast<s16>(pred.y + read_se(br))},
                                st.mbx, st.mby, four ? b : -1);
        }
        if (!four)
            m.fwd[1] = m.fwd[2] = m.fwd[3] = m.fwd[0];
    }
    const int cbp = static_cast<int>(br.get_bits(6));
    if (br.has_error())
        return false;

    alignas(32) Coeff blocks[6][64];
    for (int b = 0; b < 6; ++b) {
        if (cbp & (1 << b)) {
            std::memset(blocks[b], 0, sizeof(blocks[b]));
            if (!inter_rl_.decode_block(br, blocks[b], 0))
                return false;
        }
    }

    PredBuffers pred;
    predict_mb(syntax_, dsp_, prev_anchor_, last_anchor_, st.type, m,
               st.mbx, st.mby, &pred);
    recon_inter_mb(pred, blocks, cbp, st.quant->inter, st.frame, st.mbx,
                   st.mby, dsp_);

    st.left_fwd = m.use_fwd ? m.fwd[0] : MotionVector{};
    st.left_bwd = m.use_bwd ? m.bwd : MotionVector{};
    st.dc_pred[0] = st.dc_pred[1] = st.dc_pred[2] = kDcPredReset;
    if (!is_b)
        mv_grid_[st.mby * mb_w_ + st.mbx] = m.fwd[0];
    if (st.rec != nullptr) {
        // Exported in quarter-sample units; a 4MV macroblock collapses
        // to its first vector, good enough as a seed.
        const int up = 1 << (2 - syntax_.mv_shift);
        st.rec->mode = !is_b ? MbSideInfo::kInterFwd
                       : m.use_fwd && m.use_bwd
                           ? MbSideInfo::kInterBi
                           : (m.use_fwd ? MbSideInfo::kInterFwd
                                        : MbSideInfo::kInterBwd);
        st.rec->fwd = {static_cast<s16>(m.fwd[0].x * up),
                       static_cast<s16>(m.fwd[0].y * up)};
        st.rec->bwd = {static_cast<s16>(m.bwd.x * up),
                       static_cast<s16>(m.bwd.y * up)};
    }
    return true;
}

bool
MpegDecoder::decode_coded_mb(MbState &st)
{
    if (st.type == PictureType::kI)
        return decode_intra_mb(st);
    BitReader &br = *st.br;
    if (st.type == PictureType::kB) {
        const u32 mode = read_ue(br);
        if (br.has_error() || mode > kBIntra)
            return false;
        return mode == kBIntra
                   ? decode_intra_mb(st)
                   : decode_inter_mb(st, static_cast<int>(mode), false);
    }
    u32 mode;
    if (syntax_.p_mode == MpegPModeCoding::kBit)
        mode = br.get_bit() != 0 ? kPIntra : kPInter;
    else
        mode = read_ue(br);
    if (br.has_error() || mode > kPIntra ||
        (mode == kPInter4v && !syntax_.four_mv))
        return false;
    return mode == kPIntra ? decode_intra_mb(st)
                           : decode_inter_mb(st, 0, mode == kPInter4v);
}

void
MpegDecoder::recon_skip_mb(MbState &st)
{
    // P-skip copies the forward reference at (0,0); B-skip is
    // bi-prediction at (0,0).
    MbMotion m;
    m.use_bwd = st.type == PictureType::kB;
    PredBuffers pred;
    predict_mb(syntax_, dsp_, prev_anchor_, last_anchor_, st.type, m,
               st.mbx, st.mby, &pred);
    recon_inter_mb(pred, nullptr, 0, st.quant->inter, st.frame, st.mbx,
                   st.mby, dsp_);
    st.left_fwd = st.left_bwd = MotionVector{};
    st.dc_pred[0] = st.dc_pred[1] = st.dc_pred[2] = kDcPredReset;
    mv_grid_[st.mby * mb_w_ + st.mbx] = MotionVector{};
    if (st.rec != nullptr)
        st.rec->mode = MbSideInfo::kSkip;
}

void
MpegDecoder::conceal_row(Frame *out, PictureType type, int from, int mby)
{
    for (int mbx = from; mbx < mb_w_; ++mbx) {
        if (type == PictureType::kI || last_anchor_.empty())
            conceal_mb_dc(out, mbx, mby);
        else
            conceal_mb_from_ref(out, last_anchor_, mbx, mby);
    }
}

void
MpegDecoder::promote_anchor(Frame *out)
{
    out->extend_borders();
    prev_anchor_ = std::move(last_anchor_);
    last_anchor_ = new_frame(kRefBorder);
    last_anchor_.copy_from(*out);
    last_anchor_.extend_borders();
}

bool
MpegDecoder::decode_resilient_row(MbState &st,
                                  const std::vector<u8> &bytes, int mby,
                                  int *bad_from)
{
    BitReader br(bytes);
    st.br = &br;
    st.mby = mby;
    st.reset_row();
    *bad_from = 0;

    // Row-scoped skip runs: a run before each coded MB, plus a trailing
    // run only when the row ends in skips.
    for (int mbx = 0; mbx < mb_w_; ++mbx) {
        if (st.type != PictureType::kI) {
            const int run = static_cast<int>(read_ue(br));
            if (br.has_error() || run > mb_w_ - mbx) {
                *bad_from = mbx;
                return false;
            }
            for (int i = 0; i < run; ++i) {
                st.mbx = mbx++;
                recon_skip_mb(st);
            }
            if (mbx >= mb_w_)
                break;
        }
        st.mbx = mbx;
        if (!decode_coded_mb(st)) {
            *bad_from = mbx;
            return false;
        }
    }

    // A wrong or missing sentinel means the row decoded to garbage
    // without tripping a syntax error; treat the whole row as lost.
    const u32 sentinel = br.get_bits(8);
    if (br.has_error() || sentinel != kRowSentinel)
        return false;
    if (bytes.size() * 8 - br.bits_consumed() >= 8)
        return false;  // trailing junk beyond alignment padding
    return true;
}

Status
MpegDecoder::decode_picture_resilient(const Packet &packet, Frame *out)
{
    ResilientPicture pic;
    if (!split_resilient_picture(packet.data, mb_h_, &pic))
        return Status::corrupt_stream("no resync markers survive");

    BitReader hbr(pic.header);
    PictureType type;
    int qscale;
    const Status header = parse_header(hbr, packet, &type, &qscale);
    if (!header.is_ok())
        return header;
    const Quantizers quant(syntax_, qscale, dsp_);

    *out = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    // Rows are fully independent: fresh per-row entropy chunk and
    // predictors, MV prediction is left-only in resilient mode (so
    // mv_grid_ reads stay within the row each task writes), and inter
    // prediction reads only the anchor frames. Decode the rows in
    // parallel when the codec has a band pool, then conceal as a
    // serial top-to-bottom pass — spatial DC concealment reads the
    // pixel row above, which is final by then, exactly as in the
    // serial schedule.
    std::vector<RowOutcome> rows(static_cast<size_t>(mb_h_));
    auto decode_row = [&](int mby) {
        const ResyncSegment &seg = pic.rows[static_cast<size_t>(mby)];
        if (seg.data == nullptr)
            return;
        MbState st{};
        st.frame = out;
        st.type = type;
        st.quant = &quant;
        const std::vector<u8> row_bytes =
            unescape_emulation(seg.data, seg.size);
        RowOutcome &r = rows[static_cast<size_t>(mby)];
        r.ok = decode_resilient_row(st, row_bytes, mby, &r.bad_from);
    };
    if (pool_ != nullptr) {
        parallel_for(*pool_, mb_h_,
                     [&](int mby, int) { decode_row(mby); });
    } else {
        for (int mby = 0; mby < mb_h_; ++mby)
            decode_row(mby);
    }

    for (int mby = 0; mby < mb_h_; ++mby) {
        const RowOutcome &r = rows[static_cast<size_t>(mby)];
        if (!r.ok)
            conceal_row(out, type, r.bad_from, mby);
    }
    if (!tally_resilient_rows(rows, mb_w_, &stats_))
        return Status::corrupt_stream("every row of the picture lost");

    if (type != PictureType::kB)
        promote_anchor(out);
    return Status::ok();
}

Status
MpegDecoder::decode_picture(const Packet &packet, Frame *out)
{
    if (config().error_resilience)
        return decode_picture_resilient(packet, out);

    BitReader br(packet.data);
    PictureType type;
    int qscale;
    const Status header = parse_header(br, packet, &type, &qscale);
    if (!header.is_ok())
        return header;
    const Quantizers quant(syntax_, qscale, dsp_);

    *out = new_frame(kRefBorder);
    std::fill(mv_grid_.begin(), mv_grid_.end(), MotionVector{});

    MbState st{};
    st.br = &br;
    st.frame = out;
    st.type = type;
    st.quant = &quant;

    const bool record = side_info_sink() != nullptr;
    PictureSideInfo si;
    if (record) {
        si.poc = packet.poc;
        si.type = type;
        si.mb_w = mb_w_;
        si.mb_h = mb_h_;
        si.quant = qscale;
        si.mbs.resize(static_cast<size_t>(mb_w_) * mb_h_);
    }

    // Skip runs span the picture; predictors reset as it crosses rows.
    const int total = mb_w_ * mb_h_;
    int cur_row = -1;
    auto enter = [&](int index) {
        st.mbx = index % mb_w_;
        st.mby = index / mb_w_;
        if (st.mby != cur_row) {
            cur_row = st.mby;
            st.reset_row();
        }
        st.rec = record ? &si.at(st.mbx, st.mby) : nullptr;
    };
    for (int mb = 0; mb < total; ++mb) {
        if (type != PictureType::kI) {
            const int run = static_cast<int>(read_ue(br));
            if (br.has_error() || run > total - mb)
                return Status::corrupt_stream("bad skip run");
            for (int i = 0; i < run; ++i) {
                enter(mb++);
                recon_skip_mb(st);
            }
            if (mb >= total)
                break;
        }
        enter(mb);
        if (!decode_coded_mb(st))
            return Status::corrupt_stream("bad MB data");
    }
    if (br.has_error())
        return Status::corrupt_stream(std::string("truncated ") +
                                      syntax_.name + " picture");

    if (record)
        side_info_sink()->push(std::move(si));

    if (type != PictureType::kB)
        promote_anchor(out);
    return Status::ok();
}

}  // namespace

std::unique_ptr<VideoDecoder>
create_mpeg_decoder(const MpegSyntax &syntax, const CodecConfig &config)
{
    HDVB_CHECK(config.validate().is_ok());
    return std::make_unique<MpegDecoder>(syntax, config);
}

}  // namespace hdvb
