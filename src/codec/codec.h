/**
 * @file
 * The common codec framework: configuration, encoded packets, the
 * encoder/decoder interfaces, and base classes implementing the paper's
 * GOP discipline (Section IV): I-P-B-B with adaptive B placement
 * disabled and the only intra picture being the first one.
 */
#ifndef HDVB_CODEC_CODEC_H
#define HDVB_CODEC_CODEC_H

#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "simd/dispatch.h"
#include "video/frame.h"
#include "video/frame_pool.h"

namespace hdvb {

/** Picture coding type. */
enum class PictureType : u8 { kI = 0, kP = 1, kB = 2 };

/** Upper bound on CodecConfig::threads (sanity cap, not a target). */
inline constexpr int kMaxCodecThreads = 64;

/** One-letter picture type name. */
const char *picture_type_name(PictureType type);

/** One coded picture. */
struct Packet {
    std::vector<u8> data;
    PictureType type = PictureType::kI;
    s64 poc = 0;           ///< display index
    s64 coding_index = 0;  ///< bitstream order
};

/**
 * Configuration shared by all three codecs; codec-specific fields are
 * ignored by the codecs that do not use them.
 */
struct CodecConfig {
    int width = 0;
    int height = 0;
    int fps_num = 25;
    int fps_den = 1;

    /** MPEG-class quantiser scale 1..31 (`vqscale` / `fixed_quant`). */
    int qscale = 5;
    /** H.264-class QP 0..51 (`--qp`). */
    int qp = 26;

    /** B pictures between anchors (the paper uses 2: I-P-B-B). */
    int bframes = 2;
    /** Full-sample motion search range (`merange`). */
    int me_range = 16;
    /** Kernel instruction-set level (the Figure 1 axis). */
    SimdLevel simd = best_simd_level();

    /** H.264-class: maximum forward reference pictures (`--ref`). */
    int refs = 4;

    // ---- tool toggles (ablation benches switch these) ----
    bool qpel = true;     ///< MPEG-4-class quarter-sample MC
    bool four_mv = true;  ///< MPEG-4-class 4MV (8x8 vectors)
    bool deblock = true;  ///< H.264-class in-loop deblocking
    bool intra4 = true;   ///< H.264-class Intra4x4 modes
    bool partitions = true;  ///< H.264-class 16x8/8x16/8x8 partitions

    /**
     * Emit per-macroblock-row resync markers and decode with
     * resynchronisation + concealment (see src/bitstream/resync.h).
     * Off by default: golden streams stay bit-identical.
     */
    bool error_resilience = false;

    /**
     * Worker threads *inside* one encode/decode (1..kMaxCodecThreads).
     * Pictures are partitioned into MB-row bands whose analysis stage
     * (ME + transform + quant + reconstruction) runs wavefront-ordered
     * on a codec-private hdvb::ThreadPool; entropy coding is then
     * serialised in band order, so the emitted bitstream is
     * byte-identical for every thread count. Default 1 keeps the
     * paper-comparable single-core fps numbers (and skips the pool
     * entirely). Orthogonal to HDVB_JOBS, which sizes the sweep-level
     * pool that parallelises across measurement points.
     */
    int threads = 1;

    /**
     * Recycle frame/plane pixel buffers through a per-codec-instance
     * FramePool, so steady-state encode/decode performs zero heap
     * allocations per picture once the working set is warm. Invisible
     * to the bitstream and to decoded pixels (tests pin both); off
     * forces a fresh allocation per picture (A/B runs, leak hunts).
     */
    bool frame_pool = true;

    /**
     * Approximation tier 0..3, orthogonal to @ref simd. Level 0 is
     * today's byte-exact behaviour. Levels >= 1 trade quality for
     * encode speed with deterministic shortcuts — early-termination
     * SAD, pruned motion search, near-zero block skips, low-precision
     * DCT, fast deblocking — so streams are *not* bit-exact across
     * levels, but at a fixed level they are invariant to SIMD tier
     * and thread count. Decoders only consume it for the H.264
     * in-loop deblock fast path (encoder/decoder recon must match).
     */
    int approx = 0;

    /** Check invariants (16-aligned dimensions, ranges). */
    Status validate() const;
};

/** Error-resilience counters a decoder accumulates across decode()
 * calls. All zero unless the stream was damaged (or markers lied). */
struct DecodeStats {
    s64 mbs_concealed = 0;    ///< macroblocks filled by concealment
    s64 resyncs = 0;          ///< successful re-locks after an error
    s64 pictures_dropped = 0; ///< pictures replaced by a repeated anchor
};

/**
 * One snapshot of every counter a codec instance exposes. Before the
 * serve layer there were three ad-hoc accessors (encoder pool_stats(),
 * decoder pool_stats(), decoder DecodeStats stats()); sessions, the
 * sweep engine, and tests now read this one struct instead.
 */
struct CodecStats {
    /** Frame-buffer pool counters (all zero when the codec does not
     * pool). */
    FramePoolStats pool;

    /** Error-resilience counters (always zero for encoders, and for
     * decoders that saw only clean streams). */
    DecodeStats decode;
};

/**
 * The direction-independent half of a codec instance: identity,
 * counters, and memory-arena attachment. VideoEncoder and VideoDecoder
 * both derive from it, so the session layer can account for either
 * through one interface.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Codec name ("mpeg2", "mpeg4", "h264"). */
    virtual const char *name() const = 0;

    /** Snapshot of every counter this instance tracks. */
    virtual CodecStats stats() const { return {}; }

    /**
     * Recycle frame buffers through @p arena's shared free lists
     * instead of a private pool (no-op when the implementation does
     * not pool, or when CodecConfig::frame_pool is off). Must be
     * called before the first encode/decode call.
     */
    virtual void use_arena(const FrameArena &arena) { (void)arena; }
};

class DecodeSideInfo;
class HintMap;
struct PictureSideInfo;

/** Streaming encoder interface. */
class VideoEncoder : public Codec
{
  public:
    /** Push one frame in display order; packets may be emitted in
     * coding order (B-frame lookahead delays them). */
    virtual Status encode(const Frame &frame,
                          std::vector<Packet> *out) = 0;

    /** Drain buffered pictures. */
    virtual Status flush(std::vector<Packet> *out) = 0;

    /**
     * Adopt @p hints (see codec/side_info.h): before analysing a
     * picture, the encoder claims the matching PictureSideInfo by
     * display index and uses it to seed motion-search candidates and
     * prune mode trials. Hints are advisory — vectors are clamped to
     * the search window and every pruned decision keeps its fallback —
     * so the output stream stays decodable under arbitrary hints, and
     * a null map (the default) leaves behaviour byte-identical to an
     * unhinted encode. Call before the first encode().
     */
    virtual Status
    use_hints(std::shared_ptr<HintMap> hints)
    {
        (void)hints;
        return Status::unimplemented(
            "this encoder does not support analysis-reuse hints");
    }

    /**
     * The reconstruction, in-loop filter included, of the picture this
     * encoder coded last: what a decoder of the emitted stream outputs
     * for that picture. Null when the encoder does not expose it.
     * Valid until the next encode() or flush().
     */
    virtual const Frame *last_reconstruction() const { return nullptr; }
};

/** Streaming decoder interface; frames come out in display order. */
class VideoDecoder : public Codec
{
  public:
    virtual Status decode(const Packet &packet,
                          std::vector<Frame> *out) = 0;

    /** Drain the held anchor picture. */
    virtual Status flush(std::vector<Frame> *out) = 0;

    /**
     * Register @p sink to receive per-picture side info (per-MB modes,
     * motion vectors, references, quantiser — codec/side_info.h) as
     * pictures are decoded; null unregisters. Only the serial
     * non-resilient decode path records side info, so registering a
     * sink on a CodecConfig::error_resilience decoder is an error.
     * Call before the first decode().
     */
    virtual Status
    export_side_info(DecodeSideInfo *sink)
    {
        (void)sink;
        return Status::unimplemented(
            "this decoder does not export side info");
    }
};

/**
 * Shared encoder skeleton: buffers incoming frames and replays them in
 * coding order (anchor first, then the B pictures that precede it in
 * display order). Subclasses implement encode_picture() and manage
 * their reference reconstructions when it is called.
 */
class EncoderBase : public VideoEncoder
{
  public:
    explicit EncoderBase(const CodecConfig &config) : config_(config) {}

    Status encode(const Frame &frame, std::vector<Packet> *out) final;
    Status flush(std::vector<Packet> *out) final;
    Status use_hints(std::shared_ptr<HintMap> hints) final;

    const CodecConfig &config() const { return config_; }

    CodecStats
    stats() const final
    {
        CodecStats stats;
        stats.pool = pool_.stats();
        return stats;
    }

    void use_arena(const FrameArena &arena) final { pool_.adopt(arena); }

  protected:
    /**
     * Encode one picture. For kI/kP the subclass must promote the
     * reconstruction to be the next backward anchor reference; for kB
     * references are the two surrounding anchors.
     */
    virtual std::vector<u8> encode_picture(const Frame &src,
                                           PictureType type) = 0;

    /** Frame of the configured picture size, drawing its buffers from
     * the codec's pool when CodecConfig::frame_pool is on. */
    Frame
    new_frame(int border = 0)
    {
        return Frame(config_.width, config_.height, border,
                     config_.frame_pool ? &pool_ : nullptr);
    }

    /** Luma-sized plane drawn from the same pool as new_frame(). */
    Plane
    new_plane(int border = 0)
    {
        return Plane(config_.width, config_.height, border,
                     config_.frame_pool ? &pool_ : nullptr);
    }

    /**
     * Claim the hint picture for @p src from the adopted HintMap, or
     * null when there is no map, no buffered picture for src.poc(),
     * or the buffered picture does not match this encode (@p type or
     * macroblock grid differ — a mismatched GOP structure must degrade
     * to full analysis, never to wrong-direction vectors). Subclasses
     * call this at the top of encode_picture() and treat null as
     * "run the full search".
     */
    std::shared_ptr<const PictureSideInfo>
    take_hints(const Frame &src, PictureType type) const;

  private:
    void emit(const Frame &src, PictureType type,
              std::vector<Packet> *out);

    CodecConfig config_;
    FramePool pool_;
    std::deque<Frame> pending_;  ///< display-order lookahead window
    s64 next_display_ = 0;
    s64 coding_index_ = 0;
    std::shared_ptr<HintMap> hints_;
};

/**
 * Shared decoder skeleton: display-order reordering (anchors are held
 * until the next anchor arrives; B pictures pass straight through).
 */
class DecoderBase : public VideoDecoder
{
  public:
    explicit DecoderBase(const CodecConfig &config) : config_(config) {}

    Status decode(const Packet &packet, std::vector<Frame> *out) final;
    Status flush(std::vector<Frame> *out) final;
    Status export_side_info(DecodeSideInfo *sink) final;

    const CodecConfig &config() const { return config_; }

    CodecStats
    stats() const final
    {
        CodecStats stats;
        stats.pool = pool_.stats();
        stats.decode = stats_;
        return stats;
    }

    void use_arena(const FrameArena &arena) final { pool_.adopt(arena); }

  protected:
    /** Decode one picture into @p out (any size; base resizes). */
    virtual Status decode_picture(const Packet &packet, Frame *out) = 0;

    /** Frame of the configured picture size, drawing its buffers from
     * the codec's pool when CodecConfig::frame_pool is on. */
    Frame
    new_frame(int border = 0)
    {
        return Frame(config_.width, config_.height, border,
                     config_.frame_pool ? &pool_ : nullptr);
    }

    /** Subclasses bump these while decoding resilient pictures. */
    DecodeStats stats_;

    /** Registered side-info sink, or null. Subclasses record per-MB
     * facts while decoding and push one PictureSideInfo per picture
     * (serial non-resilient path only). */
    DecodeSideInfo *side_info_sink() const { return side_info_; }

  private:
    CodecConfig config_;
    FramePool pool_;
    Frame held_anchor_;
    bool has_held_ = false;
    DecodeSideInfo *side_info_ = nullptr;
};

}  // namespace hdvb

#endif  // HDVB_CODEC_CODEC_H
