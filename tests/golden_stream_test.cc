/**
 * @file
 * Golden-stream oracle: FNV-1a digests of each codec's bitstream at the
 * benchmark preset (720p, H.264 with refs=8), of the MPEG-class
 * resilient layout and tool toggles, and of the pixels the decoders
 * reconstruct from every one of those streams, pinned as constants.
 *
 * The invariance suites (SimdInvariance, ThreadInvariance,
 * ApproxContract) compare configurations of one build with each other,
 * so a change that alters every configuration the same way passes them
 * all. These digests compare against the streams the codecs produced
 * when they were recorded: a performance change that claims "same
 * search, same streams" must leave every one of them untouched. A
 * deliberate bitstream change updates the table and says so.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>

#include "core/benchmark.h"
#include "synth/synth.h"
#include "transcode/transcode.h"

namespace hdvb {
namespace {

/** FNV-1a (64-bit) over every packet's bytes, in coding order, with
 * each packet's length folded in so packet boundaries count too. */
u64
stream_digest(const std::vector<Packet> &packets)
{
    u64 h = 0xcbf29ce484222325ull;
    auto mix = [&h](u8 byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const Packet &p : packets) {
        const u64 n = p.data.size();
        for (int i = 0; i < 8; ++i)
            mix(static_cast<u8>(n >> (8 * i)));
        for (u8 b : p.data)
            mix(b);
    }
    return h;
}

std::string
hex(u64 v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

std::vector<Packet>
encode_packets(CodecId codec, const CodecConfig &cfg, int frames)
{
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kBlueSky, cfg.width, cfg.height);
    std::vector<Packet> packets;
    for (int i = 0; i < frames; ++i)
        EXPECT_TRUE(enc->encode(source.next(), &packets).is_ok());
    EXPECT_TRUE(enc->flush(&packets).is_ok());
    return packets;
}

u64
encode_digest(CodecId codec, const CodecConfig &cfg, int frames)
{
    return stream_digest(encode_packets(codec, cfg, frames));
}

/** FNV-1a (64-bit) over the visible samples of every decoded frame,
 * in output (display) order: Y, then Cb, then Cr, row by row. */
u64
decoded_digest(CodecId codec, const CodecConfig &cfg,
               const std::vector<Packet> &packets)
{
    std::unique_ptr<VideoDecoder> dec = make_decoder(codec, cfg).value();
    std::vector<Frame> frames;
    for (const Packet &p : packets)
        EXPECT_TRUE(dec->decode(p, &frames).is_ok());
    EXPECT_TRUE(dec->flush(&frames).is_ok());
    u64 h = 0xcbf29ce484222325ull;
    for (const Frame &f : frames) {
        for (int c = 0; c < 3; ++c) {
            const Plane &plane = f.plane(c);
            for (int y = 0; y < plane.height(); ++y) {
                const Pixel *row = plane.row(y);
                for (int x = 0; x < plane.width(); ++x) {
                    h ^= row[x];
                    h *= 0x100000001b3ull;
                }
            }
        }
    }
    return h;
}

struct Golden {
    CodecId codec;
    int approx;
    u64 digest;
};

// Seven pictures (I0 P3 B1 B2 P6 B4 B5) of blue_sky at the 720p
// benchmark preset; one digest per codec and approximation level,
// shared by threads=1 and threads=2.
constexpr int kFrames = 7;
constexpr Golden kGolden[] = {
    {CodecId::kMpeg2, 0, 0x8edf6cd57f885497ull},
    {CodecId::kMpeg2, 1, 0x12c6c6a826663ce6ull},
    {CodecId::kMpeg4, 0, 0x3857fb4f3049835bull},
    {CodecId::kMpeg4, 1, 0x94226da5fa3b7131ull},
    {CodecId::kH264, 0, 0x29f2a332b76d5bbeull},
    {CodecId::kH264, 1, 0x0e138c566cb6673dull},
};

TEST(GoldenStream, BenchmarkPresetDigestsUnchanged)
{
    for (const Golden &g : kGolden) {
        for (int threads : {1, 2}) {
            CodecConfig cfg = benchmark_config(
                g.codec, Resolution::k720p25, best_simd_level());
            cfg.approx = g.approx;
            cfg.threads = threads;
            const u64 got = encode_digest(g.codec, cfg, kFrames);
            EXPECT_EQ(hex(got), hex(g.digest))
                << codec_name(g.codec) << " approx=" << g.approx
                << " threads=" << threads;
        }
    }
}

// The H.264 reference window in steady state: with bframes=0 every
// picture is an anchor, so after the first few pictures the encoder's
// picture buffer is full and evicts on every picture. Pins that the
// buffer's depth is invisible in the stream (ref_idx is clamped to
// CodecConfig::refs either way).
TEST(GoldenStream, H264FullReferenceWindowUnchanged)
{
    constexpr u64 kDigest = 0x7498510ddef14503ull;
    for (int threads : {1, 2}) {
        CodecConfig cfg = benchmark_config(
            CodecId::kH264, Resolution::k720p25, best_simd_level());
        cfg.refs = 2;
        cfg.bframes = 0;
        cfg.threads = threads;
        EXPECT_EQ(hex(encode_digest(CodecId::kH264, cfg, 6)),
                  hex(kDigest))
            << "threads=" << threads;
    }
}

/** One pinned configuration beyond the six preset points: the
 * error-resilient row layout and the MPEG-4 tool toggles. */
struct GoldenVariant {
    CodecId codec;
    int approx;
    bool error_resilience;
    bool qpel;
    bool four_mv;
    u64 digest;
};

CodecConfig
variant_config(const GoldenVariant &v, int threads)
{
    CodecConfig cfg = benchmark_config(v.codec, Resolution::k720p25,
                                       best_simd_level());
    cfg.approx = v.approx;
    cfg.error_resilience = v.error_resilience;
    cfg.qpel = v.qpel;
    cfg.four_mv = v.four_mv;
    cfg.threads = threads;
    return cfg;
}

// Resilient layout (escaped header, one resync-marked segment per
// macroblock row) for both MPEG-class codecs, MPEG-4 with each of its
// two optional tools switched off, and both MPEG-class codecs at the
// two deepest approximation levels (half-step-only refinement and
// pruned 4MV at 2, the low-frequency DCT at 3).
constexpr GoldenVariant kVariants[] = {
    {CodecId::kMpeg2, 0, true, true, true, 0x073c96ad8fe60cbbull},
    {CodecId::kMpeg2, 1, true, true, true, 0x1792740ced4b2f4full},
    {CodecId::kMpeg4, 0, true, true, true, 0x0dd7ca79b3f67edeull},
    {CodecId::kMpeg4, 1, true, true, true, 0x69e590c8c7d8b9d6ull},
    {CodecId::kMpeg4, 0, false, false, true, 0x72c369500ffa4b69ull},
    {CodecId::kMpeg4, 0, false, true, false, 0x2c8717c49dcd0f8full},
    {CodecId::kMpeg2, 2, false, true, true, 0x501c7576464af8fcull},
    {CodecId::kMpeg2, 3, false, true, true, 0xca34795ded81b1e0ull},
    {CodecId::kMpeg4, 2, false, true, true, 0xb71578c9a248f286ull},
    {CodecId::kMpeg4, 3, false, true, true, 0x6dba01629c7a1591ull},
};

TEST(GoldenStream, ResilientAndToolToggleDigestsUnchanged)
{
    for (const GoldenVariant &v : kVariants) {
        for (int threads : {1, 2}) {
            const CodecConfig cfg = variant_config(v, threads);
            EXPECT_EQ(hex(encode_digest(v.codec, cfg, kFrames)),
                      hex(v.digest))
                << codec_name(v.codec) << " approx=" << v.approx
                << " resilient=" << v.error_resilience
                << " qpel=" << v.qpel << " four_mv=" << v.four_mv
                << " threads=" << threads;
        }
    }
}

// Decoder output for every golden point above: the six preset points,
// the resilient and tool-toggle variants, and the full H.264 reference
// window. Each stream is decoded by a decoder with the encoder's
// configuration and thread count, and the visible samples are hashed.
// Pins the decoders against the recorded output, not only against the
// encoders of the same build.
struct GoldenDecode {
    const char *point;
    u64 digest;
};

constexpr GoldenDecode kPresetDecodes[] = {
    {"mpeg2 approx=0", 0xb7a3027adad9fe0cull},
    {"mpeg2 approx=1", 0x9fa7fec5fe6f9805ull},
    {"mpeg4 approx=0", 0x55e94ddf8b437844ull},
    {"mpeg4 approx=1", 0x48c625a4e006f17bull},
    {"h264 approx=0", 0x298aafcb28f5867dull},
    {"h264 approx=1", 0x19699e0a24a73d4bull},
};
constexpr GoldenDecode kVariantDecodes[] = {
    {"mpeg2 resilient approx=0", 0xb7a3027adad9fe0cull},
    {"mpeg2 resilient approx=1", 0x9fa7fec5fe6f9805ull},
    {"mpeg4 resilient approx=0", 0xd172901a6eb17a77ull},
    {"mpeg4 resilient approx=1", 0xd108f6cfb733ba8aull},
    {"mpeg4 qpel=0", 0xe967d88a8c704f37ull},
    {"mpeg4 four_mv=0", 0x3dab3ee2328a3598ull},
    {"mpeg2 approx=2", 0xb717432e867679d4ull},
    {"mpeg2 approx=3", 0x35a62f2484a2ec54ull},
    {"mpeg4 approx=2", 0x92a928e5b1044220ull},
    {"mpeg4 approx=3", 0xb691158ff7c7fcbcull},
};
constexpr u64 kH264FullWindowDecode = 0x6ebf9bab3cfae12aull;

TEST(GoldenStream, DecodedPixelDigestsUnchanged)
{
    static_assert(std::size(kPresetDecodes) == std::size(kGolden));
    static_assert(std::size(kVariantDecodes) == std::size(kVariants));
    for (int threads : {1, 2}) {
        for (size_t i = 0; i < std::size(kGolden); ++i) {
            const Golden &g = kGolden[i];
            CodecConfig cfg = benchmark_config(
                g.codec, Resolution::k720p25, best_simd_level());
            cfg.approx = g.approx;
            cfg.threads = threads;
            const std::vector<Packet> packets =
                encode_packets(g.codec, cfg, kFrames);
            EXPECT_EQ(hex(decoded_digest(g.codec, cfg, packets)),
                      hex(kPresetDecodes[i].digest))
                << kPresetDecodes[i].point << " threads=" << threads;
        }
        for (size_t i = 0; i < std::size(kVariants); ++i) {
            const GoldenVariant &v = kVariants[i];
            const CodecConfig cfg = variant_config(v, threads);
            const std::vector<Packet> packets =
                encode_packets(v.codec, cfg, kFrames);
            EXPECT_EQ(hex(decoded_digest(v.codec, cfg, packets)),
                      hex(kVariantDecodes[i].digest))
                << kVariantDecodes[i].point << " threads=" << threads;
        }
        CodecConfig cfg = benchmark_config(
            CodecId::kH264, Resolution::k720p25, best_simd_level());
        cfg.refs = 2;
        cfg.bframes = 0;
        cfg.threads = threads;
        const std::vector<Packet> packets =
            encode_packets(CodecId::kH264, cfg, 6);
        EXPECT_EQ(hex(decoded_digest(CodecId::kH264, cfg, packets)),
                  hex(kH264FullWindowDecode))
            << "h264 refs=2 bframes=0 threads=" << threads;
    }
}

// Hint-driven analysis: each MPEG-class encoder seeded with the
// motion and modes the other MPEG-class decoder exports, through the
// transcode engine with reuse on. Pins the hinted search seeds, the
// intra-trial and 4MV pruning, and the decoder's side-info export.
struct GoldenHinted {
    CodecId from;
    CodecId to;
    u64 digest;
};

constexpr GoldenHinted kHinted[] = {
    {CodecId::kMpeg2, CodecId::kMpeg4, 0x36f807a0a4902eb9ull},
    {CodecId::kMpeg4, CodecId::kMpeg2, 0xae966a54b78f59a4ull},
};

TEST(GoldenStream, HintedTranscodeDigestsUnchanged)
{
    for (const GoldenHinted &g : kHinted) {
        const CodecConfig src_cfg = benchmark_config(
            g.from, Resolution::k720p25, best_simd_level());
        EncodedStream in;
        in.codec = codec_name(g.from);
        in.width = src_cfg.width;
        in.height = src_cfg.height;
        in.packets = encode_packets(g.from, src_cfg, kFrames);
        for (int threads : {1, 2}) {
            TranscodeOptions opt;
            opt.from = g.from;
            opt.to = g.to;
            opt.decoder_config = src_cfg;
            opt.decoder_config.threads = threads;
            opt.encoder_config = benchmark_config(
                g.to, Resolution::k720p25, best_simd_level());
            opt.encoder_config.threads = threads;
            opt.reuse_analysis = true;
            StatusOr<TranscodeResult> r = TranscodeEngine(opt).run(in);
            ASSERT_TRUE(r.is_ok()) << r.status().to_string();
            EXPECT_EQ(r.value().stats.hints.taken, kFrames);
            EXPECT_EQ(hex(stream_digest(r.value().stream.packets)),
                      hex(g.digest))
                << codec_name(g.from) << "->" << codec_name(g.to)
                << " threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace hdvb
