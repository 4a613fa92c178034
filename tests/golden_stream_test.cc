/**
 * @file
 * Golden-stream oracle: FNV-1a digests of each codec's bitstream at the
 * benchmark preset (720p, H.264 with refs=8), pinned as constants.
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
#include <string>

#include "core/benchmark.h"
#include "synth/synth.h"

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

u64
encode_digest(CodecId codec, const CodecConfig &cfg, int frames)
{
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kBlueSky, cfg.width, cfg.height);
    std::vector<Packet> packets;
    for (int i = 0; i < frames; ++i)
        EXPECT_TRUE(enc->encode(source.next(), &packets).is_ok());
    EXPECT_TRUE(enc->flush(&packets).is_ok());
    return stream_digest(packets);
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

}  // namespace
}  // namespace hdvb
