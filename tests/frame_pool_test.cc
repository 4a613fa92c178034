/**
 * @file
 * FramePool unit tests (recycling, stats, lifetime) plus the two
 * pooling acceptance gates: steady-state encode/decode performs zero
 * heap allocations per picture after warm-up, and pooling is invisible
 * to the bitstream and decoded pixels across thread counts and SIMD
 * levels (PoolInvariance).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "core/benchmark.h"
#include "metrics/psnr.h"
#include "synth/synth.h"
#include "video/frame_pool.h"

namespace hdvb {
namespace {

// ---- FramePool unit tests ----

TEST(FramePool, FreshAcquireIsAlignedZeroedAndCounted)
{
    FramePool pool;
    const AlignedBuffer buf = pool.acquire(4096);
    ASSERT_EQ(buf.size(), 4096u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) %
                  AlignedBuffer::kAlignment,
              0u);
    EXPECT_TRUE(buf.pooled());
    for (size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf.data()[i], 0) << "fresh buffer not zeroed at " << i;
    const FramePoolStats stats = pool.stats();
    EXPECT_EQ(stats.buffer_allocs, 1);
    EXPECT_EQ(stats.buffer_reuses, 0);
    EXPECT_EQ(stats.outstanding, 1);
    EXPECT_EQ(stats.high_water, 1);
}

TEST(FramePool, RecyclesReturnedBufferOfSameSize)
{
    FramePool pool;
    const u8 *first_ptr = nullptr;
    {
        AlignedBuffer buf = pool.acquire(1024);
        first_ptr = buf.data();
        std::memset(buf.data(), 0xCD, buf.size());
    }  // returns to the pool
    EXPECT_EQ(pool.stats().outstanding, 0);

    const AlignedBuffer again = pool.acquire(1024);
    EXPECT_EQ(again.data(), first_ptr) << "same-size acquire must reuse";
    const FramePoolStats stats = pool.stats();
    EXPECT_EQ(stats.buffer_allocs, 1);
    EXPECT_EQ(stats.buffer_reuses, 1);
    EXPECT_EQ(stats.outstanding, 1);
}

TEST(FramePool, FreeListsAreKeyedBySize)
{
    FramePool pool;
    { AlignedBuffer buf = pool.acquire(512); }
    const AlignedBuffer other = pool.acquire(768);
    const FramePoolStats stats = pool.stats();
    EXPECT_EQ(stats.buffer_allocs, 2) << "different size must not reuse";
    EXPECT_EQ(stats.buffer_reuses, 0);
}

TEST(FramePool, HighWaterTracksPeakOutstanding)
{
    FramePool pool;
    {
        AlignedBuffer a = pool.acquire(256);
        AlignedBuffer b = pool.acquire(256);
        AlignedBuffer c = pool.acquire(256);
        EXPECT_EQ(pool.stats().outstanding, 3);
        EXPECT_EQ(pool.stats().high_water, 3);
    }
    EXPECT_EQ(pool.stats().outstanding, 0);
    const AlignedBuffer d = pool.acquire(256);
    EXPECT_EQ(pool.stats().high_water, 3) << "high water never recedes";
    EXPECT_EQ(pool.stats().buffer_reuses, 1);
}

TEST(FramePool, BuffersMayOutliveThePool)
{
    // A Frame can outlive the codec (and its pool) that produced it;
    // the shared core keeps the return path valid. ASAN-gated ctest
    // entry frame_pool_asan leans on this test to prove no leak or
    // use-after-free either way.
    AlignedBuffer escaped;
    {
        FramePool pool;
        escaped = pool.acquire(2048);
        std::memset(escaped.data(), 0x5A, escaped.size());
    }  // pool dies first
    EXPECT_EQ(escaped.data()[2047], 0x5A);
}  // escaped dies second, returning into the orphaned core

TEST(FramePool, CopyOfPooledBufferIsUnpooledDeepCopy)
{
    FramePool pool;
    AlignedBuffer original = pool.acquire(128);
    std::memset(original.data(), 0x7E, original.size());
    const AlignedBuffer copy = original;
    EXPECT_FALSE(copy.pooled());
    EXPECT_NE(copy.data(), original.data());
    EXPECT_EQ(copy.data()[127], 0x7E);
    EXPECT_EQ(pool.stats().outstanding, 1) << "copy is not checked out";
}

// ---- zero allocations per picture after warm-up ----

class PoolSteadyState : public ::testing::TestWithParam<CodecId> {};

CodecConfig
pool_config()
{
    CodecConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.qscale = 5;
    cfg.qp = 26;
    cfg.me_range = 8;
    cfg.refs = 2;
    return cfg;
}

constexpr int kWarmup = 12;  // covers a full GOP's frame types
constexpr int kSteady = 12;

/** Encoder-pool high-water mark (buffers) over a steady-state run. */
s64
encoder_high_water(CodecId codec, const CodecConfig &cfg)
{
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kRushHour, cfg.width, cfg.height);
    std::vector<Packet> packets;
    for (int i = 0; i < kWarmup + kSteady; ++i)
        EXPECT_TRUE(enc->encode(source.next(), &packets).is_ok());
    return enc->stats().pool.high_water;
}

TEST_P(PoolSteadyState, NoHeapAllocationsAfterWarmup)
{
    const CodecId codec = GetParam();
    const CodecConfig cfg = pool_config();

    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    std::unique_ptr<VideoDecoder> dec = make_decoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kRushHour, cfg.width, cfg.height);

    std::vector<Packet> packets;
    std::vector<Frame> decoded;
    for (int i = 0; i < kWarmup; ++i) {
        ASSERT_TRUE(enc->encode(source.next(), &packets).is_ok());
        for (const Packet &p : packets)
            ASSERT_TRUE(dec->decode(p, &decoded).is_ok());
        packets.clear();
        decoded.clear();
    }
    const s64 enc_allocs = enc->stats().pool.buffer_allocs;
    const s64 dec_allocs = dec->stats().pool.buffer_allocs;
    EXPECT_GT(enc_allocs, 0) << "pool not in use on the encode path";
    EXPECT_GT(dec_allocs, 0) << "pool not in use on the decode path";

    for (int i = 0; i < kSteady; ++i) {
        ASSERT_TRUE(enc->encode(source.next(), &packets).is_ok());
        for (const Packet &p : packets)
            ASSERT_TRUE(dec->decode(p, &decoded).is_ok());
        packets.clear();
        decoded.clear();
    }
    EXPECT_EQ(enc->stats().pool.buffer_allocs, enc_allocs)
        << "encoder allocated in steady state";
    EXPECT_EQ(dec->stats().pool.buffer_allocs, dec_allocs)
        << "decoder allocated in steady state";
    EXPECT_GT(enc->stats().pool.buffer_reuses, 0);
    EXPECT_GT(dec->stats().pool.buffer_reuses, 0);

    // Every buffer the encoder holds must come from the pool, or the
    // zero above proves nothing. The three encoders share their frame
    // scaffolding (lookahead copies, reconstruction, two references at
    // refs=2); the quarter-sample encoders additionally hold one
    // pooled centre half-sample plane per reference, so their
    // high-water mark is MPEG-2's plus exactly one buffer per held
    // reference.
    const s64 held_refs = codec == CodecId::kMpeg2 ? 0 : 2;
    EXPECT_EQ(enc->stats().pool.high_water,
              encoder_high_water(CodecId::kMpeg2, cfg) + held_refs)
        << "encoder holds buffers the pool does not account for";
}

TEST_P(PoolSteadyState, DisabledPoolReportsNoActivity)
{
    const CodecId codec = GetParam();
    CodecConfig cfg = pool_config();
    cfg.frame_pool = false;
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kRushHour, cfg.width, cfg.height);
    std::vector<Packet> packets;
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(enc->encode(source.next(), &packets).is_ok());
    const FramePoolStats stats = enc->stats().pool;
    EXPECT_EQ(stats.buffer_allocs, 0);
    EXPECT_EQ(stats.buffer_reuses, 0);
    EXPECT_EQ(stats.outstanding, 0);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, PoolSteadyState,
                         ::testing::Values(CodecId::kMpeg2,
                                           CodecId::kMpeg4,
                                           CodecId::kH264),
                         [](const ::testing::TestParamInfo<CodecId> &i) {
                             return codec_name(i.param);
                         });

// ---- pooling is bitstream- and pixel-invisible ----

struct PoolRun {
    std::vector<Packet> packets;
    std::vector<Frame> decoded;
};

PoolRun
pool_encode_decode(CodecId codec, const CodecConfig &cfg, int frames)
{
    PoolRun run;
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    std::unique_ptr<VideoDecoder> dec = make_decoder(codec, cfg).value();
    SyntheticSource source(SequenceId::kPedestrianArea, cfg.width,
                           cfg.height);
    for (int i = 0; i < frames; ++i)
        EXPECT_TRUE(enc->encode(source.next(), &run.packets).is_ok());
    EXPECT_TRUE(enc->flush(&run.packets).is_ok());
    for (const Packet &p : run.packets)
        EXPECT_TRUE(dec->decode(p, &run.decoded).is_ok());
    dec->flush(&run.decoded);
    return run;
}

class PoolInvariance : public ::testing::TestWithParam<CodecId> {};

TEST_P(PoolInvariance, PoolingInvisibleAcrossThreadsAndSimd)
{
    const CodecId codec = GetParam();
    constexpr int kFrames = 8;

    // Baseline: pool off, single thread, scalar kernels.
    CodecConfig base = pool_config();
    base.frame_pool = false;
    base.threads = 1;
    base.simd = SimdLevel::kScalar;
    const PoolRun baseline = pool_encode_decode(codec, base, kFrames);
    ASSERT_FALSE(baseline.packets.empty());

    for (bool pooled : {false, true}) {
        for (int threads : {1, 2, 4}) {
            for (int s = 0; s <= static_cast<int>(best_simd_level());
                 ++s) {
                CodecConfig cfg = pool_config();
                cfg.frame_pool = pooled;
                cfg.threads = threads;
                cfg.simd = static_cast<SimdLevel>(s);
                SCOPED_TRACE(std::string(codec_name(codec)) +
                             " pool=" + (pooled ? "on" : "off") +
                             " threads=" + std::to_string(threads) +
                             " simd=" + simd_level_name(cfg.simd));
                const PoolRun run =
                    pool_encode_decode(codec, cfg, kFrames);
                ASSERT_EQ(run.packets.size(), baseline.packets.size());
                for (size_t i = 0; i < baseline.packets.size(); ++i) {
                    EXPECT_EQ(run.packets[i].data,
                              baseline.packets[i].data)
                        << "bitstream differs at packet " << i;
                }
                ASSERT_EQ(run.decoded.size(), baseline.decoded.size());
                for (size_t i = 0; i < baseline.decoded.size(); ++i) {
                    for (int p = 0; p < 3; ++p) {
                        EXPECT_EQ(
                            plane_sse(run.decoded[i].plane(p),
                                      baseline.decoded[i].plane(p)),
                            0u)
                            << "pixels differ at frame " << i
                            << " plane " << p;
                    }
                }
            }
        }
    }
}

TEST_P(PoolInvariance, StaleRecycledContentsNeverReachTheStream)
{
    // Recycled buffers keep whatever their last user wrote. Seed an
    // arena with buffers of every plane geometry the codecs use, filled
    // with junk, so that every acquisition — the first picture's
    // included — recycles junk; the stream and the decoded pixels must
    // still equal an unpooled run's.
    const CodecId codec = GetParam();
    CodecConfig cfg = pool_config();
    FrameArena arena;
    {
        FramePool dirty;
        dirty.adopt(arena);
        std::vector<Frame> junk;
        for (int i = 0; i < 8; ++i) {
            for (int border : {0, kRefBorder}) {
                Frame f(cfg.width, cfg.height, border, &dirty);
                for (int p = 0; p < 3; ++p) {
                    Plane &plane = f.plane(p);
                    for (int y = -plane.border();
                         y < plane.height() + plane.border(); ++y) {
                        std::memset(plane.row(y) - plane.left_pad(),
                                    0x5A + 17 * (i + y + p),
                                    static_cast<size_t>(plane.stride()));
                    }
                }
                junk.push_back(std::move(f));
            }
        }
    }

    constexpr int kFrames = 8;
    std::vector<Packet> packets;
    std::unique_ptr<VideoEncoder> enc = make_encoder(codec, cfg).value();
    enc->use_arena(arena);
    SyntheticSource source(SequenceId::kPedestrianArea, cfg.width,
                           cfg.height);
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(enc->encode(source.next(), &packets).is_ok());
    ASSERT_TRUE(enc->flush(&packets).is_ok());
    EXPECT_GT(enc->stats().pool.buffer_reuses, 0);

    cfg.frame_pool = false;
    const PoolRun unpooled = pool_encode_decode(codec, cfg, kFrames);
    ASSERT_EQ(packets.size(), unpooled.packets.size());
    for (size_t i = 0; i < packets.size(); ++i) {
        EXPECT_EQ(packets[i].data, unpooled.packets[i].data)
            << "bitstream differs at packet " << i;
    }

    // The arena now holds the encoder's leftovers: decode through it.
    cfg.frame_pool = true;
    std::unique_ptr<VideoDecoder> dec = make_decoder(codec, cfg).value();
    dec->use_arena(arena);
    std::vector<Frame> decoded;
    for (const Packet &p : packets)
        ASSERT_TRUE(dec->decode(p, &decoded).is_ok());
    ASSERT_TRUE(dec->flush(&decoded).is_ok());
    ASSERT_EQ(decoded.size(), unpooled.decoded.size());
    for (size_t i = 0; i < decoded.size(); ++i) {
        for (int p = 0; p < 3; ++p) {
            EXPECT_EQ(plane_sse(decoded[i].plane(p),
                                unpooled.decoded[i].plane(p)),
                      0u)
                << "pixels differ at frame " << i << " plane " << p;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, PoolInvariance,
                         ::testing::Values(CodecId::kMpeg2,
                                           CodecId::kMpeg4,
                                           CodecId::kH264),
                         [](const ::testing::TestParamInfo<CodecId> &i) {
                             return codec_name(i.param);
                         });

}  // namespace
}  // namespace hdvb
