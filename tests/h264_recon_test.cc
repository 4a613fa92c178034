/**
 * @file
 * H.264-class picture reconstruction: the in-loop deblocking filter at
 * picture level, and the residual add that skips uncoded blocks.
 *
 * deblock_picture hands the Dsp kernels 16 lines of an edge per call.
 * DeblockPicture.* builds the expected picture with a local oracle that
 * filters one 4-line segment (8-line chroma edge) per call, in the
 * order of the per-segment loop the grouping replaced, and compares
 * every SIMD level against it. H264Recon.* pins the decoded pixels of
 * a stream made of uncoded blocks, DC-only Intra16 blocks and coded
 * texture, and checks that the encoder's closed-loop reconstruction is
 * the decoder's output.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "core/benchmark.h"
#include "h264/deblock.h"
#include "simd/dispatch.h"
#include "video/frame.h"

namespace hdvb {
namespace {

using h264::BlockInfo;
using h264::BlockInfoGrid;

// ---- picture-level deblocking ----

int
oracle_strength(const BlockInfo &p, const BlockInfo &q, bool mb_boundary)
{
    if (p.intra || q.intra)
        return mb_boundary ? 4 : 3;
    if (p.nonzero || q.nonzero)
        return 2;
    if (p.ref != q.ref || std::abs(p.mv.x - q.mv.x) >= 4 ||
        std::abs(p.mv.y - q.mv.y) >= 4) {
        return 1;
    }
    return 0;
}

bool
oracle_smooth(const Pixel *q0, int line_step, int cross_step, int n)
{
    for (int i = 0; i < n; ++i) {
        const Pixel *q = q0 + i * line_step;
        if (std::abs(q[0] - q[-cross_step]) > 1)
            return false;
    }
    return true;
}

/**
 * deblock_picture as one scalar kernel call per edge segment, in the
 * per-segment order: luma vertical edges row by row, luma horizontal
 * edges, then Cb (vertical, horizontal) and Cr. The kernels leave a
 * segment with bs 0 unread, so each call filters only its own lines.
 */
void
oracle_deblock(Frame *frame, const BlockInfoGrid &grid, int qp,
               int approx)
{
    const h264::DeblockThresholds t = h264::deblock_thresholds(qp);
    if (t.alpha == 0 || t.beta == 0)
        return;
    const bool fast = approx >= 2;
    const Dsp &dsp = get_dsp(SimdLevel::kScalar);
    const auto args = [qp](int bs, int segs, u8 bsv[4], u8 tc0[4]) {
        for (int s = 0; s < 4; ++s) {
            bsv[s] = static_cast<u8>(s < segs ? bs : 0);
            tc0[s] = static_cast<u8>(
                s < segs && bs != 0 ? h264::deblock_tc0(qp, bs) : 0);
        }
    };
    u8 bs[4], tc0[4];

    Plane &luma = frame->luma();
    const int ls = luma.stride();
    for (int by = 0; by < grid.height4(); ++by) {
        for (int bx = 1; bx < grid.width4(); ++bx) {
            Pixel *base = luma.row(by * 4) + bx * 4;
            if (fast && oracle_smooth(base, ls, 1, 4))
                continue;
            args(oracle_strength(grid.at(bx - 1, by), grid.at(bx, by),
                                 bx % 4 == 0),
                 1, bs, tc0);
            dsp.h264_deblock_luma_v(base, ls, t.alpha, t.beta, bs, tc0);
        }
    }
    for (int by = 1; by < grid.height4(); ++by) {
        for (int bx = 0; bx < grid.width4(); ++bx) {
            Pixel *base = luma.row(by * 4) + bx * 4;
            if (fast && oracle_smooth(base, 1, ls, 4))
                continue;
            args(oracle_strength(grid.at(bx, by - 1), grid.at(bx, by),
                                 by % 4 == 0),
                 1, bs, tc0);
            dsp.h264_deblock_luma_h(base, ls, t.alpha, t.beta, bs, tc0);
        }
    }
    for (int comp = 1; comp < 3; ++comp) {
        Plane &plane = frame->plane(comp);
        const int cs = plane.stride();
        for (int by = 0; by < plane.height() / 8; ++by) {
            for (int bx = 1; bx < plane.width() / 8; ++bx) {
                Pixel *base = plane.row(by * 8) + bx * 8;
                if (fast && oracle_smooth(base, cs, 1, 8))
                    continue;
                args(oracle_strength(grid.at(bx * 4 - 1, by * 4),
                                     grid.at(bx * 4, by * 4), true),
                     2, bs, tc0);
                dsp.h264_deblock_chroma_v(base, base, cs, t.alpha, t.beta,
                                          bs, tc0);
            }
        }
        for (int by = 1; by < plane.height() / 8; ++by) {
            for (int bx = 0; bx < plane.width() / 8; ++bx) {
                Pixel *base = plane.row(by * 8) + bx * 8;
                if (fast && oracle_smooth(base, 1, cs, 8))
                    continue;
                args(oracle_strength(grid.at(bx * 4, by * 4 - 1),
                                     grid.at(bx * 4, by * 4), true),
                     2, bs, tc0);
                dsp.h264_deblock_chroma_h(base, base, cs, t.alpha, t.beta,
                                          bs, tc0);
            }
        }
    }
}

/**
 * A decoded-like picture in bands of 8 rows: each band repeats one
 * profile whose level steps from column to column by at most one grey
 * level (where that falls on an edge, the approx >= 2 probe calls it
 * smooth although the filter would change it), by up to 6, or by up
 * to 24; every other band adds mild noise. Values reach both clamp
 * ends.
 */
Frame
random_picture(int w, int h, std::mt19937 &rng)
{
    Frame frame(w, h);
    for (int c = 0; c < 3; ++c) {
        Plane &plane = frame.plane(c);
        std::vector<int> profile(static_cast<size_t>(plane.width()));
        for (int y = 0; y < plane.height(); ++y) {
            if (y % 8 == 0) {
                int level = static_cast<int>(rng() % 256);
                for (int x = 0; x < plane.width(); ++x) {
                    const int kind = static_cast<int>(rng() % 6);
                    const int reach = kind < 2 ? 1 : (kind < 5 ? 6 : 24);
                    level += static_cast<int>(rng() % (2 * reach + 1)) -
                             reach;
                    profile[static_cast<size_t>(x)] = level;
                }
            }
            const bool noisy = (y / 8) % 2 == 1;
            for (int x = 0; x < plane.width(); ++x) {
                const int noise =
                    noisy ? static_cast<int>(rng() % 5) - 2 : 0;
                plane.at(x, y) = clamp_pixel(
                    profile[static_cast<size_t>(x)] + noise);
            }
        }
    }
    return frame;
}

/** Per-MB modes (intra, coded, skipped, moved) with per-block nonzero
 * flags and vectors, so that every boundary strength occurs. */
BlockInfoGrid
random_grid(int w, int h, std::mt19937 &rng)
{
    BlockInfoGrid grid(w, h);
    // Macroblocks cut by the picture edge get modes too.
    for (int mby = 0; mby * 4 < grid.height4(); ++mby) {
        for (int mbx = 0; mbx * 4 < grid.width4(); ++mbx) {
            const int kind = static_cast<int>(rng() % 4);
            const s8 ref = static_cast<s8>(rng() % 2);
            const MotionVector mv{
                static_cast<s16>(static_cast<int>(rng() % 9) - 4),
                static_cast<s16>(static_cast<int>(rng() % 9) - 4)};
            for (int by = 0; by < 4 && mby * 4 + by < grid.height4();
                 ++by) {
                for (int bx = 0; bx < 4 && mbx * 4 + bx < grid.width4();
                     ++bx) {
                    BlockInfo &b = grid.at(mbx * 4 + bx, mby * 4 + by);
                    b.intra = kind == 0;
                    b.nonzero = kind == 1 && rng() % 2 == 0;
                    b.ref = kind == 0 ? -1 : ref;
                    b.mv = kind == 3 ? MotionVector{static_cast<s16>(
                                                        mv.x + bx * 3),
                                                    mv.y}
                                     : mv;
                }
            }
        }
    }
    return grid;
}

bool
same_pixels(const Frame &a, const Frame &b)
{
    for (int c = 0; c < 3; ++c) {
        const Plane &pa = a.plane(c);
        const Plane &pb = b.plane(c);
        for (int y = 0; y < pa.height(); ++y) {
            for (int x = 0; x < pa.width(); ++x) {
                if (pa.at(x, y) != pb.at(x, y))
                    return false;
            }
        }
    }
    return true;
}

struct PictureCase {
    const char *name;
    int width;
    int height;
};

class DeblockPicture : public ::testing::TestWithParam<PictureCase> {};

TEST_P(DeblockPicture, EveryLevelMatchesPerSegmentOracle)
{
    const PictureCase pc = GetParam();
    std::mt19937 rng(pc.width * 31 + pc.height);
    for (const int approx : {0, 2}) {
        for (const int qp : {18, 30, 40, 51}) {
            const Frame input = random_picture(pc.width, pc.height, rng);
            const BlockInfoGrid grid =
                random_grid(pc.width, pc.height, rng);
            Frame expected(pc.width, pc.height);
            expected.copy_from(input);
            oracle_deblock(&expected, grid, qp, approx);
            ASSERT_FALSE(same_pixels(expected, input))
                << "the oracle filtered nothing";
            for (int l = 0; l <= static_cast<int>(detected_simd_level());
                 ++l) {
                const auto level = static_cast<SimdLevel>(l);
                Frame got(pc.width, pc.height);
                got.copy_from(input);
                h264::deblock_picture(&got, grid, qp, approx,
                                      get_dsp(level));
                EXPECT_TRUE(same_pixels(expected, got))
                    << simd_level_name(level) << " approx=" << approx
                    << " qp=" << qp;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DeblockPicture,
    ::testing::Values(PictureCase{"p1088", 1920, 1088},
                      PictureCase{"p576", 720, 576},
                      // Not a multiple of 16 lines or columns: the
                      // partial groups at the picture edge.
                      PictureCase{"partial", 72, 40}),
    [](const ::testing::TestParamInfo<PictureCase> &info) {
        return std::string(info.param.name);
    });

// ---- residual add ----

constexpr int kW = 128;
constexpr int kH = 96;
constexpr int kFrames = 6;

/**
 * Picture t of a sequence built for the zero-block skip: the top half
 * is flat tiles, one grey level per macroblock and plane, unchanged
 * over time (Intra16 blocks whose residual is DC only, then uncoded
 * inter blocks); the bottom half is a 4x4-blocky texture moving two
 * samples a picture (coded inter blocks). The middle macroblock row
 * mixes the two.
 */
Frame
tile_picture(int t)
{
    Frame frame(kW, kH);
    frame.set_poc(t);
    for (int c = 0; c < 3; ++c) {
        Plane &plane = frame.plane(c);
        const int mb = c == 0 ? 16 : 8;
        for (int y = 0; y < plane.height(); ++y) {
            for (int x = 0; x < plane.width(); ++x) {
                const int tile = (x / mb) * 7 + (y / mb) * 3 + c * 5;
                const int texture = ((x * (c == 0 ? 2 : 1) + 2 * t) / 4 *
                                         13 +
                                     y / 4 * 29) %
                                    160;
                const bool flat = y * (c == 0 ? 1 : 2) < kH / 2 + 8;
                plane.at(x, y) = static_cast<Pixel>(
                    flat ? 40 + (tile * 23) % 170 : 50 + texture);
            }
        }
    }
    return frame;
}

CodecConfig
tile_config(SimdLevel level)
{
    CodecConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.qp = 30;
    cfg.bframes = 0;
    cfg.me_range = 8;
    cfg.refs = 2;
    cfg.simd = level;
    return cfg;
}

u64
fnv_pixels(u64 h, const Frame &f)
{
    for (int c = 0; c < 3; ++c) {
        const Plane &plane = f.plane(c);
        for (int y = 0; y < plane.height(); ++y) {
            for (int x = 0; x < plane.width(); ++x) {
                h ^= plane.at(x, y);
                h *= 0x100000001b3ull;
            }
        }
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

// FNV-1a of the decoded pixels of the tile sequence (all frames,
// display order, Y then Cb then Cr), recorded before uncoded blocks
// skipped the inverse transform. The decoder then reconstructed 2050
// blocks without a level, 432 DC-only Intra16 blocks and 1670 coded
// ones from this stream.
constexpr u64 kTileDecodedDigest = 0x2aa541ecee58acd0ull;

TEST(H264Recon, UncodedAndDcOnlyBlocksDecodeUnchanged)
{
    for (int l = 0; l <= static_cast<int>(detected_simd_level()); ++l) {
        const auto level = static_cast<SimdLevel>(l);
        SCOPED_TRACE(simd_level_name(level));
        const CodecConfig cfg = tile_config(level);
        std::unique_ptr<VideoEncoder> enc =
            make_encoder(CodecId::kH264, cfg).value();
        std::vector<Packet> packets;
        for (int t = 0; t < kFrames; ++t)
            ASSERT_TRUE(enc->encode(tile_picture(t), &packets).is_ok());
        ASSERT_TRUE(enc->flush(&packets).is_ok());
        std::unique_ptr<VideoDecoder> dec =
            make_decoder(CodecId::kH264, cfg).value();
        std::vector<Frame> frames;
        for (const Packet &p : packets)
            ASSERT_TRUE(dec->decode(p, &frames).is_ok());
        ASSERT_TRUE(dec->flush(&frames).is_ok());
        ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
        u64 h = 0xcbf29ce484222325ull;
        for (const Frame &f : frames)
            h = fnv_pixels(h, f);
        EXPECT_EQ(hex(h), hex(kTileDecodedDigest));
    }
}

TEST(H264Recon, EncoderReconstructionIsDecoderOutput)
{
    // Without B pictures every encode() codes the picture it is given,
    // so last_reconstruction() follows display order.
    for (const int approx : {0, 2}) {
        for (const bool resilient : {false, true}) {
            CodecConfig cfg = tile_config(best_simd_level());
            cfg.approx = approx;
            cfg.error_resilience = resilient;
            SCOPED_TRACE(::testing::Message() << "approx=" << approx
                                              << " resilient="
                                              << resilient);
            std::unique_ptr<VideoEncoder> enc =
                make_encoder(CodecId::kH264, cfg).value();
            std::vector<Packet> packets;
            std::vector<Frame> recons;
            for (int t = 0; t < kFrames; ++t) {
                const size_t before = packets.size();
                ASSERT_TRUE(
                    enc->encode(tile_picture(t), &packets).is_ok());
                ASSERT_EQ(packets.size(), before + 1);
                const Frame *recon = enc->last_reconstruction();
                ASSERT_NE(recon, nullptr);
                recons.emplace_back(kW, kH);
                recons.back().copy_from(*recon);
            }
            ASSERT_TRUE(enc->flush(&packets).is_ok());
            std::unique_ptr<VideoDecoder> dec =
                make_decoder(CodecId::kH264, cfg).value();
            std::vector<Frame> frames;
            for (const Packet &p : packets)
                ASSERT_TRUE(dec->decode(p, &frames).is_ok());
            ASSERT_TRUE(dec->flush(&frames).is_ok());
            ASSERT_EQ(frames.size(), recons.size());
            for (size_t i = 0; i < frames.size(); ++i)
                EXPECT_TRUE(same_pixels(recons[i], frames[i]))
                    << "picture " << i;
        }
    }
}

}  // namespace
}  // namespace hdvb
