#include "h264/deblock.h"

#include <algorithm>

#include "common/check.h"

namespace hdvb::h264 {

namespace {

// Standard H.264 alpha/beta threshold tables, indexed by QP 0..51.
const u8 kAlpha[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,
    4,  4,  5,  6,  7,  8,  9,  10, 12, 13, 15, 17, 20, 22, 25, 28,
    32, 36, 40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162,
    182, 203, 226, 255, 255,
};

const u8 kBeta[52] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,
    2,  2,  2,  3,  3,  3,  3,  4,  4,  4,  6,  6,  7,  7,  8,  8,
    9,  9,  10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16,
    17, 17, 18, 18,
};

inline int
iabs(int v)
{
    return v < 0 ? -v : v;
}

/**
 * Fast-path smoothness probe (approx >= 2): true when every line of
 * the edge steps by at most one grey level across the boundary. Such
 * edges are visually seamless already, so the filter is skipped before
 * the boundary strength is even computed. Reads 2 samples per line
 * against the filter's 6.
 */
inline bool
edge_is_smooth(const Pixel *q0, int line_step, int cross_step, int n)
{
    for (int i = 0; i < n; ++i) {
        const Pixel *q = q0 + i * line_step;
        if (iabs(q[0] - q[-cross_step]) > 1)
            return false;
    }
    return true;
}

/** Boundary strength between two 4x4 blocks (0 = no filtering). */
inline int
boundary_strength(const BlockInfo &p, const BlockInfo &q,
                  bool mb_boundary)
{
    if (p.intra || q.intra)
        return mb_boundary ? 4 : 3;
    if (p.nonzero || q.nonzero)
        return 2;
    if (p.ref != q.ref || iabs(p.mv.x - q.mv.x) >= 4 ||
        iabs(p.mv.y - q.mv.y) >= 4) {
        return 1;
    }
    return 0;
}

/** Per-segment kernel arguments for one 16-line edge call. */
struct EdgeArgs {
    u8 bs[4] = {};
    u8 tc0[4] = {};
    bool any = false;

    void
    set(int seg, int qp, int strength)
    {
        bs[seg] = static_cast<u8>(strength);
        if (strength != 0) {
            tc0[seg] = static_cast<u8>(deblock_tc0(qp, strength));
            any = true;
        }
    }
};

}  // namespace

DeblockThresholds
deblock_thresholds(int qp)
{
    return {kAlpha[clamp(qp, 0, 51)], kBeta[clamp(qp, 0, 51)]};
}

/** Monotonic approximation of the standard's tc0 clipping table. */
int
deblock_tc0(int qp, int bs)
{
    if (qp < 16)
        return 0;
    const int base = (qp - 12) / 6;
    return base + bs - 1;
}

void
deblock_picture(Frame *frame, const BlockInfoGrid &grid, int qp,
                int approx, const Dsp &dsp)
{
    const auto [alpha, beta] = deblock_thresholds(qp);
    if (alpha == 0 || beta == 0)
        return;
    const bool fast = approx >= 2;
    // A group of 16 lines that runs past the picture edge takes the
    // scalar kernels, which read no line of a segment with bs 0.
    const Dsp &partial = get_dsp(SimdLevel::kScalar);

    Plane &luma = frame->luma();
    const int w4 = grid.width4();
    const int h4 = grid.height4();
    const int stride = luma.stride();

    // Vertical edges (filter across columns), then horizontal edges,
    // 16 lines per call: a vertical edge's filter reads and writes only
    // its own rows, and a horizontal edge's only its own columns, so
    // every sample still sees its edges in the per-segment order.
    for (int by0 = 0; by0 < h4; by0 += 4) {
        const int segs = std::min(4, h4 - by0);
        const Dsp &k = segs == 4 ? dsp : partial;
        for (int bx = 1; bx < w4; ++bx) {
            Pixel *base = luma.row(by0 * 4) + bx * 4;
            EdgeArgs edge;
            for (int s = 0; s < segs; ++s) {
                if (fast && edge_is_smooth(base + s * 4 * stride, stride,
                                           1, 4)) {
                    continue;
                }
                edge.set(s, qp,
                         boundary_strength(grid.at(bx - 1, by0 + s),
                                           grid.at(bx, by0 + s),
                                           bx % 4 == 0));
            }
            if (edge.any) {
                k.h264_deblock_luma_v(base, stride, alpha, beta, edge.bs,
                                      edge.tc0);
            }
        }
    }
    for (int by = 1; by < h4; ++by) {
        for (int bx0 = 0; bx0 < w4; bx0 += 4) {
            const int segs = std::min(4, w4 - bx0);
            const Dsp &k = segs == 4 ? dsp : partial;
            Pixel *base = luma.row(by * 4) + bx0 * 4;
            EdgeArgs edge;
            for (int s = 0; s < segs; ++s) {
                if (fast && edge_is_smooth(base + s * 4, 1, stride, 4))
                    continue;
                edge.set(s, qp,
                         boundary_strength(grid.at(bx0 + s, by - 1),
                                           grid.at(bx0 + s, by),
                                           by % 4 == 0));
            }
            if (edge.any) {
                k.h264_deblock_luma_h(base, stride, alpha, beta, edge.bs,
                                      edge.tc0);
            }
        }
    }

    // Chroma: filter macroblock-boundary edges only, with the same
    // thresholds (chroma QP = luma QP in this codec class). Cb and Cr
    // share each edge's position and strength, so one call filters the
    // 8 lines of both; the smoothness probe still looks at each plane.
    Plane &cb = frame->cb();
    Plane &cr = frame->cr();
    HDVB_DCHECK(cb.stride() == cr.stride());
    const int cs = cb.stride();
    const int cw8 = cb.width() / 8;
    const int ch8 = cb.height() / 8;
    const auto chroma_edge = [&](Pixel *pb, Pixel *pr, int line_step,
                                 int cross_step, const BlockInfo &p,
                                 const BlockInfo &q) {
        const int bs = boundary_strength(p, q, true);
        if (bs == 0)
            return EdgeArgs{};
        EdgeArgs edge;
        const bool skip_cb = fast && edge_is_smooth(pb, line_step,
                                                    cross_step, 8);
        const bool skip_cr = fast && edge_is_smooth(pr, line_step,
                                                    cross_step, 8);
        for (int s = 0; s < 4; ++s)
            edge.set(s, qp, (s < 2 ? skip_cb : skip_cr) ? 0 : bs);
        return edge;
    };
    for (int by = 0; by < ch8; ++by) {
        for (int bx = 1; bx < cw8; ++bx) {
            Pixel *pb = cb.row(by * 8) + bx * 8;
            Pixel *pr = cr.row(by * 8) + bx * 8;
            const EdgeArgs edge =
                chroma_edge(pb, pr, cs, 1, grid.at(bx * 4 - 1, by * 4),
                            grid.at(bx * 4, by * 4));
            if (edge.any) {
                dsp.h264_deblock_chroma_v(pb, pr, cs, alpha, beta,
                                          edge.bs, edge.tc0);
            }
        }
    }
    for (int by = 1; by < ch8; ++by) {
        for (int bx = 0; bx < cw8; ++bx) {
            Pixel *pb = cb.row(by * 8) + bx * 8;
            Pixel *pr = cr.row(by * 8) + bx * 8;
            const EdgeArgs edge =
                chroma_edge(pb, pr, 1, cs, grid.at(bx * 4, by * 4 - 1),
                            grid.at(bx * 4, by * 4));
            if (edge.any) {
                dsp.h264_deblock_chroma_h(pb, pr, cs, alpha, beta,
                                          edge.bs, edge.tc0);
            }
        }
    }
}

}  // namespace hdvb::h264
