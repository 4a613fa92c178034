#include "codec/conceal.h"

#include <cstring>

#include "common/check.h"

namespace hdvb {
namespace {

void
copy_block(Plane *dst, const Plane &src, int x, int y, int size)
{
    for (int j = 0; j < size; ++j)
        std::memcpy(dst->row(y + j) + x, src.row(y + j) + x,
                    static_cast<size_t>(size) * sizeof(Pixel));
}

void
dc_fill_block(Plane *plane, int x, int y, int size)
{
    Pixel dc = 128;
    if (y > 0) {
        int sum = 0;
        const Pixel *above = plane->row(y - 1) + x;
        for (int i = 0; i < size; ++i)
            sum += above[i];
        dc = static_cast<Pixel>((sum + size / 2) / size);
    }
    for (int j = 0; j < size; ++j)
        std::memset(plane->row(y + j) + x, dc,
                    static_cast<size_t>(size) * sizeof(Pixel));
}

}  // namespace

void
conceal_mb_from_ref(Frame *dst, const Frame &ref, int mbx, int mby)
{
    HDVB_DCHECK(dst->width() == ref.width() &&
                dst->height() == ref.height());
    copy_block(&dst->luma(), ref.luma(), mbx * 16, mby * 16, 16);
    copy_block(&dst->cb(), ref.cb(), mbx * 8, mby * 8, 8);
    copy_block(&dst->cr(), ref.cr(), mbx * 8, mby * 8, 8);
}

void
conceal_mb_dc(Frame *dst, int mbx, int mby)
{
    dc_fill_block(&dst->luma(), mbx * 16, mby * 16, 16);
    dc_fill_block(&dst->cb(), mbx * 8, mby * 8, 8);
    dc_fill_block(&dst->cr(), mbx * 8, mby * 8, 8);
}

bool
tally_resilient_rows(const std::vector<RowOutcome> &rows, int mb_w,
                     DecodeStats *stats)
{
    bool any_ok = false;
    bool in_error = false;
    for (const RowOutcome &r : rows) {
        if (r.ok) {
            if (in_error) {
                ++stats->resyncs;
                in_error = false;
            }
            any_ok = true;
        } else {
            in_error = true;
            stats->mbs_concealed += mb_w - r.bad_from;
        }
    }
    return any_ok;
}

}  // namespace hdvb
