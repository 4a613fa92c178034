/**
 * @file
 * Macroblock concealment for the error-resilient decode paths. Two
 * strategies, per the classic decoder playbook: temporal (copy the
 * co-located macroblock from the newest reference picture — used for P
 * and B pictures) and spatial DC (fill from the reconstructed pixel row
 * directly above — used for intra pictures, which have no reference).
 */
#ifndef HDVB_CODEC_CONCEAL_H
#define HDVB_CODEC_CONCEAL_H

#include <vector>

#include "codec/codec.h"
#include "video/frame.h"

namespace hdvb {

/** Copy the co-located 16x16 luma (8x8 chroma) macroblock at
 * (mbx, mby) from @p ref into @p dst. Frames must share dimensions. */
void conceal_mb_from_ref(Frame *dst, const Frame &ref, int mbx, int mby);

/**
 * Fill the macroblock at (mbx, mby) of @p dst with, per plane, the
 * average of the pixel row directly above the macroblock (mid-grey 128
 * for the top row, which has no neighbour).
 */
void conceal_mb_dc(Frame *dst, int mbx, int mby);

/** How one row of a resilient picture decoded. */
struct RowOutcome {
    bool ok = false;
    /** On failure, the first macroblock column concealed (the rest of
     * the row is concealed too). */
    int bad_from = 0;
};

/**
 * Fold one resilient picture's row outcomes into @p stats: every
 * failed row conceals mb_w - bad_from macroblocks, and every good row
 * after a failed one is a resync. Returns false when every row was
 * lost.
 */
bool tally_resilient_rows(const std::vector<RowOutcome> &rows, int mb_w,
                          DecodeStats *stats);

}  // namespace hdvb

#endif  // HDVB_CODEC_CONCEAL_H
