/**
 * @file
 * The MPEG-4-ASP-class codec: 8x8 DCT with quarter-sample motion
 * compensation (`qpel`), four-MV macroblocks, median motion-vector
 * prediction, EPZS motion estimation and a tuned quantiser dead zone —
 * the Advanced-Simple-Profile tool set that buys MPEG-4 its ~35 %
 * bitrate advantage over MPEG-2 in the paper's Table V.
 *
 * Benchmark role (paper Table II): stands in for the Xvid encoder and
 * decoder.
 */
#ifndef HDVB_MPEG4_MPEG4_H
#define HDVB_MPEG4_MPEG4_H

#include <memory>

#include "codec/codec.h"

namespace hdvb {

/** Create an MPEG-4-class encoder; config must validate. */
std::unique_ptr<VideoEncoder> create_mpeg4_encoder(
    const CodecConfig &config);

/** Create an MPEG-4-class decoder. */
std::unique_ptr<VideoDecoder> create_mpeg4_decoder(
    const CodecConfig &config);

}  // namespace hdvb

#endif  // HDVB_MPEG4_MPEG4_H
