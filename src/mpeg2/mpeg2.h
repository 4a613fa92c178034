/**
 * @file
 * The MPEG-2-class codec: 8x8 DCT, 16x16 macroblocks, half-sample
 * bilinear motion compensation, I/P/B pictures, fixed run/level VLC.
 *
 * Benchmark role (paper Table II): stands in for the libmpeg2 decoder
 * and the FFmpeg MPEG-2 encoder — the fastest, least compression-
 * efficient generation of the three.
 */
#ifndef HDVB_MPEG2_MPEG2_H
#define HDVB_MPEG2_MPEG2_H

#include <memory>

#include "codec/codec.h"

namespace hdvb {

/** Create an MPEG-2-class encoder; config must validate. */
std::unique_ptr<VideoEncoder> create_mpeg2_encoder(
    const CodecConfig &config);

/** Create an MPEG-2-class decoder. */
std::unique_ptr<VideoDecoder> create_mpeg2_decoder(
    const CodecConfig &config);

}  // namespace hdvb

#endif  // HDVB_MPEG2_MPEG2_H
