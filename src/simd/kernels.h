/**
 * @file
 * Internal declarations of the per-level kernel implementations. Only
 * dispatch.cc should include this; everyone else goes through get_dsp().
 */
#ifndef HDVB_SIMD_KERNELS_H
#define HDVB_SIMD_KERNELS_H

#include "common/types.h"
#include "simd/dispatch.h"

namespace hdvb::kernels {

// ---- scalar reference implementations ----
int scalar_sad16x16(const Pixel *a, int as, const Pixel *b, int bs);
int scalar_sad8x8(const Pixel *a, int as, const Pixel *b, int bs);
int scalar_sad_rect(const Pixel *a, int as, const Pixel *b, int bs,
                    int w, int h);
int scalar_sad16x16_et(const Pixel *a, int as, const Pixel *b, int bs,
                       int bound);
int scalar_sad_rect_et(const Pixel *a, int as, const Pixel *b, int bs,
                       int w, int h, int bound);
int scalar_satd4x4(const Pixel *a, int as, const Pixel *b, int bs);
int scalar_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
                     int w, int h);
u64 scalar_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
                    int w, int h);
int scalar_sad_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                        const Pixel *c, int cs, int w, int h);
int scalar_sad_avg4_rect(const Pixel *a, int as, const Pixel *s, int ss,
                         int w, int h);
int scalar_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                         const Pixel *c, int cs, int w, int h);
void scalar_copy_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void scalar_avg_rect(Pixel *dst, int ds, const Pixel *a, int as,
                     const Pixel *b, int bs, int w, int h);
void scalar_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void scalar_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                            int w, int h, int fx, int fy);
void scalar_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
                     const Pixel *pred, int ps, int w, int h);
void scalar_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
                     int w, int h);
void scalar_fdct8x8(Coeff blk[64]);
void scalar_idct8x8(Coeff blk[64]);
void scalar_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                        int w, int h);
void scalar_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                        int w, int h);
void scalar_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                         int w, int h);
int scalar_mpeg_quant8x8(Coeff blk[64], const MpegQuantTable &q);
void scalar_mpeg_dequant8x8(Coeff blk[64], const MpegQuantTable &q);
int scalar_h264_quant4x4(Coeff blk[16], const H264QuantTable &q);
void scalar_h264_dequant4x4(Coeff blk[16], const H264QuantTable &q);
void scalar_h264_inv4x4_add(Pixel *dst, int ds, const Coeff blk[16]);
void scalar_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                                const u8 bs[4], const u8 tc0[4]);
void scalar_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                                const u8 bs[4], const u8 tc0[4]);
void scalar_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride,
                                  int alpha, int beta, const u8 bs[4],
                                  const u8 tc0[4]);
void scalar_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride,
                                  int alpha, int beta, const u8 bs[4],
                                  const u8 tc0[4]);

// ---- SSE2 implementations (compiled only when __SSE2__) ----
#if defined(__SSE2__)
int sse2_sad16x16(const Pixel *a, int as, const Pixel *b, int bs);
/** Aligned-first-operand variant: a % 16 == 0 and as % 16 == 0
 * (movdqa on the current-picture rows). */
int sse2_sad16x16_a(const Pixel *a, int as, const Pixel *b, int bs);
int sse2_sad8x8(const Pixel *a, int as, const Pixel *b, int bs);
int sse2_sad_rect(const Pixel *a, int as, const Pixel *b, int bs,
                  int w, int h);
int sse2_sad16x16_et(const Pixel *a, int as, const Pixel *b, int bs,
                     int bound);
int sse2_sad_rect_et(const Pixel *a, int as, const Pixel *b, int bs,
                     int w, int h, int bound);
int sse2_satd4x4(const Pixel *a, int as, const Pixel *b, int bs);
int sse2_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
                   int w, int h);
u64 sse2_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
                  int w, int h);
int sse2_sad_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                      const Pixel *c, int cs, int w, int h);
int sse2_sad_avg4_rect(const Pixel *a, int as, const Pixel *s, int ss,
                       int w, int h);
int sse2_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                       const Pixel *c, int cs, int w, int h);
void sse2_avg_rect(Pixel *dst, int ds, const Pixel *a, int as,
                   const Pixel *b, int bs, int w, int h);
void sse2_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                    int w, int h);
void sse2_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                          int w, int h, int fx, int fy);
void sse2_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
                   const Pixel *pred, int ps, int w, int h);
void sse2_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
                   int w, int h);
void sse2_fdct8x8(Coeff blk[64]);
void sse2_idct8x8(Coeff blk[64]);
void sse2_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void sse2_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void sse2_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                       int w, int h);
void sse2_h264_inv4x4_add(Pixel *dst, int ds, const Coeff blk[16]);
void sse2_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                              const u8 bs[4], const u8 tc0[4]);
void sse2_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                              const u8 bs[4], const u8 tc0[4]);
void sse2_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride,
                                int alpha, int beta, const u8 bs[4],
                                const u8 tc0[4]);
void sse2_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride,
                                int alpha, int beta, const u8 bs[4],
                                const u8 tc0[4]);
#endif  // __SSE2__

// ---- AVX2 implementations ----
// Compiled in a dedicated TU with -mavx2 (HDVB_BUILD_AVX2 is defined by
// CMake iff that TU is part of the build); they may only be *called*
// after runtime detection says the CPU executes AVX2.
// No avx2_sad*: 16-pixel strided rows cannot fill a ymm without
// cross-lane inserts that cost more than they save, so the avx2 table
// keeps the SSE2 SAD kernels, the averaged ones included (see
// kernels_avx2.cc).
#if defined(HDVB_BUILD_AVX2)
int avx2_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
                   int w, int h);
u64 avx2_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
                  int w, int h);
int avx2_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                       const Pixel *c, int cs, int w, int h);
void avx2_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                    int w, int h);
void avx2_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                          int w, int h, int fx, int fy);
void avx2_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
                   const Pixel *pred, int ps, int w, int h);
void avx2_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
                   int w, int h);
void avx2_fdct8x8(Coeff blk[64]);
void avx2_idct8x8(Coeff blk[64]);
void avx2_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void avx2_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
void avx2_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                       int w, int h);
int avx2_mpeg_quant8x8(Coeff blk[64], const MpegQuantTable &q);
void avx2_mpeg_dequant8x8(Coeff blk[64], const MpegQuantTable &q);
int avx2_h264_quant4x4(Coeff blk[16], const H264QuantTable &q);
void avx2_h264_dequant4x4(Coeff blk[16], const H264QuantTable &q);
void avx2_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                              const u8 bs[4], const u8 tc0[4]);
void avx2_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                              const u8 bs[4], const u8 tc0[4]);
void avx2_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride,
                                int alpha, int beta, const u8 bs[4],
                                const u8 tc0[4]);
void avx2_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride,
                                int alpha, int beta, const u8 bs[4],
                                const u8 tc0[4]);
#endif  // HDVB_BUILD_AVX2

}  // namespace hdvb::kernels

#endif  // HDVB_SIMD_KERNELS_H
