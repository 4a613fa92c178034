#include "simd/dispatch.h"

#include "common/env.h"
#include "common/log.h"
#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hdvb {

namespace {

using namespace hdvb::kernels;

const Dsp kScalarDsp = {
    "scalar",
    scalar_sad16x16,
    scalar_sad16x16,  // alignment buys scalar code nothing
    scalar_sad8x8,
    scalar_sad_rect,
    scalar_sad16x16_et,
    scalar_sad_rect_et,
    scalar_satd4x4,
    scalar_satd_rect,
    scalar_sse_rect,
    scalar_sad_avg_rect,
    scalar_sad_avg4_rect,
    scalar_satd_avg_rect,
    scalar_copy_rect,
    scalar_avg_rect,
    scalar_avg4_rect,
    scalar_qpel_bilin_rect,
    scalar_sub_rect,
    scalar_add_rect,
    scalar_fdct8x8,
    scalar_idct8x8,
    scalar_h264_hpel_h,
    scalar_h264_hpel_v,
    scalar_h264_hpel_hv,
    scalar_mpeg_quant8x8,
    scalar_mpeg_dequant8x8,
    scalar_h264_quant4x4,
    scalar_h264_dequant4x4,
    scalar_h264_inv4x4_add,
    scalar_h264_deblock_luma_v,
    scalar_h264_deblock_luma_h,
    scalar_h264_deblock_chroma_v,
    scalar_h264_deblock_chroma_h,
};

#if defined(__SSE2__)
const Dsp kSse2Dsp = {
    "sse2",
    sse2_sad16x16,
    sse2_sad16x16_a,
    sse2_sad8x8,
    sse2_sad_rect,
    sse2_sad16x16_et,
    sse2_sad_rect_et,
    sse2_satd4x4,
    sse2_satd_rect,
    sse2_sse_rect,
    sse2_sad_avg_rect,
    sse2_sad_avg4_rect,
    sse2_satd_avg_rect,
    scalar_copy_rect,  // block copies are memcpy either way
    sse2_avg_rect,
    sse2_avg4_rect,
    sse2_qpel_bilin_rect,
    sse2_sub_rect,
    sse2_add_rect,
    sse2_fdct8x8,
    sse2_idct8x8,
    sse2_h264_hpel_h,
    sse2_h264_hpel_v,
    sse2_h264_hpel_hv,
    // The vector quantisers lean on pabsw/psignw (SSSE3) and pmulld
    // (SSE4.1), so the SSE2 tier keeps the scalar ones.
    scalar_mpeg_quant8x8,
    scalar_mpeg_dequant8x8,
    scalar_h264_quant4x4,
    scalar_h264_dequant4x4,
    sse2_h264_inv4x4_add,
    sse2_h264_deblock_luma_v,
    sse2_h264_deblock_luma_h,
    sse2_h264_deblock_chroma_v,
    sse2_h264_deblock_chroma_h,
};
#endif

#if defined(HDVB_BUILD_AVX2)
const Dsp kAvx2Dsp = {
    "avx2",
    // SAD stays SSE2: strided 16-byte rows need a vinserti128 per row
    // pair to fill a ymm, which measures slower than xmm psadbw.
    sse2_sad16x16,
    sse2_sad16x16_a,
    sse2_sad8x8,
    sse2_sad_rect,
    sse2_sad16x16_et,
    sse2_sad_rect_et,
    sse2_satd4x4,  // a single 4x4 is too narrow for ymm to help
    avx2_satd_rect,
    avx2_sse_rect,
    sse2_sad_avg_rect,  // xmm-wide, like the SAD entries above
    sse2_sad_avg4_rect,
    avx2_satd_avg_rect,
    scalar_copy_rect,  // block copies are memcpy either way
    sse2_avg_rect,     // every caller averages rows of at most 16
    avx2_avg4_rect,
    avx2_qpel_bilin_rect,
    avx2_sub_rect,
    avx2_add_rect,
    avx2_fdct8x8,
    avx2_idct8x8,
    avx2_h264_hpel_h,
    avx2_h264_hpel_v,
    avx2_h264_hpel_hv,
    avx2_mpeg_quant8x8,
    avx2_mpeg_dequant8x8,
    avx2_h264_quant4x4,
    avx2_h264_dequant4x4,
    sse2_h264_inv4x4_add,  // 4 samples a row: one xmm holds two rows
    avx2_h264_deblock_luma_v,
    avx2_h264_deblock_luma_h,
    avx2_h264_deblock_chroma_v,
    avx2_h264_deblock_chroma_h,
};
#endif

/**
 * CPUID + XGETBV probe for AVX2. All three conditions are required
 * before the -mavx2 objects may run: the CPU advertises AVX2 (leaf 7
 * EBX bit 5), it advertises AVX + OSXSAVE (leaf 1 ECX bits 28/27), and
 * the OS actually saves the ymm state across context switches (XCR0
 * bits 1 and 2 via XGETBV). Skipping the XGETBV check is the classic
 * illegal-instruction bug on OSes that leave AVX state disabled.
 */
bool
cpu_supports_avx2()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (!osxsave || !avx)
        return false;
    u32 xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv"
                     : "=a"(xcr0_lo), "=d"(xcr0_hi)
                     : "c"(0));
    if ((xcr0_lo & 0x6) != 0x6)  // XMM (bit 1) and YMM (bit 2) state
        return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    return (ebx & (1u << 5)) != 0;  // AVX2
#else
    return false;
#endif
}

SimdLevel
probe_simd_level()
{
#if defined(HDVB_BUILD_AVX2)
    if (cpu_supports_avx2())
        return SimdLevel::kAvx2;
#endif
#if defined(__SSE2__)
    return SimdLevel::kSse2;
#else
    return SimdLevel::kScalar;
#endif
}

/** best_simd_level()'s one-time resolution of the HDVB_SIMD override
 * against the detected level. */
SimdLevel
resolve_best_level()
{
    const SimdLevel detected = detected_simd_level();
    const char *env = env_raw("HDVB_SIMD");
    if (env == nullptr)
        return detected;
    SimdLevel forced;
    if (!parse_simd_level(env, &forced)) {
        HDVB_LOG(kWarn) << "HDVB_SIMD=\"" << env
                        << "\" is not one of {" << simd_level_names()
                        << "}; using detected level "
                        << simd_level_name(detected);
        return detected;
    }
    if (forced > detected) {
        HDVB_LOG(kWarn) << "HDVB_SIMD=" << simd_level_name(forced)
                        << " is not supported on this CPU/build; "
                           "clamping to "
                        << simd_level_name(detected);
        return detected;
    }
    return forced;
}

}  // namespace

const char *
simd_level_name(SimdLevel level)
{
    // Exhaustive: adding a SimdLevel without a name is a compile-time
    // warning here, not a silently mislabeled report column.
    switch (level) {
    case SimdLevel::kScalar:
        return "scalar";
    case SimdLevel::kSse2:
        return "sse2";
    case SimdLevel::kAvx2:
        return "avx2";
    }
    return "unknown";
}

const char *
simd_level_names()
{
    return "scalar, sse2, avx2";
}

bool
parse_simd_level(const std::string &name, SimdLevel *out)
{
    for (int i = 0; i < kSimdLevelCount; ++i) {
        const SimdLevel level = static_cast<SimdLevel>(i);
        if (name == simd_level_name(level)) {
            *out = level;
            return true;
        }
    }
    return false;
}

SimdLevel
detected_simd_level()
{
    static const SimdLevel level = probe_simd_level();
    return level;
}

SimdLevel
best_simd_level()
{
    static const SimdLevel level = resolve_best_level();
    return level;
}

const Dsp &
get_dsp(SimdLevel level)
{
    // Clamp to what the hardware can run (also catches enum values
    // above the known range); then fall downward through the tiers the
    // build actually contains.
    if (level > detected_simd_level())
        level = detected_simd_level();
#if defined(HDVB_BUILD_AVX2)
    if (level == SimdLevel::kAvx2)
        return kAvx2Dsp;
#endif
#if defined(__SSE2__)
    if (level >= SimdLevel::kSse2)
        return kSse2Dsp;
#endif
    (void)level;
    return kScalarDsp;
}

}  // namespace hdvb
