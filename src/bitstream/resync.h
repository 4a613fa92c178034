/**
 * @file
 * Resynchronisation support for the error-resilient packet layout
 * (CodecConfig::error_resilience). A resilient picture packet is built
 * from byte-aligned segments:
 *
 *     escape(header bytes)
 *     { 00 00 01 <row>  escape(row payload) }   for each macroblock row
 *
 * Emulation-prevention escaping (H.264-style: after two zero bytes a
 * byte <= 0x03 is prefixed with 0x03) guarantees the 4-byte marker
 * cannot occur inside an escaped segment, so on a clean stream the
 * scan below recovers exactly the encoder's segment boundaries. On a
 * corrupted stream the scan is a best-effort recovery tool:
 * split_resilient_picture filters the candidates (strictly increasing
 * rows), and decoders conceal rows whose segment is missing or fails
 * to parse.
 */
#ifndef HDVB_BITSTREAM_RESYNC_H
#define HDVB_BITSTREAM_RESYNC_H

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace hdvb {

/** Sentinel byte each resilient row payload ends with; a decoded row
 * whose trailing sentinel does not match is treated as corrupt even if
 * its entropy decode "succeeded" (the range coder rarely self-detects
 * garbage). */
inline constexpr u32 kRowSentinel = 0xA5;

/** Append @p size bytes of @p data to @p out with emulation-prevention
 * escaping: after two consecutive zero bytes, a byte <= 0x03 is
 * prefixed with an inserted 0x03. */
void escape_emulation(const u8 *data, size_t size, std::vector<u8> *out);

/** Undo escape_emulation over [data, data+size): drop a 0x03 that
 * follows two consecutive zero bytes. Best-effort on corrupt input. */
std::vector<u8> unescape_emulation(const u8 *data, size_t size);

/** Append the 4-byte resync marker 00 00 01 <row> (row < 256). */
void append_resync_marker(std::vector<u8> *out, int row);

/** One marker candidate found by scan_resync_markers. */
struct ResyncMarker {
    int row;     ///< Macroblock row claimed by the marker.
    size_t pos;  ///< Byte offset of the marker's first 00.
};

/**
 * Scan @p data for byte-aligned 00 00 01 RR candidates with
 * RR < @p max_rows. Scanning resumes 4 bytes after each hit, so a
 * marker's own bytes are never re-matched. Returns candidates in
 * stream order; callers impose the strictly-increasing-row filter.
 */
std::vector<ResyncMarker> scan_resync_markers(const std::vector<u8> &data,
                                              int max_rows);

/** One macroblock row's escaped segment in a resilient packet. */
struct ResyncSegment {
    const u8 *data = nullptr;  ///< null when no marker claims the row
    size_t size = 0;           ///< may be 0 even when data is set
};

/** A resilient picture packet split at its resync markers. */
struct ResilientPicture {
    std::vector<u8> header;             ///< unescaped header bytes
    std::vector<ResyncSegment> rows;    ///< one per macroblock row
};

/**
 * Split resilient packet @p data of a picture @p mb_rows macroblock
 * rows high: keep the marker candidates whose rows strictly increase,
 * unescape the header bytes before the first, and map each kept
 * marker to the bytes up to the next one (or the packet end). Returns
 * false, leaving @p out unspecified, when no marker survives. The
 * segments point into @p data and stay escaped, so decoders can
 * unescape rows concurrently.
 */
bool split_resilient_picture(const std::vector<u8> &data, int mb_rows,
                             ResilientPicture *out);

}  // namespace hdvb

#endif  // HDVB_BITSTREAM_RESYNC_H
