#include "bitstream/resync.h"

#include "common/check.h"

namespace hdvb {

void
escape_emulation(const u8 *data, size_t size, std::vector<u8> *out)
{
    int zero_run = 0;
    for (size_t i = 0; i < size; ++i) {
        const u8 b = data[i];
        if (zero_run >= 2 && b <= 0x03) {
            out->push_back(0x03);
            zero_run = 0;
        }
        out->push_back(b);
        zero_run = b == 0 ? zero_run + 1 : 0;
    }
}

std::vector<u8>
unescape_emulation(const u8 *data, size_t size)
{
    std::vector<u8> out;
    out.reserve(size);
    int zero_run = 0;
    for (size_t i = 0; i < size; ++i) {
        const u8 b = data[i];
        if (zero_run >= 2 && b == 0x03) {
            zero_run = 0;  // emulation-prevention byte: drop it
            continue;
        }
        out.push_back(b);
        zero_run = b == 0 ? zero_run + 1 : 0;
    }
    return out;
}

void
append_resync_marker(std::vector<u8> *out, int row)
{
    HDVB_DCHECK(row >= 0 && row < 256);
    out->push_back(0x00);
    out->push_back(0x00);
    out->push_back(0x01);
    out->push_back(static_cast<u8>(row));
}

std::vector<ResyncMarker>
scan_resync_markers(const std::vector<u8> &data, int max_rows)
{
    std::vector<ResyncMarker> markers;
    if (data.size() < 4)
        return markers;
    for (size_t i = 0; i + 4 <= data.size();) {
        if (data[i] == 0x00 && data[i + 1] == 0x00 && data[i + 2] == 0x01 &&
            data[i + 3] < max_rows) {
            markers.push_back({static_cast<int>(data[i + 3]), i});
            i += 4;
        } else {
            ++i;
        }
    }
    return markers;
}

bool
split_resilient_picture(const std::vector<u8> &data, int mb_rows,
                        ResilientPicture *out)
{
    std::vector<ResyncMarker> markers;
    int last_row = -1;
    for (const ResyncMarker &m : scan_resync_markers(data, mb_rows)) {
        if (m.row > last_row) {
            markers.push_back(m);
            last_row = m.row;
        }
    }
    if (markers.empty())
        return false;

    out->header = unescape_emulation(data.data(), markers.front().pos);
    out->rows.assign(static_cast<size_t>(mb_rows), ResyncSegment{});
    for (size_t i = 0; i < markers.size(); ++i) {
        const size_t begin = markers[i].pos + 4;
        const size_t end =
            i + 1 < markers.size() ? markers[i + 1].pos : data.size();
        out->rows[static_cast<size_t>(markers[i].row)] = {
            data.data() + begin, end - begin};
    }
    return true;
}

}  // namespace hdvb
