#include "common/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/check.h"

namespace hdvb {

Status
JsonWriter::write_file(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    const std::string tmp_path = path + ".tmp";
    std::FILE *f = std::fopen(tmp_path.c_str(), "w");
    if (f == nullptr)
        return Status::invalid_argument("cannot open " + tmp_path);
    const bool ok =
        std::fwrite(out_.data(), 1, out_.size(), f) == out_.size() &&
        std::fputc('\n', f) != EOF;
    if (std::fclose(f) != 0 || !ok) {
        std::remove(tmp_path.c_str());
        return Status::internal("short write to " + tmp_path);
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        return Status::internal("cannot rename " + tmp_path);
    }
    return Status::ok();
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_item_.empty()) {
        if (has_item_.back())
            out_ += ',';
        has_item_.back() = true;
    }
}

JsonWriter &
JsonWriter::begin_object()
{
    separate();
    out_ += '{';
    has_item_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_object()
{
    has_item_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::begin_array()
{
    separate();
    out_ += '[';
    has_item_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_array()
{
    has_item_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    out_ += '"';
    out_ += escape(name);
    out_ += "\":";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    separate();
    out_ += '"';
    out_ += escape(text);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    separate();
    if (!std::isfinite(number)) {
        out_ += "null";  // JSON has no inf/nan
        return *this;
    }
    // Shortest round-trip formatting. snprintf("%.6g") had two bugs
    // no report reader can live with: the decimal separator
    // follows LC_NUMERIC (a comma locale emitted invalid JSON), and 6
    // significant digits quantized every measurement. std::to_chars
    // is locale-independent and emits the shortest string that parses
    // back to exactly this double.
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), number);
    HDVB_DCHECK(ec == std::errc());
    out_.append(buf, ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(s64 number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(u64 number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

std::string
JsonWriter::escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace hdvb
