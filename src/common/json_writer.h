/**
 * @file
 * Minimal streaming JSON emitter for the machine-readable sweep
 * reports. Handles nesting, comma placement and string escaping; the
 * caller is responsible for well-formedness (every begin has an end,
 * keys only inside objects).
 */
#ifndef HDVB_COMMON_JSON_WRITER_H
#define HDVB_COMMON_JSON_WRITER_H

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hdvb {

/** Builds a JSON document into an in-memory string. */
class JsonWriter
{
  public:
    JsonWriter &begin_object();
    JsonWriter &end_object();
    JsonWriter &begin_array();
    JsonWriter &end_array();

    /** Emit a key; must be followed by a value or begin_*. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &text);
    JsonWriter &value(const char *text);
    /** Locale-independent shortest-round-trip double formatting
     * (std::to_chars): the emitted text parses back with
     * std::from_chars to exactly this double, and the bytes do not
     * depend on LC_NUMERIC. Non-finite doubles emit null. */
    JsonWriter &value(double number);
    JsonWriter &value(s64 number);
    JsonWriter &value(int number) { return value(static_cast<s64>(number)); }
    JsonWriter &value(u64 number);
    JsonWriter &value(bool flag);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

    /** The document built so far. */
    const std::string &str() const { return out_; }

    /**
     * Publish the document to @p path atomically (write to a
     * temporary sibling, then rename), creating parent directories as
     * needed and appending a trailing newline — how every bench
     * commits its machine-readable report.
     */
    Status write_file(const std::string &path) const;

    /** JSON string escaping (quotes, backslash, control characters). */
    static std::string escape(const std::string &text);

  private:
    void separate();

    std::string out_;
    std::vector<bool> has_item_;  ///< per nesting level
    bool after_key_ = false;
};

}  // namespace hdvb

#endif  // HDVB_COMMON_JSON_WRITER_H
