/**
 * @file
 * Unit tests for the JSON emitter behind the sweep reports.
 */
#include <gtest/gtest.h>

#include <charconv>
#include <clocale>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/json_writer.h"

namespace hdvb {
namespace {

TEST(JsonWriter, NestedDocumentWithCommas)
{
    JsonWriter json;
    json.begin_object();
    json.field("name", "sweep");
    json.field("jobs", 4);
    json.field("wall", 1.5);
    json.field("ok", true);
    json.key("points");
    json.begin_array();
    json.begin_object();
    json.field("i", 0);
    json.end_object();
    json.begin_object();
    json.field("i", 1);
    json.end_object();
    json.end_array();
    json.end_object();
    EXPECT_EQ(json.str(),
              "{\"name\":\"sweep\",\"jobs\":4,\"wall\":1.5,"
              "\"ok\":true,\"points\":[{\"i\":0},{\"i\":1}]}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string("x\x01y")), "x\\u0001y");
    JsonWriter json;
    json.begin_object();
    json.field("k\"ey", "v\\al");
    json.end_object();
    EXPECT_EQ(json.str(), "{\"k\\\"ey\":\"v\\\\al\"}");
}

TEST(JsonWriter, TopLevelScalarsAndArrays)
{
    JsonWriter json;
    json.begin_array();
    json.value(1);
    json.value(2.25);
    json.value("three");
    json.value(false);
    json.value(u64{18446744073709551615ull});
    json.end_array();
    EXPECT_EQ(json.str(),
              "[1,2.25,\"three\",false,18446744073709551615]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.begin_array();
    json.value(std::numeric_limits<double>::infinity());
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.end_array();
    EXPECT_EQ(json.str(), "[null,null]");
}

TEST(JsonWriter, DoublesUseShortestRoundTripForm)
{
    // The old "%.6g" emitter truncated 943.112437 to "943.112" —
    // every fps in a report lost precision. std::to_chars emits
    // the shortest string that strtod/from_chars maps back to the
    // exact same bits.
    JsonWriter json;
    json.begin_array();
    json.value(943.112437);
    json.value(0.1);
    json.value(1.0 / 3.0);
    json.value(1e-300);
    json.end_array();
    EXPECT_EQ(json.str(),
              "[943.112437,0.1,0.3333333333333333,1e-300]");
    // Shortest form: integral doubles do not grow a mantissa tail.
    JsonWriter ints;
    ints.begin_array();
    ints.value(25.0);
    ints.value(-0.0);
    ints.end_array();
    EXPECT_EQ(ints.str(), "[25,-0]");
}

TEST(JsonWriter, DoubleRoundTripIsExact)
{
    // The report contract: every finite double the writer emits
    // parses back (std::from_chars, as any strict reader does) to the
    // same bits, extremes and signed zero included.
    const double values[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        0.1,
        2.5,
        1e-300,
        1.7976931348623157e308,   // DBL_MAX
        4.9406564584124654e-324,  // min subnormal
        123456789.123456789,
        -987654321.0e-12,
        943.112,
        std::numeric_limits<double>::epsilon(),
    };
    for (const double v : values) {
        JsonWriter json;
        json.value(v);
        const std::string &text = json.str();
        double back = 0.0;
        const auto [ptr, ec] =
            std::from_chars(text.data(), text.data() + text.size(), back);
        ASSERT_EQ(ec, std::errc()) << text;
        EXPECT_EQ(ptr, text.data() + text.size()) << text;
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << "not bit-exact: " << text;
    }
}

std::string
emit_report_fragment()
{
    JsonWriter json;
    json.begin_object();
    json.field("fps", 943.112437);
    json.field("cov", 0.051);
    json.field("wall", 1.5);
    json.key("samples");
    json.begin_array();
    json.value(129.69);
    json.value(0.3333333333333333);
    json.end_array();
    json.end_object();
    return json.str();
}

TEST(JsonWriter, OutputIsLocaleIndependent)
{
    // Regression test for the snprintf("%.6g") emitter: under a
    // comma-decimal locale it produced "943,112" — unparseable JSON.
    // std::to_chars never consults the locale, so the bytes must be
    // identical no matter what LC_NUMERIC says.
    const std::string reference = emit_report_fragment();
    EXPECT_NE(reference.find("943.112437"), std::string::npos);

    const char *comma_locales[] = {"de_DE.UTF-8", "de_DE.utf8",
                                   "de_DE", "fr_FR.UTF-8", "fr_FR"};
    const char *active = nullptr;
    for (const char *name : comma_locales) {
        if (std::setlocale(LC_NUMERIC, name) != nullptr) {
            active = name;
            break;
        }
    }
    if (active == nullptr)
        GTEST_SKIP()
            << "no comma-decimal locale installed in this image";

    // Prove the locale actually switched the C library's decimal
    // point, then emit again and demand byte identity.
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.1f", 1.5);
    const bool comma_active = std::string(probe) == "1,5";
    const std::string under_locale = emit_report_fragment();
    std::setlocale(LC_NUMERIC, "C");
    ASSERT_TRUE(comma_active) << "locale " << active
                              << " did not use comma decimals";
    EXPECT_EQ(under_locale, reference);
}

}  // namespace
}  // namespace hdvb
