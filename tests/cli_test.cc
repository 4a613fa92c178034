/**
 * @file
 * The strict argv parser (src/common/cli.h): every path that the old
 * next()/std::atoi idiom got wrong — a trailing flag with no value, a
 * malformed or partial number, an out-of-range value — must be a hard
 * error, and the happy paths must advance the cursor exactly like the
 * hand-rolled loops they replaced.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.h"

namespace hdvb {
namespace {

/** argv builder: gtest-owned storage, char** view. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> tokens)
        : tokens_(std::move(tokens))
    {
        for (std::string &token : tokens_)
            argv_.push_back(token.data());
    }

    int argc() const { return static_cast<int>(argv_.size()); }
    char **argv() { return argv_.data(); }

  private:
    std::vector<std::string> tokens_;
    std::vector<char *> argv_;
};

TEST(CliValue, ReturnsNextTokenAndAdvances)
{
    Argv a({"prog", "-frames", "25", "-o"});
    int i = 1;
    const StatusOr<const char *> value = cli_value(a.argc(), a.argv(), &i);
    ASSERT_TRUE(value.is_ok());
    EXPECT_STREQ(value.value(), "25");
    EXPECT_EQ(i, 2);
}

TEST(CliValue, TrailingFlagIsAnErrorNotEmptyString)
{
    // The shared next() lambda bug: `player_benchmark -frames` used to
    // return "" here, which atoi turned into frames=0.
    Argv a({"prog", "-frames"});
    int i = 1;
    const StatusOr<const char *> value = cli_value(a.argc(), a.argv(), &i);
    ASSERT_FALSE(value.is_ok());
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().to_string().find("requires a value"),
              std::string::npos);
}

TEST(CliInt, ParsesFullToken)
{
    const StatusOr<int> v = cli_int("-frames", "250");
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(v.value(), 250);
}

TEST(CliInt, AcceptsNegativeWithinRange)
{
    const StatusOr<int> v = cli_int("-bias", "-3", -10, 10);
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(v.value(), -3);
}

TEST(CliInt, RejectsEverythingAtoiSilentlyAccepted)
{
    // Each of these was a silent 0 (or a silent prefix) under atoi.
    for (const char *bad : {"", "abc", "12x", "0x10", "3 4", " 7", "7 "}) {
        SCOPED_TRACE(std::string("token \"") + bad + "\"");
        const StatusOr<int> v = cli_int("-frames", bad);
        ASSERT_FALSE(v.is_ok());
        EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
        // The message must name the flag so the user can find it.
        EXPECT_NE(v.status().to_string().find("-frames"),
                  std::string::npos);
    }
}

TEST(CliInt, EnforcesRange)
{
    EXPECT_FALSE(cli_int("-threads", "0", 1, 64).is_ok());
    EXPECT_FALSE(cli_int("-threads", "65", 1, 64).is_ok());
    EXPECT_TRUE(cli_int("-threads", "1", 1, 64).is_ok());
    EXPECT_TRUE(cli_int("-threads", "64", 1, 64).is_ok());
}

TEST(CliInt, RejectsOverflow)
{
    EXPECT_FALSE(cli_int("-frames", "99999999999999999999").is_ok());
}

TEST(CliIntValue, CombinesLookupAndParse)
{
    Argv a({"prog", "-frames", "8"});
    int i = 1;
    const StatusOr<int> v = cli_int_value(a.argc(), a.argv(), &i, 1, 100);
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(v.value(), 8);
    EXPECT_EQ(i, 2);
}

TEST(CliIntValue, PropagatesMissingValueAndBadNumber)
{
    {
        Argv a({"prog", "-frames"});
        int i = 1;
        EXPECT_EQ(cli_int_value(a.argc(), a.argv(), &i).status().code(),
                  StatusCode::kInvalidArgument);
    }
    {
        Argv a({"prog", "-frames", "lots"});
        int i = 1;
        EXPECT_EQ(cli_int_value(a.argc(), a.argv(), &i).status().code(),
                  StatusCode::kInvalidArgument);
    }
}

TEST(CliUsageError, ReturnsConventionalExitCode)
{
    EXPECT_EQ(cli_usage_error("prog",
                              Status::invalid_argument("boom")),
              2);
}

}  // namespace
}  // namespace hdvb
