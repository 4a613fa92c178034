#include "common/cli.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

namespace hdvb {

StatusOr<const char *>
cli_value(int argc, char **argv, int *i)
{
    if (*i + 1 >= argc)
        return Status::invalid_argument(std::string(argv[*i]) +
                                        " requires a value");
    ++*i;
    return static_cast<const char *>(argv[*i]);
}

StatusOr<int>
cli_int(const char *flag, const char *text, int min_value, int max_value)
{
    int value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end)
        return Status::invalid_argument(std::string(flag) +
                                        ": not an integer: \"" + text +
                                        "\"");
    if (value < min_value || value > max_value)
        return Status::invalid_argument(
            std::string(flag) + ": " + std::to_string(value) +
            " out of range [" + std::to_string(min_value) + ", " +
            std::to_string(max_value) + "]");
    return value;
}

StatusOr<int>
cli_int_value(int argc, char **argv, int *i, int min_value,
              int max_value)
{
    const char *flag = argv[*i];
    const StatusOr<const char *> text = cli_value(argc, argv, i);
    if (!text.is_ok())
        return text.status();
    return cli_int(flag, text.value(), min_value, max_value);
}

int
cli_usage_error(const char *prog, const Status &status)
{
    std::fprintf(stderr, "%s: %s\n", prog,
                 status.to_string().c_str());
    return 2;
}

}  // namespace hdvb
