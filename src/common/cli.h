/**
 * @file
 * Strict argv parsing shared by the example binaries and the benches.
 *
 * Every CLI in the repo used the same two latent bugs: a `next()`
 * lambda that returned "" when a trailing flag had no value, and
 * std::atoi, which turns both that "" and any malformed number into a
 * silent 0 (so `-frames` at the end of the line quietly encoded zero
 * frames). These helpers give argv values the same contract as
 * HDVB_* environment variables (src/common/env.h) and the container
 * header parser (src/core/runner.cc): full-token std::from_chars
 * validation and a hard, printed error instead of a guessed value.
 */
#ifndef HDVB_COMMON_CLI_H
#define HDVB_COMMON_CLI_H

#include <climits>

#include "common/status.h"

namespace hdvb {

/**
 * The value token following the flag at argv[*i], advancing *i past
 * it. A flag at the end of the line is an invalid-argument error, not
 * an empty string.
 */
StatusOr<const char *> cli_value(int argc, char **argv, int *i);

/**
 * Strictly parsed integer @p text for flag @p flag: the whole token
 * must parse ("8x", "3 4" and "" are errors, not prefixes) and lie in
 * [@p min_value, @p max_value].
 */
StatusOr<int> cli_int(const char *flag, const char *text,
                      int min_value = INT_MIN, int max_value = INT_MAX);

/** cli_value() + cli_int() for the flag at argv[*i]. */
StatusOr<int> cli_int_value(int argc, char **argv, int *i,
                            int min_value = INT_MIN,
                            int max_value = INT_MAX);

/** Print @p status to stderr as "<prog>: <message>" and return the
 * conventional CLI exit code 2 (usage error). */
int cli_usage_error(const char *prog, const Status &status);

}  // namespace hdvb

#endif  // HDVB_COMMON_CLI_H
