/**
 * @file
 * QuietLog: silence warn(), inform() and status() for one scope. The
 * fuzzers and crash replays feed recovery code damaged input on
 * purpose, and each rejection would otherwise log a warning.
 */

#ifndef SOFTWATT_TESTS_QUIET_LOG_HH
#define SOFTWATT_TESTS_QUIET_LOG_HH

#include "sim/logging.hh"

namespace softwatt
{

/** Set the log level to Quiet for one scope, then restore it. */
class QuietLog
{
  public:
    QuietLog() : saved(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved); }

    QuietLog(const QuietLog &) = delete;
    QuietLog &operator=(const QuietLog &) = delete;

  private:
    LogLevel saved;
};

} // namespace softwatt

#endif // SOFTWATT_TESTS_QUIET_LOG_HH
