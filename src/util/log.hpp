// Minimal structured logging for the simulator.
//
// Components log through a named `Logger`; the global level filter lets
// benches run silent while tests and examples can turn on tracing for a
// single subsystem (e.g. "nova.sched").
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>

namespace minova::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide minimum level. Defaults to kWarn so tests/benches are quiet.
void set_global_log_level(LogLevel level);

/// Restrict an elevated level to components whose tag starts with `prefix`.
/// Empty prefix (default) applies the global level to everything.
void set_log_component_filter(std::string prefix);

class Logger {
 public:
  explicit Logger(std::string tag) : tag_(std::move(tag)) {}

  bool enabled(LogLevel level) const;

  void trace(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void debug(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void info(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void warn(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void error(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));

  const std::string& tag() const { return tag_; }

 private:
  void vlog(LogLevel level, const char* fmt, std::va_list args) const;

  std::string tag_;
};

}  // namespace minova::util
