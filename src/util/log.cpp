#include "util/log.hpp"

#include <cstdio>

namespace minova::util {

namespace {
LogLevel g_level = LogLevel::kWarn;
std::string g_component_filter;  // empty = match all

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_global_log_level(LogLevel level) { g_level = level; }
void set_log_component_filter(std::string prefix) {
  g_component_filter = std::move(prefix);
}

bool Logger::enabled(LogLevel level) const {
  if (int(level) >= int(LogLevel::kWarn)) return int(level) >= int(g_level);
  if (int(level) < int(g_level)) return false;
  if (g_component_filter.empty()) return true;
  return tag_.rfind(g_component_filter, 0) == 0;
}

void Logger::vlog(LogLevel level, const char* fmt, std::va_list args) const {
  std::fprintf(stderr, "[%s] %s: ", level_name(level), tag_.c_str());
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
}

#define MINOVA_DEFINE_LEVEL_FN(name, level)                 \
  void Logger::name(const char* fmt, ...) const {           \
    if (!enabled(level)) return;                            \
    std::va_list args;                                      \
    va_start(args, fmt);                                    \
    vlog(level, fmt, args);                                 \
    va_end(args);                                           \
  }

MINOVA_DEFINE_LEVEL_FN(trace, LogLevel::kTrace)
MINOVA_DEFINE_LEVEL_FN(debug, LogLevel::kDebug)
MINOVA_DEFINE_LEVEL_FN(info, LogLevel::kInfo)
MINOVA_DEFINE_LEVEL_FN(warn, LogLevel::kWarn)
MINOVA_DEFINE_LEVEL_FN(error, LogLevel::kError)

#undef MINOVA_DEFINE_LEVEL_FN

}  // namespace minova::util
