#include "cli_common.h"

#include <cmath>
#include <cstdio>

#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::tools {

void FlagSet::add_string(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  flags_[name] = {Type::kString, default_value, help, default_value};
}

void FlagSet::add_double(const std::string& name, double default_value,
                         const std::string& help) {
  const auto text = std::to_string(default_value);
  flags_[name] = {Type::kDouble, text, help, text};
}

void FlagSet::add_positive_double(const std::string& name,
                                  double default_value,
                                  const std::string& help) {
  add_double(name, default_value, help);
  flags_[name].positive = true;
}

void FlagSet::add_int(const std::string& name, std::int64_t default_value,
                      const std::string& help) {
  const auto text = std::to_string(default_value);
  flags_[name] = {Type::kInt, text, help, text};
}

void FlagSet::add_bool(const std::string& name, bool default_value,
                       const std::string& help) {
  const std::string text = default_value ? "true" : "false";
  flags_[name] = {Type::kBool, text, help, text};
}

bool FlagSet::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (!util::starts_with(arg, "--")) {
      std::fprintf(stderr, "error: positional argument '%s' not accepted\n",
                   argv[i]);
      print_usage(argv[0]);
      return false;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      value = "true";  // bare boolean
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      print_usage(argv[0]);
      return false;
    }
    if (eq == std::string_view::npos && it->second.type != Type::kBool) {
      std::fprintf(stderr, "error: --%s needs a value (--%s=...)\n",
                   name.c_str(), name.c_str());
      return false;
    }
    // Validate by type.
    switch (it->second.type) {
      case Type::kString:
        break;
      case Type::kDouble: {
        double parsed = 0;
        if (!util::parse_double(value, parsed)) {
          std::fprintf(stderr, "error: --%s expects a number, got '%s'\n",
                       name.c_str(), value.c_str());
          return false;
        }
        if (it->second.positive && !(parsed > 0 && std::isfinite(parsed))) {
          std::fprintf(stderr,
                       "error: --%s must be a finite number > 0, got '%s'\n",
                       name.c_str(), value.c_str());
          return false;
        }
        break;
      }
      case Type::kInt: {
        std::int64_t parsed = 0;
        if (!util::parse_i64(value, parsed)) {
          std::fprintf(stderr, "error: --%s expects an integer, got '%s'\n",
                       name.c_str(), value.c_str());
          return false;
        }
        break;
      }
      case Type::kBool:
        if (value != "true" && value != "false") {
          std::fprintf(stderr,
                       "error: --%s expects true/false, got '%s'\n",
                       name.c_str(), value.c_str());
          return false;
        }
        break;
    }
    it->second.value = value;
  }
  return true;
}

const FlagSet::Flag* FlagSet::find(const std::string& name,
                                   Type type) const {
  const auto it = flags_.find(name);
  PW_EXPECT(it != flags_.end());
  PW_EXPECT(it->second.type == type);
  return &it->second;
}

std::string FlagSet::get_string(const std::string& name) const {
  return find(name, Type::kString)->value;
}

double FlagSet::get_double(const std::string& name) const {
  double out = 0;
  PW_ENSURE(util::parse_double(find(name, Type::kDouble)->value, out));
  return out;
}

std::int64_t FlagSet::get_int(const std::string& name) const {
  std::int64_t out = 0;
  PW_ENSURE(util::parse_i64(find(name, Type::kInt)->value, out));
  return out;
}

bool FlagSet::get_bool(const std::string& name) const {
  return find(name, Type::kBool)->value == "true";
}

void FlagSet::print_usage(const char* argv0) const {
  std::fprintf(stderr, "%s — %s\n\nflags:\n", argv0, summary_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-18s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_text.c_str());
  }
}

void add_observability_flags(FlagSet& flags) {
  flags.add_string("metrics-out", "",
                   "write a JSON run manifest (config echo + metrics "
                   "registry snapshot) to this file");
  flags.add_string("trace-out", "",
                   "write a Chrome trace-event JSON file (chrome://tracing, "
                   "Perfetto) to this file");
  flags.add_string("prom-out", "",
                   "write a Prometheus text exposition of the metrics "
                   "registry (histogram buckets + p50/p90/p99/p99.9 "
                   "gauges) to this file");
}

std::unique_ptr<obs::RunScope> make_run_scope(const FlagSet& flags,
                                              std::string run_name,
                                              int argc, char** argv) {
  obs::RunScope::Options options;
  options.run_name = std::move(run_name);
  options.metrics_path = flags.get_string("metrics-out");
  options.trace_path = flags.get_string("trace-out");
  options.prom_path = flags.get_string("prom-out");
  if (options.metrics_path.empty() && options.trace_path.empty() &&
      options.prom_path.empty()) {
    return nullptr;
  }
  options.argv.reserve(static_cast<std::size_t>(argc > 1 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) options.argv.emplace_back(argv[i]);
  return std::make_unique<obs::RunScope>(std::move(options));
}

}  // namespace piggyweb::tools
