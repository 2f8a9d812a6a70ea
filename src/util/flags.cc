// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/str_util.h"

namespace vcdn::util {

void Flags::Add(std::string name, std::string need, std::function<bool(std::string_view)> set) {
  flags_.push_back(Flag{std::move(name), std::move(need), std::move(set)});
}

void Flags::Count(std::string name, uint64_t* value, uint64_t min, uint64_t max) {
  std::string need = min == 0 ? "an unsigned integer" : "a positive integer";
  if (max != std::numeric_limits<uint64_t>::max()) {
    need = "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  } else if (min > 1) {
    need = "an integer >= " + std::to_string(min);
  }
  Add(std::move(name), std::move(need), [=](std::string_view text) {
    uint64_t parsed = 0;
    if (!ParseUint64(text, &parsed) || parsed < min || parsed > max) {
      return false;
    }
    *value = parsed;
    return true;
  });
}

void Flags::Number(std::string name, double* value, double max) {
  char need[64] = "a positive number";
  if (!std::isinf(max)) {
    std::snprintf(need, sizeof(need), "a number in (0, %g]", max);
  }
  Add(std::move(name), need, [=](std::string_view text) {
    double parsed = 0.0;
    if (!ParseDouble(text, &parsed) || !std::isfinite(parsed) || parsed <= 0.0 || parsed > max) {
      return false;
    }
    *value = parsed;
    return true;
  });
}

void Flags::Text(std::string name, std::string* value) {
  Add(std::move(name), "", [value](std::string_view text) {
    *value = text;
    return true;
  });
}

void Flags::Switch(std::string name, bool* value) {
  Add(std::move(name), "", [value](std::string_view) {
    *value = true;
    return true;
  });
  flags_.back().takes_value = false;
}

Status Flags::Parse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [arg](const Flag& declared) { return declared.name == arg; });
    if (flag == flags_.end()) {
      return InvalidArgumentError((arg.rfind('-', 0) == 0 ? "unknown flag '"
                                                          : "unexpected positional argument '") +
                                  std::string(arg) + "'");
    }
    if (flag->takes_value && i + 1 >= argc) {
      return InvalidArgumentError("flag '" + flag->name + "' is missing its value");
    }
    const char* value = flag->takes_value ? argv[++i] : "";
    if (!flag->set(value)) {
      return InvalidArgumentError("invalid value '" + std::string(value) + "' for flag '" +
                                  flag->name + "' (need " + flag->need + ")");
    }
  }
  return OkStatus();
}

Status Flags::ParseEnvironment() const {
  for (const Flag& flag : flags_) {
    const char* value = std::getenv(flag.name.c_str());
    if (value != nullptr && !flag.set(value)) {
      return InvalidArgumentError("invalid value '" + std::string(value) + "' for " + flag.name +
                                  " (need " + flag.need + ")");
    }
  }
  return OkStatus();
}

void ExitOnUsageError(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    std::exit(2);
  }
}

}  // namespace vcdn::util
