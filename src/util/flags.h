// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The command-line flags of one program. The program declares each flag it
// reads once -- its name, where its value goes and the range the value must
// lie in -- and Parse() reads argv in one pass:
//
//   double days = 7.0;
//   util::Flags flags;
//   flags.Number("--days", &days);
//   util::ExitOnUsageError(flags.Parse(argc, argv));
//
// An undeclared flag, a flag without its value, a stray positional argument
// or a value out of range fails the parse with an error naming it: a typo
// must never run a configuration nobody asked for.

#ifndef VCDN_SRC_UTIL_FLAGS_H_
#define VCDN_SRC_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace vcdn::util {

class Flags {
 public:
  // An unsigned integer in [min, max].
  void Count(std::string name, uint64_t* value, uint64_t min = 0,
             uint64_t max = std::numeric_limits<uint64_t>::max());
  // A finite number in (0, max].
  void Number(std::string name, double* value,
              double max = std::numeric_limits<double>::infinity());
  // One of `choices`, each spelled as `spell(choice)` returns it.
  template <typename T, typename Spell = std::identity>
  void OneOf(std::string name, T* value, std::vector<T> choices, Spell spell = {}) {
    std::vector<std::string> names;
    std::string need = "one of";
    for (const T& choice : choices) {
      names.emplace_back(spell(choice));
      need += (names.size() == 1 ? " " : "|") + names.back();
    }
    Add(std::move(name), std::move(need), [=](std::string_view text) {
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == text) {
          *value = choices[i];
          return true;
        }
      }
      return false;
    });
  }
  // Any text, such as a path or an address.
  void Text(std::string name, std::string* value);
  // A switch: takes no value, and sets `*value` when given.
  void Switch(std::string name, bool* value);

  // Reads argv[1..argc) into the declared flags. The first argument that is
  // not a declared flag, lacks its value or holds a value out of range
  // returns InvalidArgument naming it, e.g. "invalid value '0' for flag
  // '--days' (need a positive number)".
  Status Parse(int argc, const char* const* argv) const;
  // Reads each declared name that is set in the environment, e.g.
  // VCDN_BENCH_DAYS, as Parse reads a flag's value.
  Status ParseEnvironment() const;

 private:
  struct Flag {
    std::string name;
    std::string need;  // the range, as an error states it: "a positive number"
    // Stores `text` when it is in range; returns whether it was.
    std::function<bool(std::string_view text)> set;
    bool takes_value = true;  // false for a switch
  };

  void Add(std::string name, std::string need, std::function<bool(std::string_view)> set);

  std::vector<Flag> flags_;
};

// When `status` is not OK, prints "error: <message>" to stderr and exits
// with status 2, the usage-error exit of every program.
void ExitOnUsageError(const Status& status);

}  // namespace vcdn::util

#endif  // VCDN_SRC_UTIL_FLAGS_H_
