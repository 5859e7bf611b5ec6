// Strict flag values for the example binaries: a number parses in full
// (core::parse_integer / parse_number, KeyValueConfig's rule) or the program
// exits 2 naming the flag before any work starts, so '1O' never runs as 1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/config.h"

namespace cn::examples {

template <typename T>
T int_flag(const char* argv0, const std::string& flag, const char* v) {
  int64_t n = 0;
  if (!core::parse_integer(v, n) || n < std::numeric_limits<T>::min() ||
      n > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", argv0,
                 flag.c_str(), v);
    std::exit(2);
  }
  return static_cast<T>(n);
}

inline double number_flag(const char* argv0, const std::string& flag,
                          const char* v) {
  double x = 0.0;
  if (!core::parse_number(v, x)) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", argv0,
                 flag.c_str(), v);
    std::exit(2);
  }
  return x;
}

inline float float_flag(const char* argv0, const std::string& flag,
                        const char* v) {
  return static_cast<float>(number_flag(argv0, flag, v));
}

}  // namespace cn::examples
