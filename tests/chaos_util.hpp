// Helpers shared by the chaos-driven test suites.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "chaos/chaos.hpp"

namespace hydra::test {

/// A failed run's story: its violations, then the full history.
inline std::string describe(const chaos::Report& r) {
  std::string out;
  for (const auto& v : r.violations) out += "  " + v + "\n";
  out += "--- history ---\n" + r.history;
  return out;
}

/// Sweep size from the environment knob `name` (scripts/tier1.sh widens or
/// shrinks the random sweeps through these); `fallback` when the variable
/// is unset or not a positive number.
inline int env_runs(const char* name, int fallback) {
  const char* v = std::getenv(name);
  const int n = v != nullptr ? std::atoi(v) : 0;
  return n > 0 ? n : fallback;
}

/// 64-bit FNV-1a over `bytes`: a digest that, unlike std::hash, is the same
/// on every platform and standard library, so golden values can be pinned.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A run's pinned fingerprint: the history digest plus the headline counts.
struct Golden {
  std::uint64_t digest = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets_acked = 0;
};

inline Golden golden_of(const chaos::Report& r) {
  return {fnv1a64(r.history), r.acked, r.failed, r.gets_acked};
}

inline std::string to_string(const Golden& g) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{0x%016llxULL, %llu, %llu, %llu}",
                static_cast<unsigned long long>(g.digest),
                static_cast<unsigned long long>(g.acked),
                static_cast<unsigned long long>(g.failed),
                static_cast<unsigned long long>(g.gets_acked));
  return buf;
}

}  // namespace hydra::test
