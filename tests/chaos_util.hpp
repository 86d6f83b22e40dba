// Helpers shared by the chaos-driven test suites.
#pragma once

#include <cstdlib>
#include <string>

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

}  // namespace hydra::test
