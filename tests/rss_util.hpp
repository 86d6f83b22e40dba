// Resident-set probe for the tests that pin host memory to bytes touched.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

namespace hydra::test {

/// This process's current resident set (VmRSS in /proc/self/status), in
/// bytes; -1 if it cannot be read.
inline std::int64_t vm_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6)) * 1024;  // kB
  }
  return -1;
}

}  // namespace hydra::test
