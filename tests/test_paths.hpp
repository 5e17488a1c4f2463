// Scratch file names for tests.  ctest runs every test case in its own
// process, and two build trees may run their suites at once, so a fixed
// name (or one derived from an object address, which repeats across
// processes) lets concurrent cases share a file.  The pid separates
// processes; the counter separates calls within one.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <string>

namespace mha::test {

/// `<gtest TempDir>mha_<tag>_<pid>_<n><ext>`, unique per process and call.
inline std::string temp_path(const std::string& tag, const std::string& ext = ".db") {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "mha_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ext;
}

}  // namespace mha::test
