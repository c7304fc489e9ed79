//===- tests/TestSupport.h - Shared test helpers ----------------*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test binaries. uniqueTempPath keeps tests that
/// ctest schedules concurrently (gtest_discover_tests runs every case,
/// parameter instances included, as its own process) from sharing a
/// scratch file.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_TESTS_TESTSUPPORT_H
#define TWPP_TESTS_TESTSUPPORT_H

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace twpp {

/// A path for scratch file \p Name inside a directory under
/// testing::TempDir() that belongs to this process alone (keyed on the
/// pid) and is removed when the process exits. The file name carries the
/// running test's full name (suite, test and parameter).
inline std::string uniqueTempPath(const std::string &Name) {
  struct ProcessDir {
    std::filesystem::path Path;
    ProcessDir()
        : Path(std::filesystem::path(::testing::TempDir()) /
               ("twpp_test_" + std::to_string(::getpid()))) {
      std::filesystem::create_directories(Path);
    }
    ProcessDir(const ProcessDir &) = delete;
    ProcessDir &operator=(const ProcessDir &) = delete;
    ~ProcessDir() {
      std::error_code Ignored;
      std::filesystem::remove_all(Path, Ignored);
    }
  };
  static ProcessDir Dir;

  std::string Key = "suite";
  if (const ::testing::TestInfo *Info =
          ::testing::UnitTest::GetInstance()->current_test_info())
    Key = std::string(Info->test_suite_name()) + "." + Info->name();
  for (char &C : Key)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '.' &&
        C != '-')
      C = '_';
  return (Dir.Path / (Key + "_" + Name)).string();
}

} // namespace twpp

#endif // TWPP_TESTS_TESTSUPPORT_H
