// A scratch directory private to the running test case. ctest runs every
// gtest case as its own process, in parallel under -j, and two builds'
// suites may run on one machine at once, so a fixed temp path lets cases
// delete or fill each other's files. The name carries the suite, the case
// and the pid; the directory starts empty and is removed on destruction
// (a fixture member goes away right after TearDown).
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace qc {

class TestDir {
 public:
  TestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "qc_" + std::string(info->test_suite_name()) + "_" + info->name() + "_" +
                       std::to_string(::getpid());
    // Parameterized suites and cases carry '/' ("Policies/Fixture"): keep
    // the directory one level deep so the destructor removes all of it.
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// `name` inside the directory, as a string (for config fields).
  std::string Path(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace qc
