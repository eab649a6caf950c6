// obs::write_file, the one writer behind every file the tools produce:
// content round-trips, an existing file is replaced, no temp file survives
// success or failure, errors name the path, and a target that is not a
// regular file is written in place rather than renamed over. Each case runs
// through both forms: the whole text at once, and streamed in chunks.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace gemsd {
namespace {

namespace fs = std::filesystem;

/// obs::write_file in its string form, or in its streaming form fed in
/// chunks of at most 4 KiB.
std::string write_file(bool streamed, const std::string& path,
                       const std::string& text) {
  if (!streamed) return obs::write_file(path, text);
  return obs::write_file(path, [&text](const obs::ByteSink& put) {
    const std::string_view all(text);
    for (std::size_t i = 0; i < all.size(); i += 4096) {
      put(all.substr(i, 4096));
    }
  });
}

/// A fresh directory per test, removed afterwards.
class WriteFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gemsd_write_file_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// Files in the test directory whose name ends in ".tmp".
  int temp_files() const {
    int n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_)) {
      if (e.path().extension() == ".tmp") ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(WriteFile, ContentRoundTrips) {
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "whole");
    const std::string text = "{\"a\":1}\nsecond line\n" +
                             std::string(10000, streamed ? 's' : 'w');
    const std::string p = path("sub/dir/out.json");  // parents are created
    EXPECT_EQ(write_file(streamed, p, text), "");
    EXPECT_EQ(slurp(p), text);
    EXPECT_EQ(write_file(streamed, path("empty.txt"), ""), "");
    EXPECT_TRUE(fs::is_regular_file(path("empty.txt")));
    EXPECT_EQ(fs::file_size(path("empty.txt")), 0u);
  }
}

TEST_F(WriteFile, ReplacesExistingFile) {
  const std::string p = path("out.json");
  ASSERT_EQ(obs::write_file(p, "a much longer first version\n"), "");
  // A reader that opened the old file still reads it whole: the new content
  // arrives by rename, never by truncating the file in place.
  std::ifstream reader(p, std::ios::binary);
  ASSERT_EQ(obs::write_file(p, "v2\n"), "");
  EXPECT_EQ(slurp(p), "v2\n");
  std::ostringstream old;
  old << reader.rdbuf();
  EXPECT_EQ(old.str(), "a much longer first version\n");
}

TEST_F(WriteFile, LeavesNoTempFile) {
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "whole");
    ASSERT_EQ(write_file(streamed, path("ok.json"), "ok"), "");
    EXPECT_EQ(temp_files(), 0);
    // A file-size limit fails the write after the temp file exists (EFBIG;
    // SIGXFSZ ignored so the process survives it).
    struct rlimit old;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old), 0);
    struct rlimit small = old;
    small.rlim_cur = 4096;
    const auto prev_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
    const std::string err =
        write_file(streamed, path("big.json"), std::string(1 << 20, 'x'));
    ::setrlimit(RLIMIT_FSIZE, &old);
    std::signal(SIGXFSZ, prev_handler);
    EXPECT_NE(err.find(path("big.json")), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(path("big.json")));
    EXPECT_EQ(temp_files(), 0);
  }
}

TEST_F(WriteFile, NotADirectoryErrorNamesPath) {
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "whole");
    ASSERT_EQ(write_file(streamed, path("plain"), "x"), "");
    const std::string p = path("plain") + "/m.json";
    const std::string err = write_file(streamed, p, "x");
    EXPECT_NE(err.find(p), std::string::npos) << err;
    EXPECT_NE(err.find("Not a directory"), std::string::npos) << err;
    EXPECT_EQ(slurp(path("plain")), "x");
    EXPECT_EQ(temp_files(), 0);
  }
}

// Only /dev/full: a wrong implementation would write a temp file beside it
// and, run as root, rename a regular file over the device node. Written in
// place, the write fails with the device's own error and the node stays a
// device.
TEST_F(WriteFile, NonRegularTargetIsWrittenInPlace) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const bool streamed : {false, true}) {
    SCOPED_TRACE(streamed ? "streamed" : "whole");
    // Streamed, the chunks outgrow stdio's buffer, so the failure surfaces
    // in a write and the rest of the chunks are dropped.
    const std::string err = write_file(
        streamed, "/dev/full", streamed ? std::string(1 << 16, 'x') : "x");
    EXPECT_NE(err.find("cannot write /dev/full: No space left on device"),
              std::string::npos)
        << err;
    struct stat st;
    ASSERT_EQ(::lstat("/dev/full", &st), 0);
    EXPECT_TRUE(S_ISCHR(st.st_mode));
    EXPECT_FALSE(
        fs::exists("/dev/full." + std::to_string(::getpid()) + ".tmp"));
  }
}

// An emitter that throws leaves neither the target nor a temp file.
TEST_F(WriteFile, StreamedEmitterThatThrowsLeavesNothing) {
  const std::string p = path("partial.json");
  EXPECT_THROW(obs::write_file(p,
                               [](const obs::ByteSink& put) {
                                 put("{\"half\":");
                                 throw std::runtime_error("emitter failed");
                               }),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(p));
  EXPECT_EQ(temp_files(), 0);
}

}  // namespace
}  // namespace gemsd
