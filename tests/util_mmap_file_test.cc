// util::MmapFile refuses anything that is not a regular file, with a
// message. A directory opens on Linux and a pipe stats with size 0, so
// without the check a log path naming one is read as a file of nonsense
// size, the other as an empty log.
#include "util/mmap_file.h"

#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace piggyweb::util {
namespace {

TEST(MmapFile, RefusesADirectory) {
  std::string error;
  EXPECT_FALSE(MmapFile::open(::testing::TempDir(), error).has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
}

TEST(MmapFile, RefusesAPipe) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::string path = "/dev/fd/";
  path += std::to_string(fds[0]);
  std::string error;
  const auto file = MmapFile::open(path, error);
  EXPECT_FALSE(file.has_value());
  EXPECT_NE(error.find("not a regular file"), std::string::npos) << error;
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace piggyweb::util
