#include "util/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace piggyweb::util {

std::optional<MmapFile> MmapFile::open(const std::string& path,
                                       std::string& error) {
  // O_NONBLOCK so that a FIFO without a writer opens at once, to be
  // refused below, instead of blocking; it changes nothing for a regular
  // file.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) {
    error = path + ": " + std::strerror(errno);
    return std::nullopt;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    error = path + ": fstat: " + std::strerror(errno);
    ::close(fd);
    return std::nullopt;
  }
  if (!S_ISREG(st.st_mode)) {
    error = path + ": not a regular file";
    ::close(fd);
    return std::nullopt;
  }
  MmapFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ != 0) {
    void* data = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (data == MAP_FAILED) {
      error = path + ": mmap: " + std::strerror(errno);
      ::close(fd);
      return std::nullopt;
    }
    file.data_ = data;
  }
  // The mapping holds its own reference to the file; the descriptor is no
  // longer needed.
  ::close(fd);
  return file;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

void MmapFile::advise_sequential() {
  if (data_ != nullptr) ::madvise(data_, size_, MADV_SEQUENTIAL);
}

}  // namespace piggyweb::util
