// Read-only memory-mapped file region. The binary trace reader serves
// request batches straight from the mapping, so a multi-gigabyte trace
// replays without ever copying the file into heap memory.
//
// This is the project's single home for mmap/OS mapping calls: the
// staticcheck det-banned-call rule rejects mmap/munmap/madvise anywhere
// else, so every mapping goes through this RAII wrapper (see
// analysis/rules.cc os_calls_allowed).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace piggyweb::util {

class MmapFile {
 public:
  // Maps `path` read-only. Returns nullopt (with a message in `error`)
  // when the file cannot be opened, stat'ed, or mapped, or is not a
  // regular file: a directory, pipe or device has no size that says what
  // a read would return. Empty files map successfully to an empty region.
  static std::optional<MmapFile> open(const std::string& path,
                                      std::string& error);

  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  // The mapped bytes; views remain valid while this object lives.
  std::string_view bytes() const {
    return {static_cast<const char*>(data_), size_};
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Advise the kernel the region will be read sequentially (best-effort;
  // replay touches columns front to back).
  void advise_sequential();

 private:
  void* data_ = nullptr;  // nullptr for empty or unmapped regions
  std::size_t size_ = 0;
};

}  // namespace piggyweb::util
