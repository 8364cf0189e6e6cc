// psme::core — refcounted ownership of a policy blob's backing bytes.
//
// The zero-copy loader (core/policy_blob.h) turns a blob into
// a CompiledPolicyImage whose entry array, index tables, mode table and
// name/meta arenas are VIEWS into the blob's own bytes. Something must
// therefore own those bytes for as long as any image (or the SidTable
// attached over the name arena) references them — across FleetBoot
// update swaps, delta applies that still read the base image, and
// evaluator rebuilds. PolicyBuffer is that owner: an immutable,
// shared_ptr-managed byte buffer backed either by the heap or by a
// read-only mmap of a blob file (with a plain read() fallback where mmap
// is unavailable). Everyone who borrows from the buffer holds the
// shared_ptr; the mapping is released exactly when the last borrower
// drops it.
//
// The buffer start is guaranteed 8-byte aligned (operator new and mmap
// both give at least that), which is what lets the loader reinterpret
// aligned sections in place — see DESIGN.md "Zero-copy image views".
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace psme::core {

class PolicyBuffer {
 public:
  /// Wraps an existing byte vector without copying (the OTA receive
  /// path: the bytes were already read into a vector).
  [[nodiscard]] static std::shared_ptr<const PolicyBuffer> take(
      std::vector<std::byte> bytes);

  /// Copies `bytes` into a fresh heap buffer. Used when the caller only
  /// has a non-owning span (PolicyBlobReader::load over a span) — the
  /// copy is one memcpy of the whole blob, after which the image borrows.
  [[nodiscard]] static std::shared_ptr<const PolicyBuffer> copy_of(
      std::span<const std::byte> bytes);

  /// Maps `path` read-only via mmap; falls back to a whole-file read()
  /// into the heap when mapping is unavailable (non-POSIX host, empty
  /// file, special filesystem). Returns nullptr and fills `*error` (when
  /// non-null) if the file cannot be opened, sized, or read at all.
  [[nodiscard]] static std::shared_ptr<const PolicyBuffer> map_file(
      const std::string& path, std::string* error = nullptr);

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    if (map_ != nullptr) {
      return {static_cast<const std::byte*>(map_), size_};
    }
    return owned_;
  }

  /// True when the bytes live in a file mapping rather than on the heap.
  [[nodiscard]] bool file_mapped() const noexcept { return map_ != nullptr; }

  PolicyBuffer(const PolicyBuffer&) = delete;
  PolicyBuffer& operator=(const PolicyBuffer&) = delete;
  ~PolicyBuffer();

 private:
  PolicyBuffer() = default;

  std::vector<std::byte> owned_;  // heap-backed storage (map_ == nullptr)
  void* map_ = nullptr;           // mmap base when file-backed
  std::size_t size_ = 0;          // mapped length
};

}  // namespace psme::core
