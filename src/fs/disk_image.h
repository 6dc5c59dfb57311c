// Virtual-disk image file: the authoritative byte store behind a VM's
// virtual disk (the "raw image file located in the local SSD" of the
// evaluation setup).
//
// Content is chunked so multi-GB images cost memory only for bytes actually
// written, and chunks are copy-on-write mem::Buffer views, so a buffer
// written to several images (the replicas of a preloaded block) is held
// once. Timing is *not* modelled here — the guest path charges virtio-blk +
// disk time, the host path charges loop-device + disk time; both read the
// same bytes, which is what makes vRead's direct image access byte-correct
// by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "mem/buffer.h"

namespace vread::fs {

class DiskImage {
 public:
  static constexpr std::uint64_t kChunkSize = 256 * 1024;

  explicit DiskImage(std::uint64_t size_bytes) : size_(size_bytes), id_(next_id_++) {}

  std::uint64_t size() const { return size_; }

  // Stable identity used as the page-cache object id for host-side caching
  // of the image file itself.
  std::uint64_t id() const { return id_; }

  void write(std::uint64_t offset, const std::uint8_t* data, std::uint64_t len) {
    for_each_piece(offset, len, [&](std::uint64_t chunk, std::uint64_t within,
                                    std::uint64_t done, std::uint64_t n) {
      std::memcpy(chunk_for_write(chunk) + within, data + done, n);
    });
  }

  // Every chunk the write covers whole adopts a shared slice of `buf`
  // instead of a copy (chunk k is one contiguous slice of the source at any
  // alignment), so one buffer written to several images is stored once.
  // Only the partial edge chunks are copied. Copy-on-write keeps the
  // sharing invisible: a later write to either side unshares first.
  void write(std::uint64_t offset, const mem::Buffer& buf) {
    for_each_piece(offset, buf.size(), [&](std::uint64_t chunk, std::uint64_t within,
                                           std::uint64_t done, std::uint64_t n) {
      if (n == kChunkSize) {
        chunks_[chunk] = buf.slice(done, n);
      } else {
        std::memcpy(chunk_for_write(chunk) + within, buf.data() + done, n);
      }
    });
  }

  void read(std::uint64_t offset, std::uint8_t* out, std::uint64_t len) const {
    for_each_piece(offset, len, [&](std::uint64_t chunk, std::uint64_t within,
                                    std::uint64_t done, std::uint64_t n) {
      auto it = chunks_.find(chunk);
      if (it == chunks_.end()) {
        std::memset(out + done, 0, n);  // unwritten regions read as zeros
      } else {
        std::memcpy(out + done, it->second.data() + within, n);
      }
    });
  }

  // A range inside one written chunk comes back as a shared view of it.
  mem::Buffer read(std::uint64_t offset, std::uint64_t len) const {
    const std::uint64_t within = offset % kChunkSize;
    if (len > 0 && within + len <= kChunkSize) {
      auto it = chunks_.find(offset / kChunkSize);
      if (it != chunks_.end()) return it->second.slice(within, len);
    }
    mem::Buffer b = mem::Buffer::for_overwrite(len);  // read() writes every byte
    read(offset, b.data(), len);
    return b;
  }

  std::uint64_t allocated_bytes() const { return chunks_.size() * kChunkSize; }

 private:
  // Calls fn(chunk, offset_within_chunk, bytes_done, n) for each
  // chunk-bounded piece of [offset, offset+len).
  template <typename Fn>
  static void for_each_piece(std::uint64_t offset, std::uint64_t len, Fn fn) {
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t within = (offset + done) % kChunkSize;
      const std::uint64_t n = std::min(len - done, kChunkSize - within);
      fn((offset + done) / kChunkSize, within, done, n);
      done += n;
    }
  }

  // Private, writable storage of a chunk: zeros when it was never written,
  // an unshared copy when it was adopted from a buffer someone else holds.
  std::uint8_t* chunk_for_write(std::uint64_t chunk) {
    auto [it, inserted] = chunks_.try_emplace(chunk);
    if (inserted) it->second = mem::Buffer(kChunkSize);
    return it->second.data();
  }

  std::uint64_t size_;
  std::uint64_t id_;
  std::unordered_map<std::uint64_t, mem::Buffer> chunks_;

  static inline std::uint64_t next_id_ = 1;
};

using DiskImagePtr = std::shared_ptr<DiskImage>;

}  // namespace vread::fs
